"""Output checks for benchmark invocations.

Every invocation is checked against the published invariants of its
subcommand.  Where ``reference.json`` holds an output recorded for the
invocation's CLI seed (seed 0 for every invocation, and each grid that
``spectrum`` runs), at the commit that introduced the benchmark, the
printed summary is also compared with it: integers and words
exactly, floats within ``REL_TOL`` relative (plus ``ABS_TOL`` absolute, for
values that are numerically zero such as the lambda=0 kernel gap).
"""

import math
import os
import re

DEFAULT_SEED = 0  # kmslab.cli's default --seed
REL_TOL = 1e-6
ABS_TOL = 1e-12

# The workloads run every subcommand at its defaults: beta = 1, accel = 1.
_BETA = 1.0
_ACCEL = 1.0

_TOKEN = re.compile(r"([A-Za-z_]\w*)=(\[[^\]]*\]|\S+)")
_INT = re.compile(r"[+-]?\d+\Z")


def parse_summary(text):
    """The ``key=value`` tokens of a subcommand's stdout, in order."""
    return [m.groups() for m in _TOKEN.finditer(text)]


def _all(tokens, key):
    return [v for k, v in tokens if k == key]


def _one(tokens, key):
    vals = _all(tokens, key)
    if len(vals) != 1:
        raise ValueError("expected one %s=, found %d" % (key, len(vals)))
    return vals[0]


def _floats(tokens, key):
    vals = [float(v) for v in _all(tokens, key)]
    if not vals:
        raise ValueError("no %s= in output" % key)
    return vals


def _below(tokens, key, limit):
    val = float(_one(tokens, key))
    return [] if val < limit else ["%s=%r not below %g" % (key, val, limit)]


def _formfactor(t):
    return _below(t, "jf_identity_max_err", 1e-12)


def _kms_check(t):
    return _below(t, "max_err", 1e-3)


def _mixing(t):
    return (_below(t, "two_point_tail_fraction", 1e-3)
            + _below(t, "weyl_tail_fraction", 1e-3))


def _response_rest(t):
    return ["beta_eff=%r not within 2e-2 of beta=%g" % (b, _BETA)
            for b in _floats(t, "beta_eff") if not abs(b - _BETA) < 2e-2]


def _response_inertial(t):
    return ["balance=%r outside (0, 1)" % b
            for b in _floats(t, "balance") if not 0.0 < b < 1.0]


def _response_accelerated(t):
    energies, balances = _floats(t, "E"), _floats(t, "balance")
    if len(energies) != len(balances):
        raise ValueError("%d E= but %d balance=" % (len(energies), len(balances)))
    problems = []
    for e, b in zip(energies, balances):
        target = math.exp(-2.0 * math.pi * e / _ACCEL)
        if not abs(b / target - 1.0) < 2e-2:
            problems.append("E=%r: balance=%r not within 2e-2 of "
                            "exp(-2 pi E/a)=%r" % (e, b, target))
    return problems


def _disjoint(t):
    n_star = _one(t, "n_star")
    if not _INT.match(n_star) or int(n_star) > 200:
        return ["n_star=%s is not an integer <= 200" % n_star]
    return []


def _kernel_dims(t):
    dims = [int(v) for v in _all(t, "kernel_dim")]
    return [] if dims == [2, 1, 1, 1] else [
        "kernel_dim sequence %r, expected [2, 1, 1, 1]" % dims]


def _rte_spectrum(t):
    problems = _kernel_dims(t)
    p = float(_one(t, "fit_exponent"))
    if not 1.8 <= p <= 2.2:
        problems.append("fit_exponent=%r outside [1.8, 2.2]" % p)
    return problems


def _rte_evolve(t):
    if _one(t, "reached") != "yes":
        return ["reached=%s, expected yes" % _one(t, "reached")]
    crossing = float(_one(t, "crossing_time"))
    t_rec = float(_one(t, "recurrence_time"))
    if not crossing < t_rec:
        return ["crossing_time=%r not before recurrence_time=%r"
                % (crossing, t_rec)]
    return []


CHECKS = {
    "formfactor": _formfactor,
    "kms-check": _kms_check,
    "mixing": _mixing,
    "response-rest": _response_rest,
    "response-inertial": _response_inertial,
    "response-accelerated": _response_accelerated,
    "disjoint": _disjoint,
    "rte-spectrum": _rte_spectrum,
    "rte-spectrum-small": _kernel_dims,
    "rte-evolve": _rte_evolve,
    "rte-evolve-small": _rte_evolve,
}


def _same_value(ref, got):
    if ref.startswith("["):
        if not got.startswith("["):
            return False
        ref_parts = ref.strip("[]").split(",")
        got_parts = got.strip("[]").split(",")
        return len(ref_parts) == len(got_parts) and all(
            _same_value(r.strip(), g.strip())
            for r, g in zip(ref_parts, got_parts))
    if _INT.match(ref) and _INT.match(got):
        return ref == got
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return ref == got
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare_reference(ref_tokens, tokens):
    """Problems found comparing a summary with its recorded reference."""
    ref_keys = [k for k, _ in ref_tokens]
    keys = [k for k, _ in tokens]
    if keys != ref_keys:
        return ["summary keys %r differ from reference %r" % (keys, ref_keys)]
    return ["%s=%s differs from reference %s" % (k, v, r)
            for (k, r), (_, v) in zip(ref_tokens, tokens)
            if not _same_value(r, v)]


def check_call(call, reference=None):
    """Problems with one invocation record; an empty list means it passed.

    ``call`` holds the label, exit code, error text, captured stdout and
    output directory of the invocation, as the workload process wrote them.
    """
    if call["error"] is not None:
        return ["raised: %s" % call["error"].strip().splitlines()[-1]]
    if call["exit_code"] != 0:
        return ["exit code %s" % call["exit_code"]]
    if not os.path.isfile(os.path.join(call["out"], "manifest.txt")):
        return ["no manifest.txt in %s" % call["out"]]
    tokens = parse_summary(call["stdout"])
    try:
        problems = CHECKS[call["label"]](tokens)
    except ValueError as exc:
        return ["unreadable summary: %s" % exc]
    if reference is not None:
        problems += compare_reference(reference, tokens)
    return problems
