"""Spans around calls into kmslab's public functions, recorded from outside.

``install`` replaces each traced function in every ``kmslab`` module
namespace that binds it (``detector`` binds ``planck_occupation`` at import
time, and the CLI's lazy imports read module attributes at call time), so
the program itself is unchanged.  A span is
``[name, start, end, parent, invocation, counts]``; spans stay in memory
until the workload process writes them out at exit.  Counts are read from
arguments and return values, never from inside the program.
"""

import functools
import inspect
import os
import sys
import time


class Recorder:
    def __init__(self):
        self.spans = []
        self.invocation = None
        self._open = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                    self.invocation, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span[5] = count(args, result)
            return result
        return traced


def _written_bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _operator_counts(op):
    return {"dim": int(op.dim), "nnz": int(op.matrix.nnz)}


def _assembled(_args, op):
    return _operator_counts(op)


def _scanned(args, report):
    counts = _operator_counts(args[0])
    counts["sparse"] = int(report.method != "dense")
    return counts


def _evolved(args, result):
    counts = _operator_counts(args[0])
    counts["steps"] = len(result.times)
    counts["states_bytes"] = int(result.states.nbytes)
    return counts


def _targets():
    """(owner, attribute, span name, counter) for every traced callable."""
    from kmslab import (cli, detector, disjointness, liouville, oneparticle,
                        quasifree, textio)
    targets = [
        (cli, "main", "cli", None),
        (textio, "write_csv", "textio.write", _written_bytes),
        (textio, "write_keyvals", "textio.write", _written_bytes),
        (quasifree, "kms_balance_check", "quasifree.kms_balance_check", None),
        (quasifree, "mixing_decay", "quasifree.mixing_decay", None),
        (detector, "response_curve", "detector.response_curve", None),
        (disjointness, "adapted_family", "disjointness.adapted_family", None),
        (disjointness, "overlap_decay", "disjointness.overlap_decay", None),
        (liouville.TruncatedFock, "__init__", "liouville.fock", None),
        (liouville, "assemble_liouvillean", "liouville.assemble", _assembled),
        (liouville, "spectrum_scan", "liouville.scan", _scanned),
        (liouville, "perturbed_kms_vector", "liouville.kms_vector", None),
        (liouville, "evolve", "liouville.evolve", _evolved),
        (liouville, "reduce_detector", "liouville.reduce", None),
        (liouville, "trace_distance", "liouville.reduce", None),
    ]
    for attr, fn in sorted(vars(oneparticle).items()):
        if (inspect.isfunction(fn) and not attr.startswith("_")
                and fn.__module__ == oneparticle.__name__):
            targets.append((oneparticle, attr, "oneparticle", None))
    return targets


def install():
    """Trace every target; return the recorder that collects the spans."""
    rec = Recorder()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "kmslab"
                                     or name.startswith("kmslab."))]
    for owner, attr, name, count in _targets():
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, count)
        if inspect.isclass(owner):
            setattr(owner, attr, traced)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, traced)
    return rec


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, passes):
    """Per-layer metrics per pass, from the spans of ``passes`` passes."""
    selfs = {}
    calls = {}
    counts = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        selfs[name] = selfs.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, val in (span[5] or {}).items():
            counts.setdefault((name, key), []).append(val)

    def s(name):
        return selfs.get(name, 0.0) / passes

    def n(name):
        return calls.get(name, 0) / passes

    def total(name, key):
        return sum(counts.get((name, key), [])) / passes

    def peak(key):
        return max([v for (_, k), vals in counts.items() if k == key
                    for v in vals] or [0])

    scan_calls, steps = n("liouville.scan"), total("liouville.evolve", "steps")
    return {
        "cli.self_s": s("cli"),
        "textio.write_s": s("textio.write"),
        "textio.write_bytes": total("textio.write", "bytes"),
        "oneparticle.s": s("oneparticle"),
        "oneparticle.calls": n("oneparticle"),
        "quasifree.kms_balance_check.s": s("quasifree.kms_balance_check"),
        "quasifree.mixing_decay.s": s("quasifree.mixing_decay"),
        "detector.response_curve.s": s("detector.response_curve"),
        "detector.response_curve.calls": n("detector.response_curve"),
        "disjointness.adapted_family.s": s("disjointness.adapted_family"),
        "disjointness.overlap_decay.s": s("disjointness.overlap_decay"),
        "liouville.fock.s": s("liouville.fock"),
        "liouville.assemble.s": s("liouville.assemble"),
        "liouville.dim": peak("dim"),
        "liouville.nnz": peak("nnz"),
        "liouville.scan.s": s("liouville.scan"),
        "liouville.scan.calls": scan_calls,
        "liouville.scan.sparse_calls": total("liouville.scan", "sparse"),
        "liouville.scan.s_per_call":
            s("liouville.scan") / scan_calls if scan_calls else 0.0,
        "liouville.kms_vector.s": s("liouville.kms_vector"),
        "liouville.evolve.s": s("liouville.evolve"),
        "liouville.evolve.steps": steps,
        "liouville.evolve.s_per_step":
            s("liouville.evolve") / steps if steps else 0.0,
        "liouville.evolve.states_mb":
            total("liouville.evolve", "states_bytes") / 1e6,
        "liouville.reduce.s": s("liouville.reduce"),
    }
