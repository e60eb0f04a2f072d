"""Experiment runner: every laboratory module behind one executable.

Configuration is plain key=value text with one level of [section]
headers.  Resolution order, lowest to highest: built-in defaults, the
--config file, environment variables KMSLAB_<SECTION>_<KEY>, command
line flags.  An unknown key is an error in the file and in the
environment alike.  Every run writes a manifest echoing the resolved
values it consumed plus the tool version, so a run is reproducible from
its output directory alone.  The subcommands write every output file
through textio; the numeric modules return data.  All numeric file output
uses 17 significant digits and fixed reduction order; identical
configuration and seed give byte-identical files.  A MemoryError exits 2
like a ValidationError (see errors), with its message and no traceback.

Each subcommand runs BLAS on one thread, and no flag or variable
changes that.  The OpenBLAS builds that numpy and scipy have already
loaded are capped at run time for the length of the subcommand and get
their thread counts back afterwards; libraries not loaded yet are pinned
through the usual BLAS/OpenMP environment variables, which they read
when they load.  This module imports the numeric libraries lazily inside
the subcommands, so a fresh process takes that pin.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys

import click

from . import __version__
from .errors import NumericalError, ValidationError

_ENV_PREFIX = "KMSLAB"


# Config value parsers: raw text -> value, or ValueError with the reason.

def _number(raw):
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if math.isnan(val):
        raise ValueError("not a number: %r" % raw)
    return val


def _bounded(test, need):
    def parse(raw):
        val = _number(raw)
        if not test(val):
            raise ValueError("%s, got %s" % (need, raw))
        return val
    return parse


_real = _bounded(math.isfinite, "must be finite")
_positive = _bounded(lambda x: 0 < x < math.inf, "must be positive and finite")
_nonnegative = _bounded(lambda x: 0 <= x < math.inf, "must be >= 0 and finite")
_speed = _bounded(lambda x: abs(x) < 1.0, "|v| must be < 1")
# inf is the vacuum
_beta = _bounded(lambda x: x > 0, "must be positive or inf")


def _int_at_least(minimum):
    def parse(raw):
        try:
            val = int(raw)
        except ValueError:
            raise ValueError("not an integer: %r" % raw) from None
        if val < minimum:
            raise ValueError("must be >= %d, got %s" % (minimum, raw))
        return val
    return parse


def _list_of(item):
    def parse(raw):
        vals = [item(x) for x in raw.split(",") if x.strip() != ""]
        if not vals:
            raise ValueError("need at least one value")
        return vals
    return parse


def _one_of(what, words):
    def parse(raw):
        if raw not in words:
            raise ValueError("unknown %s %r" % (what, raw))
        return raw
    return parse


def _auto_or_positive(raw):
    return None if raw == "auto" else _positive(raw)


def _initial_state(raw):
    # the names are the keys of liouville's table of builders; the two
    # subcommands that read [liouville] load liouville right after
    from .liouville import INITIAL_STATES
    return _one_of("initial state", INITIAL_STATES)(raw)


# mode family -> (liouville builder, the arguments it takes besides beta,
# amplitude and zeta)
_MODE_FAMILIES = {
    "jittered": ("jittered_modes", ("seed", "n_side")),
    "paired": ("paired_modes", ("n_side",)),
    "shell": ("resonant_shell_modes", ("gap", "seed")),
}

# trajectory kind -> the [trajectory] keys its worldline takes
_TRAJECTORIES = {"rest": (), "inertial": ("v",), "accelerated": ("accel",)}

_family = _one_of("mode family", _MODE_FAMILIES)

# {section: {key: (default text, parser)}}
_SCHEMA = {
    "global": {
        "beta": ("1.0", _beta),
        "mass": ("0.0", _nonnegative),
        "zeta": (format(math.pi, ".17g"), _real),
        "n_grid": ("1024", _int_at_least(8)),
    },
    "detector": {
        "energies": ("0.5,1.0,1.5,2.0", _list_of(_positive)),
    },
    "trajectory": {
        "kind": ("rest", _one_of("kind", _TRAJECTORIES)),
        "v": ("0.5", _speed),
        "accel": ("1.0", _positive),
    },
    "liouville": {
        "gap": ("1.0", _positive),
        "family": ("jittered", _family),
        "n_side": ("12", _int_at_least(2)),
        "n_tot_max": ("3", _int_at_least(1)),
        "amplitude": ("0.03", _positive),
        "lambdas": ("0.0,0.02,0.04,0.08", _list_of(_real)),
        "coupling_offdiagonal": ("1.0", _real),
        "evolve_family": ("shell", _family),
        "evolve_n_tot_max": ("4", _int_at_least(1)),
        "evolve_amplitude": ("1.0", _positive),
        "evolve_lambda": ("auto", _auto_or_positive),
        "initial": ("excited", _initial_state),
        "dt": ("0.5", _positive),
        "t_max": ("auto", _auto_or_positive),
    },
    "disjointness": {
        "beta2": ("2.0", _beta),
        "v": ("0.0", _speed),
        "n_max_modes": ("200", _int_at_least(1)),
        "s_lo": ("0.1", _positive),
        "s_hi": ("5.0", _positive),
        "threshold": ("0.01", _positive),
    },
}

# subcommand -> the config sections it consumes and stamps into its manifest
_SECTIONS = {
    "formfactor": ["global"],
    "kms-check": ["global"],
    "mixing": ["global"],
    "response": ["global", "detector", "trajectory"],
    "rte-spectrum": ["global", "liouville"],
    "rte-evolve": ["global", "liouville"],
    "disjoint": ["global", "disjointness"],
}

# subcommand option -> the config key it overrides
_OVERRIDES = {"beta": ("global", "beta"), "trajectory": ("trajectory", "kind")}


def _resolve_config(config_path):
    """Defaults, then file, then environment, as a {section: {key: str}}."""
    resolved = {sec: {key: spec[0] for key, spec in kv.items()}
                for sec, kv in _SCHEMA.items()}
    if config_path is not None:
        from .textio import read_keyvals
        try:
            flat = read_keyvals(config_path)
        except (OSError, ValueError) as exc:
            raise ValidationError("cannot read config %s: %s" % (config_path, exc))
        for key, val in flat.items():
            if "." not in key:
                raise ValidationError(
                    "config key %r lacks a [section] header" % key)
            sec, name = key.split(".", 1)
            if sec not in resolved:
                raise ValidationError("unknown config section [%s]" % sec)
            if name not in resolved[sec]:
                raise ValidationError(
                    "unknown config key %r in section [%s]" % (name, sec))
            resolved[sec][name] = val
    known = set()
    for sec, kv in resolved.items():
        for name in kv:
            env_key = "%s_%s_%s" % (_ENV_PREFIX, sec.upper(), name.upper())
            known.add(env_key)
            if env_key in os.environ:
                kv[name] = os.environ[env_key]
    for env_key in sorted(os.environ):
        if env_key.startswith(_ENV_PREFIX + "_") and env_key not in known:
            raise ValidationError(
                "unknown config variable %s: no such [section] key" % env_key)
    return resolved


def _prepare(ctx):
    """Resolve the config, apply the subcommand's override options (from
    ctx.params) and parse every key of its sections, all before the
    subcommand's numeric work starts.  Returns ({section: {key: value}},
    output directory).
    """
    raw = _resolve_config(ctx.obj["config"])
    for name, val in ctx.params.items():
        if name in _OVERRIDES and val is not None:
            sec, key = _OVERRIDES[name]
            raw[sec][key] = val if isinstance(val, str) else format(val, ".17g")
    cfg = {}
    for sec in _SECTIONS[ctx.command.name]:
        cfg[sec] = {}
        for key, text in raw[sec].items():
            try:
                cfg[sec][key] = _SCHEMA[sec][key][1](text)
            except ValueError as exc:
                raise ValidationError("[%s] %s: %s" % (sec, key, exc)) from None
    ctx.obj["raw"] = raw
    from .textio import ensure_dir
    ensure_dir(ctx.obj["out"])
    return cfg, ctx.obj["out"]


def _write_manifest(ctx, extra=()):
    from .textio import write_keyvals
    raw = ctx.obj["raw"]
    pairs = [("[run]", ""), ("command", ctx.command.name),
             ("version", __version__), ("seed", str(ctx.obj["seed"]))]
    for sec in _SECTIONS[ctx.command.name]:
        pairs.append(("[%s]" % sec, ""))
        for key in sorted(raw[sec]):
            pairs.append((key, raw[sec][key]))
    pairs += list(extra)
    write_keyvals(os.path.join(ctx.obj["out"], "manifest.txt"), pairs)


# The OpenBLAS builds that numpy and scipy bundle: the extension module that
# links each one, and the getter and setter of its thread count.
_OPENBLAS = (
    ("numpy._core._multiarray_umath", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_get_num_threads",
     "scipy_openblas_set_num_threads"),
)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _openblas_pools():
    """(get, set) of the thread count of each OpenBLAS in _OPENBLAS whose
    extension module is loaded; a library or symbol that is missing has
    no pool to cap.  No numeric library is imported here."""
    pools = []
    for module, get_name, set_name in _OPENBLAS:
        path = getattr(sys.modules.get(module), "__file__", None)
        if path is None:
            continue
        import ctypes
        try:
            lib = ctypes.CDLL(path)
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        pools.append((get, set_))
    return pools


@contextlib.contextmanager
def _blas_threads():
    """Run the body with BLAS on one thread.

    The loaded OpenBLAS pools are capped at run time and get their counts
    back on exit, whether the body returns or raises.  A BLAS call wakes
    the whole pool, whose idle threads then spin beside the caller: on
    rte-spectrum's shift-invert eigensolve that doubled the CPU time and
    saved no wall time.  Libraries that load later read the environment
    variables set here, which stay set."""
    os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
    pools = _openblas_pools()
    saved = [get() for get, _ in pools]
    try:
        for _, set_ in pools:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(pools, saved):
            set_(count)


_beta_option = click.option("--beta", type=float, default=None,
                            help="override [global] beta")


@click.group()
@click.option("--config", type=click.Path(), default=None,
              help="key=value configuration file with [section] headers")
@click.option("--out", type=click.Path(), default=".",
              help="output directory for CSV files and the manifest")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="seed for randomized mode-grid jitter")
@click.version_option(version=__version__, prog_name="kmslab")
@click.pass_context
def cli(ctx, config, out, seed):
    """Numerical laboratory for thermal field states, detector response,
    coupled-generator spectra, and state-overlap decay."""
    # closed when the subcommand ends, whether it returns or raises
    ctx.with_resource(_blas_threads())
    ctx.obj = {"config": config, "out": out, "seed": seed}


@cli.command("formfactor")
@_beta_option
@click.pass_context
def cmd_formfactor(ctx, **_overrides):
    """Emit the glued thermal form factor and its conjugation residual."""
    cfg, out_dir = _prepare(ctx)
    g_cfg = cfg["global"]
    beta = g_cfg["beta"]
    import numpy as np
    from .oneparticle import (MomentumFunction, default_coupling,
                              default_qgrid, jf_conjugate, kms_glue,
                              save_glued)
    q, w = default_qgrid(beta, n=g_cfg["n_grid"])
    u = MomentumFunction.from_radial(q, w, default_coupling(q),
                                     g_cfg["mass"])
    g = kms_glue(u, beta, zeta=g_cfg["zeta"])
    target = np.exp(-beta * g.s / 2.0) * g.values
    resid = float(np.max(np.abs(jf_conjugate(g).values - target))
                  / np.max(np.abs(g.values)))
    path = os.path.join(out_dir, "formfactor.csv")
    save_glued(path, g, extra_meta=[("jf_identity_max_err", resid)])
    _write_manifest(ctx)
    click.echo("jf_identity_max_err=%s" % format(resid, ".17g"))
    click.echo("wrote %s" % path)


@cli.command("kms-check")
@_beta_option
@click.option("--t-span", type=float, default=200.0, show_default=True,
              help="correlator half-span for the windowed transform")
@click.pass_context
def cmd_kms_check(ctx, t_span, **_overrides):
    """Detailed-balance check of the two-point spectrum."""
    cfg, out_dir = _prepare(ctx)
    beta, mass = cfg["global"]["beta"], cfg["global"]["mass"]
    from .oneparticle import default_qgrid
    from .quasifree import QuasiFreeState, gaussian_packet, kms_balance_check
    from .textio import fmt17, write_csv, write_keyvals
    q, w = default_qgrid(beta, n=cfg["global"]["n_grid"])
    f = gaussian_packet(q, w, mass=mass)
    state = QuasiFreeState(beta=beta, mass=mass)
    report = kms_balance_check(state, f, t_span=t_span)
    write_csv(os.path.join(out_dir, "kms_check_spectrum.csv"),
              "nu,spectrum_pos,spectrum_neg",
              [report.nu, report.spectrum_pos, report.spectrum_neg])
    write_keyvals(os.path.join(out_dir, "kms_check_report.txt"),
                  report.text_pairs())
    _write_manifest(ctx, extra=[("t_span", fmt17(t_span))])
    for key, val in report.text_pairs():
        click.echo("%s=%s" % (key, fmt17(val) if isinstance(val, float) else val))


@cli.command("mixing")
@click.option("--t-max", type=float, default=80.0, show_default=True)
@click.pass_context
def cmd_mixing(ctx, t_max):
    """Clustering decay of the two-point and Weyl correlators."""
    cfg, out_dir = _prepare(ctx)
    beta, mass = cfg["global"]["beta"], cfg["global"]["mass"]
    from .oneparticle import default_qgrid
    from .quasifree import QuasiFreeState, gaussian_packet, mixing_decay
    from .textio import fmt17, write_csv
    q, w = default_qgrid(beta, n=cfg["global"]["n_grid"])
    f = gaussian_packet(q, w, mass=mass)
    state = QuasiFreeState(beta=beta, mass=mass)
    report = mixing_decay(state, f, t_max=t_max)
    write_csv(os.path.join(out_dir, "mixing.csv"),
              "t,abs_two_point,weyl_residual",
              [report.times, report.abs_two_point, report.weyl_residual])
    f1, f2 = report.tail_fraction(t_max / 2.0)
    _write_manifest(ctx, extra=[("t_max", fmt17(t_max))])
    click.echo("two_point_tail_fraction=%s" % fmt17(f1))
    click.echo("weyl_tail_fraction=%s" % fmt17(f2))


@cli.command("response")
@click.option("--trajectory", type=click.Choice(list(_TRAJECTORIES)),
              default=None, help="override [trajectory] kind")
@_beta_option
@click.pass_context
def cmd_response(ctx, **_overrides):
    """Detector rate curve with its detailed-balance and temperature readout."""
    cfg, out_dir = _prepare(ctx)
    energies = cfg["detector"]["energies"]
    t_cfg = cfg["trajectory"]
    from .detector import (BetaEffCurve, Trajectory, _signed_energies,
                           response_curve)
    from .quasifree import QuasiFreeState
    from .textio import fmt17, write_csv
    kind = t_cfg["kind"]
    traj = Trajectory(kind, **{k: t_cfg[k] for k in _TRAJECTORIES[kind]})
    state = QuasiFreeState(beta=cfg["global"]["beta"],
                           mass=cfg["global"]["mass"])
    curve = response_curve(state, traj, _signed_energies(energies))
    readout = BetaEffCurve(curve)
    pos = readout.energies
    write_csv(os.path.join(out_dir, "response.csv"),
              "E,rate_up,rate_down,balance",
              [pos, readout.up, readout.down, readout.balance])
    write_csv(os.path.join(out_dir, "response_beta_eff.csv"),
              "E,beta_eff", [pos, readout.beta_eff])
    _write_manifest(ctx, extra=[
        ("window_sigma_tau", fmt17(curve.window.sigma_tau)),
        ("eps", fmt17(curve.eps))])
    for e, b, be in zip(pos, readout.balance, readout.beta_eff):
        click.echo("E=%s balance=%s beta_eff=%s"
                   % (fmt17(e), fmt17(b), fmt17(be)))


def _liouville_space(cfg, seed, prefix):
    """(liouville, space, gap, G, t_rec, (lo, hi)) of an rte-* subcommand:
    the Fock space over the mode family of the [liouville] keys family,
    n_tot_max and amplitude (each read with the given prefix), the monopole
    G, the recurrence time and the golden-rule window.

    The evolve_ space keeps only the reservoir occupations within two
    top-band quanta of zero energy, |n . s| <= 2 max |s_j|: every state of
    at most two quanta, and none of the far off-shell rows that would set
    the propagation's spectral range.  The unprefixed space of rte-spectrum
    keeps the full budget, whose norm sets its kernel threshold."""
    if cfg["global"]["mass"] != 0.0:
        raise ValidationError("[global] mass: the reservoir modes are "
                              "massless; got %s" % cfg["global"]["mass"])
    beta, lcfg = cfg["global"]["beta"], cfg["liouville"]
    if not math.isfinite(beta):
        # the parser takes inf (the vacuum), which has no thermal modes
        raise ValidationError("[global] beta: beta must be positive and "
                              "finite: the modes sample a thermal form "
                              "factor, got %s" % beta)
    import numpy as np
    from . import liouville as lv
    builder, takes = _MODE_FAMILIES[lcfg[prefix + "family"]]
    args = {"seed": seed, "n_side": lcfg["n_side"], "gap": lcfg["gap"]}
    disc = getattr(lv, builder)(
        beta, amplitude=lcfg[prefix + "amplitude"],
        zeta=cfg["global"]["zeta"], **{name: args[name] for name in takes})
    window = 2.0 * float(abs(disc.s).max()) if prefix == "evolve_" else None
    space = lv.TruncatedFock(disc, n_tot_max=lcfg[prefix + "n_tot_max"],
                             energy_max=window)
    t_rec = disc.recurrence_time()
    g_off = lcfg["coupling_offdiagonal"]
    G = np.array([[0.0, g_off], [g_off, 0.0]])
    return (lv, space, lcfg["gap"], G, t_rec,
            lv.fgr_window(disc, lcfg["gap"], t_rec))


@cli.command("rte-spectrum")
@click.pass_context
def cmd_rte_spectrum(ctx):
    """Near-zero spectrum of the coupled generator over a coupling sweep."""
    cfg, out_dir = _prepare(ctx)
    lv, space, gap, G, t_rec, (lo, hi) = _liouville_space(
        cfg, ctx.obj["seed"], "")
    from .textio import fmt17, write_csv
    sweep = lv.kernel_splitting_sweep(space, gap, G,
                                      cfg["liouville"]["lambdas"])
    write_csv(os.path.join(out_dir, "rte_spectrum.csv"),
              "lambda,gap,fit_exponent",
              [sweep.lambdas, sweep.gaps,
               [sweep.fit_exponent] * len(sweep.lambdas)])
    _write_manifest(ctx, extra=[("theta", fmt17(sweep.theta)),
                                ("recurrence_time", fmt17(t_rec)),
                                ("lu_nnz_max", str(sweep.lu_nnz)),
                                ("solves_total", str(sweep.solves))])
    for lam, gp, kd in zip(sweep.lambdas, sweep.gaps, sweep.kernel_dims):
        click.echo("lambda=%s kernel_dim=%d gap=%s"
                   % (fmt17(lam), kd, fmt17(gp)))
    click.echo("theta=%s" % fmt17(sweep.theta))
    click.echo("fit_exponent=%s" % fmt17(sweep.fit_exponent))
    click.echo("recurrence_time=%s" % fmt17(t_rec))
    click.echo("fgr_window=[%s, %s]" % (fmt17(lo), fmt17(hi)))


@cli.command("rte-evolve")
@click.pass_context
def cmd_rte_evolve(ctx):
    """Reduced-detector trace distance to equilibrium along the evolution."""
    cfg, out_dir = _prepare(ctx)
    lv, space, gap, G, t_rec, (lo, hi) = _liouville_space(
        cfg, ctx.obj["seed"], "evolve_")
    lcfg, dt = cfg["liouville"], cfg["liouville"]["dt"]
    import numpy as np
    from .textio import fmt17, write_csv
    lam = lo if lcfg["evolve_lambda"] is None else lcfg["evolve_lambda"]
    t_max = t_rec if lcfg["t_max"] is None else lcfg["t_max"]
    # the start, the reference and the propagation read only the
    # coupling's factors: evolve assembles the start's sector alone
    coupled = lv.assemble_factors(space, gap, G, lam)
    reference = lv._dressed_reference(coupled)
    if lcfg["initial"] == "stationary":
        # INITIAL_STATES' stationary start, from the one KMS vector
        psi = lv.product_initial(space, reference)
    else:
        psi = lv.INITIAL_STATES[lcfg["initial"]](coupled)
    tgrid = np.arange(dt, t_max + dt / 2.0, dt)
    report = lv.rte_distance_series(coupled, psi, tgrid, reference=reference)
    write_csv(os.path.join(out_dir, "rte_evolve.csv"), "t,trace_distance",
              [report.times, report.distances])
    _write_manifest(ctx, extra=[("lambda_used", fmt17(lam)),
                                ("recurrence_time", fmt17(t_rec)),
                                ("fgr_window_lo", fmt17(lo)),
                                ("fgr_window_hi", fmt17(hi)),
                                ("norm_drift", fmt17(report.norm_drift)),
                                ("energy_drift", fmt17(report.energy_drift)),
                                ("energy_max", fmt17(space.energy_max)),
                                ("dim", str(space.dim)),
                                ("matvecs_total", str(report.matvecs))])
    click.echo("lambda=%s fgr_window=[%s, %s]"
               % (fmt17(lam), fmt17(lo), fmt17(hi)))
    click.echo("recurrence_time=%s" % fmt17(t_rec))
    click.echo("crossing_time=%s"
               % ("none" if report.crossing_time is None
                  else fmt17(report.crossing_time)))
    click.echo("pre_recurrence_min=%s" % fmt17(report.pre_recurrence_min))
    click.echo("reached=%s" % ("yes" if report.reached else "no"))


@cli.command("disjoint")
@click.pass_context
def cmd_disjoint(ctx):
    """Fidelity decay between two thermal states over growing mode families."""
    cfg, out_dir = _prepare(ctx)
    d_cfg = cfg["disjointness"]
    from .disjointness import adapted_family, overlap_decay
    from .oneparticle import BoostSpec
    from .quasifree import QuasiFreeState
    from .textio import fmt17, write_csv, write_keyvals
    family = adapted_family(d_cfg["n_max_modes"], s_lo=d_cfg["s_lo"],
                            s_hi=d_cfg["s_hi"])
    mass = cfg["global"]["mass"]
    state1 = QuasiFreeState(beta=cfg["global"]["beta"], mass=mass)
    state2 = QuasiFreeState(beta=d_cfg["beta2"], mass=mass,
                            frame=BoostSpec.from_velocity(d_cfg["v"]))
    curve = overlap_decay(state1, state2, family,
                          threshold=d_cfg["threshold"])
    n_star = "none" if curve.n_star is None else str(curve.n_star)
    path = os.path.join(out_dir, "disjoint.csv")
    write_csv(path, "n,fidelity", [curve.ns, curve.values])
    write_keyvals(path + ".meta", [
        ("family", family.descriptor), ("threshold", d_cfg["threshold"]),
        ("n_star", n_star), ("log_slope", curve.slope),
        ("state1", repr(state1)), ("state2", repr(state2))])
    _write_manifest(ctx)
    click.echo("n_star=%s" % n_star)
    click.echo("log_slope=%s" % fmt17(curve.slope))
    click.echo("final_fidelity=%s" % fmt17(float(curve.values[-1])))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except ValidationError as exc:
        click.echo("validation error: %s" % exc, err=True)
        return 2
    except NumericalError as exc:
        click.echo("numerical error: %s" % exc, err=True)
        return 3
    except MemoryError as exc:
        click.echo("memory error: %s" % exc, err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
