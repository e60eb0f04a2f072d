"""Acceptance gate: every published tolerance, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines as they are produced.  Each test also enforces its wall-clock
budget, so a pass certifies both the number and the cost of getting it.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np

from kmslab import disjointness as dj
from kmslab import liouville as lv
from kmslab.detector import (CouplingProfile, Trajectory,
                             boost_invariance_check,
                             effective_temperature_curve, response_curve)
from kmslab.errors import ResonanceWarning, TruncationWarning
from kmslab.oneparticle import (BoostSpec, MomentumFunction, default_coupling,
                                default_qgrid, jf_conjugate, kms_glue,
                                planck_occupation)
from kmslab.quasifree import (QuasiFreeState, balance_span_study,
                              gaussian_packet, kms_balance_check,
                              mixing_decay, two_point)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def _report(num, ok, detail, elapsed, budget):
    line = "criterion %02d %s: %s (%.1fs <= %ds)" % (
        num, "PASS" if ok and elapsed <= budget else "FAIL", detail,
        elapsed, budget)
    print(line)
    assert ok, line
    assert elapsed <= budget, line


def _normalized(state, u):
    return u.copy_with(u.values / math.sqrt(two_point(state, u, u).real))


def test_criterion_01_conjugation_fixes_form_factor():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        q, w = default_qgrid(beta, n=1024)
        u = MomentumFunction.from_radial(q, w, default_coupling(q))
        g = kms_glue(u, beta)
        target = np.exp(-beta * g.s / 2.0) * g.values
        resid = float(np.max(np.abs(jf_conjugate(g).values - target))
                      / np.max(np.abs(g.values)))
        worst = max(worst, resid)
    _report(1, worst < 1e-12,
            "jf-conjugation residual %.2e < 1e-12 over beta {0.5,1,2}" % worst,
            time.monotonic() - t0, 1)


def test_criterion_02_occupation_doubling_identity():
    t0 = time.monotonic()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        bx = np.geomspace(1e-3, 30.0, 1500)
        x = bx / beta
        lhs = 1.0 + 2.0 * planck_occupation(x, beta)
        rhs = 1.0 / np.tanh(bx / 2.0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(2, worst < 1e-12,
            "doubling vs coth max defect %.2e < 1e-12 on beta*x in [1e-3,30]"
            % worst, time.monotonic() - t0, 1)


def test_criterion_03_balance_residual_and_span_scaling():
    t0 = time.monotonic()
    state = QuasiFreeState(beta=1.0)
    q, w = default_qgrid(1.0, n=1024)
    f = gaussian_packet(q, w)
    res, _ = balance_span_study(state, f, spans=(200.0, 400.0))
    ratio = res[1] / res[0]
    ok = res[0] < 1e-3 and 0.375 <= ratio <= 0.625
    _report(3, ok,
            "balance residual %.3e < 1e-3; doubling ratio %.3f in [0.375,0.625]"
            % (res[0], ratio), time.monotonic() - t0, 30)


def test_criterion_04_mixing_tails():
    t0 = time.monotonic()
    state = QuasiFreeState(beta=1.0)
    q, w = default_qgrid(1.0, n=1024)
    f = _normalized(state, gaussian_packet(q, w))
    g = _normalized(state, gaussian_packet(q, w, center=1.3, width=0.8))
    tail_tp, tail_weyl = mixing_decay(state, f, g, t_max=80.0).tail_fraction(50.0)
    ok = tail_tp < 1e-3 and tail_weyl < 1e-3
    _report(4, ok,
            "t>=50 tails: two-point %.2e, weyl factorization %.2e, both < 1e-3"
            % (tail_tp, tail_weyl), time.monotonic() - t0, 30)


def test_criterion_05_rest_response_balance():
    t0 = time.monotonic()
    state = QuasiFreeState(beta=1.0)
    energies = [0.5, 1.0, 2.0, 3.0]
    grid = [-e for e in energies[::-1]] + energies
    base = response_curve(state, Trajectory.rest(), grid)
    dev = max(abs(base.balance_ratio(e) / math.exp(-e) - 1.0)
              for e in energies)
    other_profile = CouplingProfile(
        lambda q: q ** 0.5 * np.exp(-((q / 1.7) ** 2)) * (1.0 + 0.3 * q),
        q_max=14.0)
    other = response_curve(state, Trajectory.rest(), grid,
                           coupling=other_profile)
    cdev = max(abs(other.balance_ratio(e) / base.balance_ratio(e) - 1.0)
               for e in energies)
    ok = dev < 0.02 and cdev < 0.01
    _report(5, ok,
            "thermal balance within %.2e of e^{-beta E} (tol 2e-2); "
            "coupling dependence %.2e (tol 1e-2)" % (dev, cdev),
            time.monotonic() - t0, 60)


def test_criterion_06_orbit_balance_boost_invariant():
    t0 = time.monotonic()
    rep = boost_invariance_check(1.0, [0.1, 0.25, 0.5], etas=(0.0, 1.0))
    dev = max(rep.max_target_deviation(eta) for eta in rep.etas)
    cross = rep.max_cross_deviation()
    ok = dev < 0.02 and cross < 0.02
    _report(6, ok,
            "orbit balance within %.2e of exp(-2 pi E/a); boost cross "
            "deviation %.2e (tol 2e-2)" % (dev, cross),
            time.monotonic() - t0, 120)


def test_criterion_07_moving_bath_has_no_single_temperature():
    t0 = time.monotonic()
    energies = [0.5, 1.0, 1.75, 2.5, 3.0]
    fast = effective_temperature_curve(QuasiFreeState(beta=1.0), 0.5, energies)
    fast_spread = fast.spread / float(np.mean(fast.beta_eff))
    slow = effective_temperature_curve(QuasiFreeState(beta=1.0), 1e-3, energies)
    slow_spread = slow.spread / float(np.mean(slow.beta_eff))
    slow_dev = float(np.max(np.abs(slow.beta_eff - 1.0)))
    ok = fast_spread > 0.05 and slow_spread < 0.01 and slow_dev < 0.01
    _report(7, ok,
            "v=0.5 readout spread %.1f%% > 5%%; v=1e-3 spread %.2e and "
            "offset %.2e both < 1e-2" % (100 * fast_spread, slow_spread,
                                         slow_dev),
            time.monotonic() - t0, 120)


def test_criterion_08_kernel_splitting_order():
    t0 = time.monotonic()
    lambdas = [0.0, 0.02, 0.04, 0.08]
    exponents = []
    ok = True
    for seed in (0, 1, 2):
        disc = lv.jittered_modes(1.0, seed=seed, amplitude=0.03)
        space = lv.TruncatedFock(disc, n_tot_max=3)
        rep = lv.kernel_splitting_sweep(space, 1.0, OFFDIAG, lambdas)
        kd = rep.kernel_dims.tolist()
        ok = ok and kd == [2, 1, 1, 1] and 1.8 <= rep.fit_exponent <= 2.2
        exponents.append(rep.fit_exponent)
    disc = lv.jittered_modes(1.0, seed=0, amplitude=0.03)
    space = lv.TruncatedFock(disc, n_tot_max=3)
    ctrl = lv.kernel_splitting_sweep(space, 1.0, np.diag([1.0, -1.0]), lambdas)
    ok = ok and ctrl.kernel_dims.tolist() == [2, 2, 2, 2]
    _report(8, ok,
            "kernel 2 -> 1 with p = %s in [1.8,2.2] on 3 grids; diagonal "
            "coupling keeps dim 2" % ",".join("%.3f" % p for p in exponents),
            time.monotonic() - t0, 300)


def test_criterion_09_dressed_vector_structure():
    t0 = time.monotonic()
    disc = lv.jittered_modes(1.0, seed=0)
    resid = []
    for n_tot in (1, 2, 3):
        space = lv.TruncatedFock(disc, n_tot_max=n_tot)
        L0 = lv.assemble_L0(space, 1.0)
        I_mat, _ = lv.assemble_coupling(space, OFFDIAG)
        omega = lv.perturbed_kms_vector(L0, I_mat, 0.05, 1.0)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.05)
        resid.append(float(np.linalg.norm(L.matrix @ omega)))
    decreasing = resid[0] > resid[1] > resid[2]
    space = lv.TruncatedFock(disc, n_tot_max=3)
    L0 = lv.assemble_L0(space, 1.0)
    I_mat, _ = lv.assemble_coupling(space, OFFDIAG)
    omega0 = lv.gns_vacuum(space, 1.0, 1.0)
    slopes = [np.linalg.norm(lv.perturbed_kms_vector(L0, I_mat, lam, 1.0)
                             - omega0) / lam
              for lam in (0.0125, 0.025, 0.05)]
    linear = max(slopes) / min(slopes) - 1.0
    exact0 = float(np.max(np.abs(
        lv.perturbed_kms_vector(L0, I_mat, 0.0, 1.0) - omega0)))
    ok = decreasing and linear < 0.01 and exact0 == 0.0
    _report(9, ok,
            "residual norms %s decrease with budget; |Omega_lam - Omega_0| "
            "linear to %.1e; lam=0 exact" %
            (",".join("%.2e" % r for r in resid), linear),
            time.monotonic() - t0, 300)


def test_criterion_10_return_to_equilibrium():
    t0 = time.monotonic()
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    space = lv.TruncatedFock(disc, n_tot_max=4)
    t_rec = disc.recurrence_time()
    lo, hi = lv.fgr_window(disc, 1.0, t_rec)
    lam = lo
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)
    tgrid = np.arange(0.5, t_rec, 0.5)
    packet = np.exp(-(((disc.s - 1.0) / 0.3) ** 2)) * (disc.s > 0)
    ground = np.array([0.0, 0.0, 0.0, 1.0])

    initials = {"excited": lv.product_initial(space, np.diag([1.0, 0.0])),
                "one-boson": lv.one_boson_initial(space, ground, packet)}
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.vacuum] = 1.0 / math.sqrt(2.0)
    psi += lv.one_boson_initial(space, ground, packet) / math.sqrt(2.0)
    initials["entangled"] = psi / np.linalg.norm(psi)

    ok = lo <= lam <= hi
    details = []
    for name, initial in initials.items():
        rep = lv.rte_distance_series(L, initial, tgrid)
        ok = ok and rep.reached and rep.crossing_time < t_rec
        details.append("%s@t=%s" % (name, "none" if rep.crossing_time is None
                                    else "%.1f" % rep.crossing_time))
    L0 = L.with_lambda(0.0)
    omega = lv.perturbed_kms_vector(L0, L.I, lam, 1.0)
    stationary = lv.product_initial(space, lv.reduce_detector(omega, space))
    rep = lv.rte_distance_series(L, stationary, tgrid)
    drift = float(np.max(rep.distances[rep.times < t_rec]))
    ok = ok and drift < 0.05
    _report(10, ok,
            "distance < 0.05 before recurrence (%s); dressed-equilibrium "
            "drift %.3f stays below threshold; lam in FGR window"
            % (", ".join(details), drift),
            time.monotonic() - t0, 600)


def test_criterion_11_modular_relation():
    t0 = time.monotonic()
    disc = lv.paired_modes(1.0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    rep = lv.tomita_residual(space, 1.0, 1.0,
                             observables=[("identity",),
                                          ("detector", OFFDIAG),
                                          ("detector", np.diag([1.0, 0.0]))])
    s = np.array([-0.8, 0.8])
    pair = lv.ReservoirDiscretization(s, np.full(2, 1.0 / (4 * math.pi)),
                                      lv.form_factor_values(s, 1.0), beta=1.0)
    series = []
    for n_max in (2, 3, 4, 5):
        sp = lv.TruncatedFock(pair, n_max=n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            r = lv.tomita_residual(sp, 1.0, 1.0,
                                   observables=[("weyl", 0, 1.0)])
        series.append(r.max_residual)
    decreasing = all(a > b for a, b in zip(series, series[1:]))
    ok = rep.max_residual < 1e-8 and decreasing
    _report(11, ok,
            "detector-algebra residual %.1e < 1e-8; truncated-Weyl residual "
            "falls %s with the occupation cap"
            % (rep.max_residual, ",".join("%.1e" % v for v in series)),
            time.monotonic() - t0, 60)


def test_criterion_12_fidelity_decay_separates_temperatures():
    t0 = time.monotonic()
    fam = dj.adapted_family(200)
    hot = QuasiFreeState(beta=1.0)
    cold = QuasiFreeState(beta=2.0)
    curve = dj.overlap_decay(hot, cold, fam)
    monotone = bool(np.all(np.diff(curve.values) <= 1e-12))
    separated = (curve.n_star is not None and curve.n_star <= 200
                 and curve.values[curve.n_star - 1] < 0.01)
    boosted = dj.overlap_decay(
        hot, QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5)), fam)
    ctrl_same = dj.overlap_decay(hot, hot, fam)
    ctrl_rest = dj.overlap_decay(
        hot, QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.0)), fam)
    ctrl = max(float(np.max(np.abs(c.values - 1.0)))
               for c in (ctrl_same, ctrl_rest))
    ok = monotone and separated and boosted.slope < 0 and ctrl < 1e-6
    _report(12, ok,
            "F non-increasing, crosses 0.01 at n=%s <= 200; boosted log-slope "
            "%.1e < 0; controls flat to %.1e (tol 1e-6)"
            % (curve.n_star, boosted.slope, ctrl),
            time.monotonic() - t0, 600)


def test_criterion_13_cli_reruns_byte_identical(tmp_path, cli_env):
    t0 = time.monotonic()
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "kmslab.cli", "--out", name, "formfactor"],
            cwd=str(tmp_path), env=cli_env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
    same = all(
        (tmp_path / "a" / fname).read_bytes()
        == (tmp_path / "b" / fname).read_bytes()
        for fname in ("formfactor.csv", "formfactor.csv.meta", "manifest.txt"))
    _report(13, same,
            "repeated CLI runs produce byte-identical data, metadata, and "
            "manifest", time.monotonic() - t0, 60)
