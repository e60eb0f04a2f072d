"""Detector trajectories, pulled-back correlators, response rates."""

import math
import tracemalloc

import numpy as np
import pytest

from kmslab import detector
from kmslab.errors import (ResolutionError, UnsupportedConfigurationError,
                           ValidationError)
from kmslab.detector import (BetaEffCurve, ResponseWindow, Trajectory,
                             effective_temperature_curve, pullback_wightman,
                             response_curve)
from kmslab.oneparticle import BoostSpec, planck_occupation
from kmslab.quasifree import QuasiFreeState


# ---------------------------------------------------------------------------
# trajectories

def test_trajectory_positions():
    tau = 0.8
    t, x = Trajectory.rest().position(tau)[:2]
    assert (t, x) == (tau, 0.0)
    v = 0.6
    t, x = Trajectory.inertial(v).position(tau)[:2]
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    assert t == pytest.approx(gamma * tau, rel=1e-14)
    assert x == pytest.approx(gamma * v * tau, rel=1e-14)
    a = 2.0
    t, x = Trajectory.accelerated(a).position(tau)[:2]
    assert t == pytest.approx(math.sinh(a * tau) / a, rel=1e-14)
    assert x == pytest.approx(math.cosh(a * tau) / a, rel=1e-14)


def test_trajectory_validation():
    with pytest.raises(ValidationError):
        Trajectory.inertial(1.0)
    with pytest.raises(ValidationError):
        Trajectory.accelerated(-1.0)


# ---------------------------------------------------------------------------
# pulled-back correlator

def test_wightman_hermiticity():
    state = QuasiFreeState(beta=1.0)
    tau = np.array([0.3, 1.1, 4.0])
    for traj in (Trajectory.rest(), Trajectory.inertial(0.5)):
        wp = pullback_wightman(state, traj, tau, eps=1e-3)
        wm = pullback_wightman(state, traj, -tau, eps=1e-3)
        assert np.max(np.abs(wm - np.conj(wp))) < 1e-12 * np.max(np.abs(wp))


def test_wightman_rest_vacuum_closed_form():
    state = QuasiFreeState()
    tau = np.geomspace(0.1, 10.0, 25)
    eps = 1e-4
    got = pullback_wightman(state, Trajectory.rest(), tau, eps=eps)
    exact = -1.0 / (4.0 * math.pi ** 2 * (tau - 1j * eps) ** 2)
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-4


def test_wightman_accelerated_vacuum_is_thermal():
    # balance of the response at a = 2 pi corresponds to beta = 1
    state = QuasiFreeState()
    curve = response_curve(state, Trajectory.accelerated(2.0 * math.pi),
                           [-1.0, 1.0])
    assert curve.balance_ratio(1.0) == pytest.approx(math.exp(-1.0), rel=0.02)


def test_nonstationary_combination_rejected():
    boosted = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5))
    with pytest.raises(UnsupportedConfigurationError):
        pullback_wightman(boosted, Trajectory.accelerated(1.0), np.array([1.0]))


def test_massive_states_rejected():
    massive = QuasiFreeState(beta=1.0, mass=0.7)
    with pytest.raises(ValidationError, match="mass=0.7"):
        pullback_wightman(massive, Trajectory.rest(), np.array([1.0]))
    with pytest.raises(ValidationError, match="mass=0.7"):
        response_curve(massive, Trajectory.inertial(0.5), [-1.0, 1.0])


_SIGNED = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


@pytest.mark.parametrize("traj", [Trajectory.rest(), Trajectory.inertial(0.3),
                                  Trajectory.accelerated(1.0)], ids=repr)
def test_boosted_vacuum_gives_the_vacuum_rates(traj):
    # the vacuum is boost invariant, so its frame is dropped
    vacuum = response_curve(QuasiFreeState(), traj, _SIGNED)
    boosted = response_curve(QuasiFreeState(frame=BoostSpec(0.7)), traj,
                             _SIGNED)
    assert np.array_equal(boosted.rates, vacuum.rates)
    assert boosted.floor == vacuum.floor


@pytest.mark.parametrize("v, tol", [(-0.6, 0.0), (0.9, 0.0), (0.5, 1e-13)])
def test_detector_comoving_with_the_bath_sees_its_rest_rates(v, tol):
    # the premise of the paper: at rest in the bath's frame, the bath's KMS
    # rates. The bath stores its velocity as a rapidity, and
    # tanh(atanh(0.5)) = 0.49999999999999994 leaves a relative speed of
    # 6e-17 at v = 0.5, so that match holds to 9e-14 only
    bath = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(v))
    moving = response_curve(bath, Trajectory.inertial(v), _SIGNED)
    rest = response_curve(QuasiFreeState(beta=1.0), Trajectory.rest(),
                          _SIGNED)
    assert np.all(np.abs(moving.rates - rest.rates) <= tol * rest.rates)


# the default response: energies 0.5 .. 2, beta = 1, window tau_max = 160
_DEFAULT_TAU_MAX = 160.0


def _default_mesh(v):
    """Both signs of the default response's proper-time mesh, with its
    regulator, for a worldline at speed v through the bath at beta = 1."""
    traj = Trajectory.inertial(v) if v else Trajectory.rest()
    eps = 1e-3 * detector._min_timescale(QuasiFreeState(beta=1.0), traj,
                                        [0.5, 2.0])
    tau, _ = detector._graded_tau_mesh(eps, _DEFAULT_TAU_MAX, 2.0)
    return traj, np.concatenate([-tau[::-1], tau]), eps


def _mp_thermal(beta, t, r, eps):
    """Reference W at lab separation (t, r): the coth difference
    (coth k(z+r) - coth k(z-r)) / (8 pi beta r) with z = t - i eps, or its
    r -> 0 limit -csch^2(kz) / (4 beta^2), with enough digits to survive
    the cancellation between the two coth terms."""
    mpmath = pytest.importorskip("mpmath")
    digits = 30 + int(2.0 * math.pi / beta * (abs(t) + abs(r)) / math.log(10))
    with mpmath.workdps(digits):
        k = mpmath.pi / beta
        z = mpmath.mpf(t) - 1j * mpmath.mpf(eps)
        r = abs(mpmath.mpf(r))
        if r == 0:
            w = -mpmath.csch(k * z) ** 2 / (4 * beta ** 2)
        else:
            w = ((mpmath.coth(k * (z + r)) - mpmath.coth(k * (z - r)))
                 / (8 * mpmath.pi * beta * r))
        return complex(w)


@pytest.mark.parametrize("v", [0.0, 0.5, 0.9])
def test_thermal_closed_form_matches_mpmath(v):
    traj, mesh, eps = _default_mesh(v)
    state = QuasiFreeState(beta=1.0)
    assert np.all(np.isfinite(pullback_wightman(state, traj, mesh, eps=eps)))
    tau = np.array([0.0, 0.3 * eps, eps, 3.0 * eps, 0.01, 0.3, 1.0, 7.0,
                    40.0, _DEFAULT_TAU_MAX])
    tau = np.concatenate([-tau[:0:-1], tau])
    got = pullback_wightman(state, traj, tau, eps=eps)
    ref = np.array([_mp_thermal(1.0, traj.gamma * x, traj.gamma * traj.v * x,
                                eps) for x in tau])
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref) + 1e-300)
    # W(-tau) = conj W(tau) to rounding
    half = tau.size // 2
    assert np.array_equal(got[:half][::-1], np.conj(got[half + 1:]))


@pytest.mark.parametrize("v", [0.0, 0.5, 0.9])
def test_thermal_closed_form_matches_mode_quadrature(v):
    # the momentum quadrature the closed form replaced: vacuum part from
    # the separation plus the thermal mode sum on panels up to q = 40/beta
    traj, tau, eps = _default_mesh(v)
    t, r = traj.gamma * tau, traj.gamma * traj.v * tau
    edges = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0]
    q, wq = detector._qmesh(edges, traj.gamma * (1.0 + v) * _DEFAULT_TAU_MAX)
    mu = planck_occupation(q, 1.0)
    quad = (detector._interval_correlation(t, r, eps)
            + detector._mode_sum(q, wq, q * mu, q * mu, t, r, eps))
    got = pullback_wightman(QuasiFreeState(beta=1.0), traj, tau, eps=eps)
    assert np.max(np.abs(got - quad)) < 1e-8 * np.max(np.abs(got))


def _mode_sum_case(moving):
    rng = np.random.default_rng(3)
    q = np.sort(rng.uniform(0.05, 12.0, 53))
    wq, a, b = rng.uniform(0.1, 1.0, (3, q.size))
    t = np.concatenate([[0.0], np.geomspace(0.01, 9.0, 10)])
    return q, wq, a, b, t, (0.6 * t if moving else np.zeros_like(t)), 0.05


@pytest.mark.parametrize("moving", [False, True])
def test_mode_sum_matches_direct_complex_exponentials(moving):
    # a != b, eps > 0, several chunks (the last partial), and r = 0 at t = 0
    q, wq, a, b, t, r, eps = _mode_sum_case(moving)
    z = np.outer(q, t - 1j * eps)
    sinc = np.sinc(np.outer(q, r) / math.pi)
    terms = np.concatenate([(wq * a)[:, None] * np.exp(-1j * z) * sinc,
                            (wq * b)[:, None] * np.exp(1j * z) * sinc])
    scale = np.sum(np.abs(terms), axis=0) / detector.FOUR_PI2
    direct = np.sum(terms, axis=0) / detector.FOUR_PI2
    got = detector._mode_sum(q, wq, a, b, t, r, eps, chunk=16)
    assert np.max(np.abs(got - direct) / scale) < 1e-13


def test_rates_match_direct_complex_exponentials():
    state, traj = QuasiFreeState(), Trajectory.accelerated(1.0)
    energies, window, eps = [-2.0, -0.5, 1.0, 3.0], ResponseWindow(8.0), 1e-3
    rates, _ = detector._rate_values(state, traj, energies, window, eps,
                                     None, None)
    tau, wt = detector._graded_tau_mesh(eps, window.tau_max, 3.0)
    g = window(tau) * wt * detector._wightman_values(state, traj, tau, eps)
    terms = np.exp(-1j * np.outer(energies, tau)) * g
    direct = 2.0 * np.real(np.sum(terms, axis=1))
    assert np.max(np.abs(rates - direct)
                  / (2.0 * np.sum(np.abs(terms), axis=1))) < 1e-13


def test_mode_sum_memory_is_bounded_by_its_chunk():
    """One call at 7 320 momentum nodes and 672 proper times peaks below
    16 MB of traced allocations; a full-width complex evaluation peaks
    above 100 MB. That is about the size a coupling profile of horizon
    q_max = 40 takes on the default inertial window (7 308 nodes)."""
    tau, _ = detector._graded_tau_mesh(5e-4, 160.0, 2.0)
    assert tau.size == 672
    q = np.linspace(0.01, 40.0, 7320)
    ones = np.ones_like(q)
    tracemalloc.start()
    try:
        detector._mode_sum(q, ones, ones, ones, tau, 0.5 * tau, 5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# response curves

def test_rest_thermal_balance():
    state = QuasiFreeState(beta=1.0)
    curve = response_curve(state, Trajectory.rest(), [-1.0, 1.0])
    assert curve.balance_ratio(1.0) == pytest.approx(math.exp(-1.0), rel=0.02)
    assert curve.floor < 1e-6 * np.max(curve.rates)


def test_rest_vacuum_no_excitation():
    state = QuasiFreeState()
    curve = response_curve(state, Trajectory.rest(), [-1.0, 1.0])
    assert curve.rate_at(1.0) < 1e-4 * curve.rate_at(-1.0)


def test_response_rates_nonnegative_up_to_floor():
    state = QuasiFreeState(beta=1.0)
    curve = response_curve(state, Trajectory.rest(), [-2.0, -1.0, 1.0, 2.0])
    assert np.all(curve.rates >= -curve.floor)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e308])
def test_window_rejects_a_width_without_a_finite_truncation(sigma):
    # 1e308 is finite, but its 4-sigma truncation overflows to inf
    with pytest.raises(ValidationError, match="window width"):
        ResponseWindow(sigma)


def test_subnormal_energies_are_rejected_rather_than_meshed_forever():
    # the default width 20 / 1e-310 overflows to inf
    state = QuasiFreeState(beta=1.0)
    with pytest.raises(ValidationError, match="window width"):
        response_curve(state, Trajectory.rest(), [1e-310, -1e-310])


# ---------------------------------------------------------------------------
# effective temperature

def test_beta_eff_still_bath_returns_beta():
    state = QuasiFreeState(beta=1.0)
    curve = effective_temperature_curve(state, 0.0, [0.5, 1.0, 2.0])
    assert np.max(np.abs(curve.beta_eff - 1.0)) < 0.01


def test_beta_eff_two_reconstruction_paths_agree():
    state = QuasiFreeState(beta=1.0)
    energies = [0.5, 1.0, 2.0]
    curve = effective_temperature_curve(state, 0.3, energies)
    bath = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.3))
    rates = response_curve(bath, Trajectory.rest(),
                           detector._signed_energies(energies))
    redone = np.array([-math.log(rates.rate_at(e) / rates.rate_at(-e)) / e
                       for e in energies])
    assert np.max(np.abs(curve.beta_eff - redone)) < 1e-10


def test_beta_eff_rate_vanishes_toward_light_speed():
    state = QuasiFreeState(beta=1.0)
    rates = []
    for v in (0.9, 0.99):
        curve = effective_temperature_curve(state, v, [1.0])
        rates.append(curve.up[0])
    assert rates[1] < rates[0]


def test_beta_eff_readout_of_a_curve():
    curve = response_curve(QuasiFreeState(beta=1.0), Trajectory.rest(),
                           [1.0, -0.5, 0.5, -1.0])
    readout = BetaEffCurve(curve)
    assert readout.energies.tolist() == [0.5, 1.0]
    assert readout.up.tolist() == [curve.rate_at(0.5), curve.rate_at(1.0)]
    assert readout.down.tolist() == [curve.rate_at(-0.5), curve.rate_at(-1.0)]
    assert np.array_equal(readout.balance, readout.up / readout.down)


def test_beta_eff_readout_refuses_rates_under_the_floor():
    # in the vacuum on the orbit R(6) ~ 1e-13 lies under the floor and
    # read 5.03 in place of 2 pi; R(4) stays above it
    orbit = Trajectory.accelerated(1.0)
    curve = response_curve(QuasiFreeState(), orbit, [-6.0, -0.5, 0.5, 6.0])
    assert curve.rate_at(6.0) <= curve.floor < curve.rate_at(0.5)
    with pytest.raises(ResolutionError, match=r"\|E\| = 6 .*floor"):
        BetaEffCurve(curve)
    curve = response_curve(QuasiFreeState(), orbit, [-4.0, -0.5, 0.5, 4.0])
    readout = BetaEffCurve(curve)
    assert readout.beta_eff[-1] == pytest.approx(6.2785, abs=1e-4)
    assert readout.up[-1] > curve.floor


def test_balance_ratio_refuses_rates_under_the_floor():
    # R(6) ~ 1e-13 on the orbit, under the floor; R(+-0.5) are well above
    orbit = Trajectory.accelerated(1.0)
    curve = response_curve(QuasiFreeState(), orbit, [-6.0, -0.5, 0.5, 6.0])
    assert curve.rate_at(6.0) <= curve.floor
    for e in (6.0, -6.0):
        with pytest.raises(ResolutionError, match=r"\|E\| = 6 .*floor"):
            curve.balance_ratio(e)
    assert (curve.balance_ratio(0.5)
            == curve.rate_at(0.5) / curve.rate_at(-0.5))
