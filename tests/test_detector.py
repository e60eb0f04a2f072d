"""Detector trajectories, pulled-back correlators, response rates."""

import math

import numpy as np
import pytest

from kmslab.errors import (UnsupportedConfigurationError, ValidationError,
                           WindowBiasWarning)
from kmslab.detector import (DetectorSpec, ResponseWindow, Trajectory,
                             effective_temperature_curve, pullback_wightman,
                             response_curve)
from kmslab.oneparticle import BoostSpec
from kmslab.quasifree import QuasiFreeState


# ---------------------------------------------------------------------------
# specs and trajectories

def test_detector_spec_validation():
    assert DetectorSpec(1.0).monopole[0, 1] == 1.0
    with pytest.raises(ValidationError):
        DetectorSpec(-1.0)
    with pytest.raises(ValidationError):
        DetectorSpec(1.0, monopole=np.array([[0.0, 1.0], [2.0, 0.0]]))
    diag = DetectorSpec(1.0, monopole=np.diag([1.0, -1.0]))
    assert np.array_equal(diag.monopole, np.diag([1.0, -1.0]))


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


def test_narrow_window_warns():
    state = QuasiFreeState(beta=1.0)
    with pytest.warns(WindowBiasWarning):
        response_curve(state, Trajectory.rest(), [-1.0, 1.0],
                       window=ResponseWindow(2.0))


def test_curve_serialization(tmp_path):
    state = QuasiFreeState(beta=1.0)
    curve = response_curve(state, Trajectory.rest(), [-1.0, 1.0])
    path = tmp_path / "curve.csv"
    curve.save(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "E,rate"
    assert len(lines) == 3
    assert (tmp_path / "curve.csv.meta").exists()


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
    redone = np.array([-math.log(curve.curve.rate_at(e) / curve.curve.rate_at(-e)) / e
                       for e in energies])
    assert np.max(np.abs(curve.beta_eff - redone)) < 1e-10


def test_beta_eff_rate_vanishes_toward_light_speed():
    state = QuasiFreeState(beta=1.0)
    rates = []
    for v in (0.9, 0.99):
        curve = effective_temperature_curve(state, v, [1.0])
        rates.append(curve.curve.rate_at(1.0))
    assert rates[1] < rates[0]
