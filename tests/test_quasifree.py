"""Quasi-free correlators, detailed balance, and clustering decay."""

import math
import tracemalloc

import numpy as np
import pytest

from kmslab import quasifree
from kmslab.errors import ResolutionError, ValidationError
from kmslab.oneparticle import (BoostSpec, MomentumFunction, default_qgrid,
                                planck_occupation)
from kmslab.quasifree import (QuasiFreeState, gaussian_packet,
                              kms_balance_check, mixing_decay, two_point,
                              two_point_series, weyl_correlator,
                              weyl_expectation)


def _packets(n=1024, beta=1.0):
    q, w = default_qgrid(beta, n=n)
    f = gaussian_packet(q, w)
    g = gaussian_packet(q, w, center=1.3, width=0.8)
    return f, g


def _normalized(state, u):
    return u.copy_with(u.values / math.sqrt(two_point(state, u, u).real))


# ---------------------------------------------------------------------------
# Weyl functional

def test_weyl_expectation_identity_input():
    f, _ = _packets(64)
    state = QuasiFreeState(beta=1.0)
    zero = f.copy_with(np.zeros_like(f.values))
    assert weyl_expectation(state, zero) == 1.0


def test_weyl_expectation_range_and_beta_monotonicity():
    f, _ = _packets(256)
    cold = weyl_expectation(QuasiFreeState(beta=2.0), f)
    hot = weyl_expectation(QuasiFreeState(beta=0.5), f)
    assert 0.0 < hot < cold <= 1.0


def test_weyl_expectation_low_temperature_matches_vacuum():
    f, _ = _packets(256)
    lowt = weyl_expectation(QuasiFreeState(beta=1000.0), f)
    vac = weyl_expectation(QuasiFreeState(), f)
    assert vac > 0
    assert abs(lowt - vac) < 1e-6 * vac


def test_state_validation():
    with pytest.raises(ValidationError):
        QuasiFreeState(beta=-1.0)
    with pytest.raises(ValidationError):
        QuasiFreeState(beta=0.0)


# ---------------------------------------------------------------------------
# two-point function

def test_two_point_diagonal_positive():
    f, _ = _packets(256)
    val = two_point(QuasiFreeState(beta=1.0), f, f)
    assert val.real > 0
    assert abs(val.imag) < 1e-14 * val.real


def test_two_point_gram_positive_semidefinite():
    f, g = _packets(256)
    state = QuasiFreeState(beta=1.0)
    gram = np.array([[two_point(state, f, f), two_point(state, f, g)],
                     [two_point(state, g, f), two_point(state, g, g)]])
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() >= -1e-12 * eig.max()


def test_commutator_is_beta_independent():
    f, g = _packets(256)
    g = g.copy_with(g.values * np.exp(0.7j * g.q))  # complex phase: nonzero commutator
    comms = []
    for beta in (0.5, 1.0, 2.0):
        state = QuasiFreeState(beta=beta)
        comms.append((two_point(state, f, g) - two_point(state, g, f)).imag / 2.0)
    scale = max(abs(c) for c in comms)
    assert scale > 0
    assert max(comms) - min(comms) < 1e-10 * scale


def test_equal_time_separated_shells_decorrelate():
    q, w = default_qgrid(1.0, n=512)
    state = QuasiFreeState(beta=1.0)
    # spherical shells of width 1 at radius 0 and 20: the ground vectors
    # sqrt(q) j0(q r) e^{-q^2/4} / sqrt(2) of Cauchy data (j0(q r) e^{-q^2/4}, 0)
    shell = np.exp(-0.25 * q ** 2) * np.sqrt(q) / math.sqrt(2.0)
    near = MomentumFunction.from_radial(q, w, shell)
    far = MomentumFunction.from_radial(q, w,
                                      np.sin(20.0 * q) / (20.0 * q) * shell)
    cross = abs(two_point(state, near, far))
    norms = math.sqrt(two_point(state, near, near).real
                      * two_point(state, far, far).real)
    assert cross < 1e-3 * norms


# ---------------------------------------------------------------------------
# Weyl correlator

def test_weyl_correlator_zero_left_argument():
    f, _ = _packets(128)
    state = QuasiFreeState(beta=1.0)
    zero = f.copy_with(np.zeros_like(f.values))
    series = weyl_correlator(state, f, zero, [0.0, 1.0])
    expect = weyl_expectation(state, f)
    assert np.allclose(series.values, expect, rtol=1e-13)


def test_weyl_correlator_is_bounded_by_one():
    f, g = _packets(128)
    state = QuasiFreeState(beta=1.0)
    f, g = _normalized(state, f), _normalized(state, g)
    series = weyl_correlator(state, f, g, np.linspace(0.0, 10.0, 31))
    assert np.max(np.abs(series.values)) <= 1.0 + 1e-12


def test_weyl_correlator_product_rule_at_t0():
    f, g = _packets(256)
    state = QuasiFreeState(beta=1.0)
    f, g = _normalized(state, f), _normalized(state, g)
    via_series = complex(weyl_correlator(state, f, g, [0.0]).values[0])
    indep = (np.exp(-two_point(state, g, f))
             * weyl_expectation(state, f) * weyl_expectation(state, g))
    assert abs(via_series - indep) < 1e-12 * abs(indep)


def test_phase_sum_matches_direct_complex_exponentials():
    rng = np.random.default_rng(5)
    freq = rng.uniform(0.0, 6.0, 45)
    a, b = rng.normal(size=(2, 45)) + 1j * rng.normal(size=(2, 45))
    t = np.linspace(-4.0, 7.0, 13)
    terms = np.concatenate([np.exp(-1j * np.outer(freq, t)) * a[:, None],
                            np.exp(1j * np.outer(freq, t)) * b[:, None]])
    got = quasifree._phase_sum(a, b, freq, t)
    err = np.abs(got - np.sum(terms, axis=0))
    assert np.max(err / np.sum(np.abs(terms), axis=0)) < 1e-13


def _mp_phase_sum(mpmath, coef, freq, t):
    """sum_i coef_i e^{-i freq_i t} in 30-digit arithmetic, from the exact
    float values of coef, freq and t."""
    with mpmath.workdps(30):
        tot = mpmath.mpc(0)
        for c, om in zip(coef, freq):
            tot += mpmath.mpc(c.real, c.imag) * mpmath.expj(
                -mpmath.mpf(om) * mpmath.mpf(t))
        return complex(tot)


@pytest.mark.parametrize("coefficients", ["packet", "unit"])
def test_phase_tables_match_mpmath_at_large_phases(coefficients):
    # the default grid's frequencies on the half grid of t_span = 400, where
    # omega t reaches 8 000; the packet's weights underflow to 0 above
    # omega = 20, so "unit" gives every frequency a unit coefficient
    mpmath = pytest.importorskip("mpmath")
    f, _ = _packets()
    half = np.arange(0.0, 200.05, 0.1)
    assert half.size == 2001 and half[-1] * f.omega.max() > 7900.0
    if coefficients == "packet":
        got = two_point_series(QuasiFreeState(beta=1.0), f, f, half).values
        weight = f.wtot * f.q ** 2 * np.abs(f.values) ** 2
        mu = planck_occupation(f.omega, 1.0)
        # C(t) = sum_i weight_i ((1 + mu_i) e^{-i omega_i t} + mu_i e^{i omega_i t})
        a, b = weight * (1.0 + mu), weight * mu
    else:
        a, b = np.exp(2j * np.pi * np.random.default_rng(3).random((2, f.q.size)))
        got = quasifree._phase_sum(a, b, f.omega, half)
    coef, freq = np.concatenate([a, b]), np.concatenate([f.omega, -f.omega])
    keep = coef != 0.0
    coef, freq = coef[keep], freq[keep]
    scale = np.sum(np.abs(coef))
    for n in list(range(0, half.size, 173)) + [half.size - 1]:
        ref = _mp_phase_sum(mpmath, coef, freq, half[n])
        assert abs(got[n] - ref) < 1e-13 * scale, n


def test_balance_transform_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    f, _ = _packets()
    state = QuasiFreeState(beta=1.0)
    report = kms_balance_check(state, f, t_span=400.0)
    dt, half = 0.1, np.arange(0.0, 200.05, 0.1)
    assert report.n_t == 2 * half.size - 1
    fold = np.where(half > 0.0, 2.0, 1.0)
    cg = (fold * two_point_series(state, f, f, half).values
          * np.exp(-half ** 2 / (2.0 * report.sigma_t ** 2)))
    scale = dt * np.sum(np.abs(cg))
    for k in range(0, report.nu.size, 34):
        nu = report.nu[k]
        # sum_n cg_n e^{-+i nu t_n}: the times stand in the frequency slot
        neg = dt * _mp_phase_sum(mpmath, cg, half, nu)
        pos = dt * _mp_phase_sum(mpmath, cg, -half, nu)
        assert abs(report.spectrum_neg[k] - neg.real) < 1e-13 * scale, k
        assert abs(report.spectrum_pos[k] - pos.real) < 1e-13 * scale, k


# ---------------------------------------------------------------------------
# detailed balance

def test_balance_spectra_match_direct_complex_exponentials():
    f, _ = _packets(256)
    state = QuasiFreeState(beta=1.0)
    report = kms_balance_check(state, f, t_span=200.0)
    dt, half = 0.1, np.arange(0.0, 100.05, 0.1)
    assert report.sigma_t == 40.0
    t = np.concatenate([-half[:0:-1], half])
    # the check folds C(-t) = conj(C(t)) in from the half grid
    c = two_point_series(state, f, f, half).values
    c = np.concatenate([np.conj(c[:0:-1]), c])
    cg = c * np.exp(-t ** 2 / (2.0 * report.sigma_t ** 2))
    scale = dt * np.sum(np.abs(cg))
    for sign, got in ((1, report.spectrum_pos), (-1, report.spectrum_neg)):
        direct = dt * np.real(np.exp(sign * 1j * np.outer(report.nu, t)) @ cg)
        assert np.max(np.abs(got - direct)) < 1e-13 * scale

def test_balance_thermal_state():
    f, _ = _packets()
    report = kms_balance_check(QuasiFreeState(beta=1.0), f)
    assert report.max_err < 1e-3
    assert report.max_band_err < 0.05


def test_balance_vacuum_positive_spectrum():
    f, _ = _packets()
    report = kms_balance_check(QuasiFreeState(), f)
    assert report.negative_leakage < 1e-3


def test_balance_boosted_state_violates_lab_frame_balance():
    f, _ = _packets()
    boosted = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5))
    report = kms_balance_check(boosted, f)
    assert report.max_band_err > 0.1


def test_balance_span_too_short_raises_with_hint():
    f, _ = _packets(128)
    with pytest.raises(ResolutionError) as err:
        kms_balance_check(QuasiFreeState(beta=1.0), f, t_span=5.0)
    assert err.value.required_span is not None
    assert err.value.required_span > 5.0


@pytest.mark.parametrize("span", [math.nan, math.inf, 0.0])
def test_balance_and_mixing_need_finite_positive_spans(span):
    f, _ = _packets(64)
    state = QuasiFreeState(beta=1.0)
    with pytest.raises(ValidationError, match="t_span"):
        kms_balance_check(state, f, t_span=span)
    with pytest.raises(ValidationError, match="t_max"):
        mixing_decay(state, f, t_max=span)


@pytest.mark.parametrize("series", [two_point_series, weyl_correlator])
@pytest.mark.parametrize("tgrid", [[], [0.0, math.nan], [0.0, math.inf]],
                         ids=["empty", "nan", "inf"])
def test_series_reject_empty_or_non_finite_times(series, tgrid):
    f, g = _packets(64)
    with pytest.raises(ValidationError, match="tgrid"):
        series(QuasiFreeState(beta=1.0), f, g, tgrid)


def test_series_need_an_evenly_spaced_grid():
    f, g = _packets(64)
    state = QuasiFreeState(beta=1.0)
    with pytest.raises(ValidationError, match="evenly spaced"):
        two_point_series(state, f, g, [0.0, 1.0, 3.0])
    # a linspace grid nudged by one ulp at every point is still accepted
    t = np.linspace(-4.0, 7.0, 13)
    nudged = np.nextafter(t, np.where(np.arange(13) % 2, np.inf, -np.inf))
    ref = two_point_series(state, f, g, t).values
    got = two_point_series(state, f, g, nudged).values
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("run", [
    lambda state, f: kms_balance_check(state, f, t_span=400.0),
    lambda state, f: mixing_decay(state, f),
], ids=["kms_balance_check", "mixing_decay"])
def test_phase_sums_peak_below_4_mb(run):
    # the phase tables hold O(sqrt(N) F) numbers, not an N x F matrix
    f, _ = _packets()
    state = QuasiFreeState(beta=1.0)
    tracemalloc.start()
    try:
        run(state, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# mixing decay

def test_mixing_t0_matches_two_point():
    f, g = _packets(256)
    state = QuasiFreeState(beta=1.0)
    mix = mixing_decay(state, f, g, t_max=5.0)
    assert mix.t0_two_point == pytest.approx(abs(two_point(state, g, f)), rel=1e-12)


def test_mixing_tails_below_threshold():
    f, g = _packets()
    state = QuasiFreeState(beta=1.0)
    f, g = _normalized(state, f), _normalized(state, g)
    mix = mixing_decay(state, f, g)
    frac_two_point, frac_weyl = mix.tail_fraction(50.0)
    assert frac_two_point < 1e-3
    assert frac_weyl < 1e-3


def test_mixing_envelope_decays():
    # block maxima of the tail are non-increasing within a 5% slack
    f, g = _packets()
    state = QuasiFreeState(beta=1.0)
    mix = mixing_decay(state, f, g)
    a = mix.abs_two_point
    start = int(np.searchsorted(mix.times, 2.0))
    usable = (a.size - start) // 20 * 20
    blocks = a[start:start + usable].reshape(-1, 20).max(axis=1)
    assert np.all(np.diff(blocks) <= 0.05 * blocks[:-1])


# ---------------------------------------------------------------------------
# input types

@pytest.mark.parametrize("call", [
    lambda state, f, bad: two_point(state, f, bad),
    lambda state, f, bad: two_point(state, bad, f),
    lambda state, f, bad: two_point_series(state, bad, f, [0.0, 1.0]),
    lambda state, f, bad: kms_balance_check(state, bad),
], ids=["two_point_right", "two_point_left", "two_point_series",
        "kms_balance_check"])
def test_correlators_refuse_a_vector_that_is_not_a_momentum_function(call):
    f, _ = _packets(64)
    state = QuasiFreeState(beta=1.0)
    with pytest.raises(ValidationError,
                       match="expected a MomentumFunction, got ndarray"):
        call(state, f, f.values)
