"""Quasi-free states of the scalar field: Weyl generating functionals,
thermal two-point functions, detailed-balance spectra and mixing decay.

A state is determined by an inverse temperature (infinite for the vacuum),
a mass, and the frame its bath is at rest in. Correlators of test vectors
are evaluated through the doubled inner product

    <f, g>_beta = <kf, (1 + mu) kg> + <kg, mu kf>,

with mu the occupation at each radial momentum node, from
oneparticle.bath_occupation. At rest it is the Planck occupation of the
frequency omega. A massless bath boosted along z sees the Doppler
frequency q * gamma * (1 - v cos theta); the test vectors are radial and
every sum is linear in mu, so mu is the exact average of the
Doppler-shifted occupation over directions.

Time series and their Fourier transforms are phase sums
sum_i a_i e^{-i omega_i t_n} over an evenly spaced time grid t_n = t_0 + n dt
(any linspace or arange grid; other grids raise ValidationError). Writing
n = p B + r with B = ceil(sqrt(N)) splits every phase into two factor tables
of about sqrt(N) rows each (_phase_tables), so N times by F frequencies cost
2 sqrt(N) F exponentials, one complex matrix product of O(N F) flops, and
O(sqrt(N) F) memory: at N = 2001 and F = 1024 about 2.5 MB at the peak.
"""

import math

import numpy as np

from .errors import ResolutionError, StructuralError, ValidationError
from .oneparticle import BoostSpec, MomentumFunction, bath_occupation

__all__ = [
    "QuasiFreeState", "CorrelatorSeries", "BalanceReport",
    "weyl_expectation", "two_point", "two_point_series", "weyl_correlator",
    "kms_balance_check", "balance_span_study", "mixing_decay",
    "gaussian_packet",
]

# kms_balance_check's band: |W(nu)| above this fraction of the peak
_BAND_FLOOR = 1e-4


class QuasiFreeState:
    """A quasi-free reference state: thermal at finite beta, vacuum at
    beta = inf. `frame` is the boost carrying lab momenta to bath-frame
    momenta; the default is the lab frame itself."""

    def __init__(self, beta=math.inf, mass=0.0, frame=None):
        if beta != math.inf and not (isinstance(beta, (int, float)) and beta > 0):
            raise ValidationError("beta must be positive or inf")
        if mass < 0:
            raise ValidationError("mass must be >= 0")
        self.beta = float(beta)
        self.mass = float(mass)
        self.frame = frame if frame is not None else BoostSpec(0.0)

    @property
    def is_vacuum(self):
        return self.beta == math.inf

    def __repr__(self):
        return ("QuasiFreeState(beta=%r, mass=%r, frame=%r)"
                % (self.beta, self.mass, self.frame))


class CorrelatorSeries:
    """A complex time series with the metadata its consumers read."""

    def __init__(self, times, values, metadata=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValidationError("times and values must be equal-length 1d arrays")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        self.times = times
        self.values = values
        self.metadata = dict(metadata or {})


# ---------------------------------------------------------------------------
# internal evaluation helpers

def _as_kappa(state, f):
    """A momentum-space vector of the state's mass, else ValidationError."""
    if not isinstance(f, MomentumFunction):
        raise ValidationError("expected a MomentumFunction, got %s"
                              % type(f).__name__)
    if f.mass != state.mass:
        raise ValidationError("test-function mass differs from state mass")
    return f


def _branch_weights(state, f, g):
    """Two kappa-vectors on one radial point set and their branch weights
    (F, G, w_pos, w_neg): w_pos = wtot q^2 (1 + mu), w_neg = wtot q^2 mu."""
    kf = _as_kappa(state, f)
    kg = _as_kappa(state, g)
    if state.frame.rapidity != 0.0 and state.mass != 0.0:
        raise ValidationError("boosted frames are supported for the massless field")
    if not kf.same_points(kg):
        raise StructuralError("test vectors must share one momentum point set")
    wq2 = kf.wtot * kf.q ** 2
    mu = bath_occupation(kf.omega, state.beta, state.frame.rapidity)
    return kf, kg, wq2 * (1.0 + mu), wq2 * mu


# ---------------------------------------------------------------------------
# operations

def weyl_expectation(state, f):
    """Expectation of the Weyl operator W(f): exp(-||kappa_beta f||^2 / 2)."""
    val = two_point(state, f, f).real
    return math.exp(-0.5 * val)


def two_point(state, f, g):
    """<kappa_beta f, kappa_beta g> = sum w_pos conj(f) g + w_neg f conj(g),
    with the weights of _branch_weights."""
    kf, kg, w_pos, w_neg = _branch_weights(state, f, g)
    return complex(np.sum(w_pos * np.conj(kf.values) * kg.values)
                   + np.sum(w_neg * kf.values * np.conj(kg.values)))


def _phase_tables(freq, tgrid):
    """Factor tables of e^{-i freq t} on an evenly spaced time grid.

    With t_n = t_0 + n dt and n = p B + r, B = ceil(sqrt(N)), each phase
    factors as e^{-i freq t_n} = U[p] W[r]:

        U[p] = e^{-i freq t_{pB}}   (P x F, P = ceil(N / B)),
        W[r] = e^{-i freq r dt}     (B x F),

    (P + B) F exponentials in place of N F, and memory of the same order
    (the baby-step/giant-step split of Paterson and Stockmeyer, SIAM J.
    Comput. 2 (1973) 60). The grid must be finite, nonempty and within
    4 eps max|t| of t_0 + n dt, which every linspace or arange grid is.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.size == 0 or not np.all(np.isfinite(tgrid)):
        raise ValidationError("tgrid must be a nonempty 1d array of finite times")
    n = tgrid.size
    dt = (tgrid[-1] - tgrid[0]) / (n - 1) if n > 1 else 0.0
    drift = np.max(np.abs(tgrid - (tgrid[0] + np.arange(n) * dt)))
    if drift > 4.0 * np.finfo(float).eps * np.max(np.abs(tgrid)):
        raise ValidationError("tgrid must be evenly spaced; it is %.3g off "
                              "the line t_0 + n dt" % drift)
    step = math.isqrt(n - 1) + 1
    return (np.exp(-1j * (tgrid[::step, None] * freq)),
            np.exp(-1j * ((np.arange(step) * dt)[:, None] * freq)))


def _phase_sum(a, b, freq, tgrid):
    """sum_i a_i e^{-i freq_i t} + b_i e^{+i freq_i t} on an evenly spaced
    tgrid, as (U o a) W^T + conj((U o conj b) W^T) from _phase_tables,
    reshaped from P x B to the N grid points.
    """
    u, w = _phase_tables(freq, tgrid)
    x = u * a
    s = x @ w.T
    s += np.conj(np.multiply(u, np.conj(b), out=x) @ w.T)
    return s.ravel()[:np.size(tgrid)]


def two_point_series(state, g, f, tgrid):
    """C(t) = two_point(g, f translated backwards in lab time by t).

    The lab time translation multiplies the momentum amplitude by
    e^{-i omega t}; the weights of _branch_weights stay at the bath-frame
    frequency. tgrid must be finite, nonempty and evenly spaced; the sum
    over F momentum nodes costs 2 sqrt(N) F exponentials and O(sqrt(N) F)
    memory for N times (see _phase_tables).
    """
    kg, kf, w_pos, w_neg = _branch_weights(state, g, f)
    a = w_pos * np.conj(kg.values) * kf.values
    b = w_neg * kg.values * np.conj(kf.values)
    return CorrelatorSeries(tgrid, _phase_sum(a, b, kg.omega, tgrid))


def weyl_correlator(state, f, g, tgrid):
    """omega(W(g) alpha_t W(f)) on the given time grid.

    Equals omega(W(f)) omega(W(g)) exp(-z(t)) with
    z(t) = <kappa_beta g, kappa_beta T_t f>; bounded by 1 in modulus,
    and exactly omega(W(f)) when g = 0. z is summed as in
    two_point_series, on the same kind of evenly spaced tgrid; the norms
    in omega(W(f)) and omega(W(g)) weigh each node by w_pos + w_neg.
    """
    kg, kf, w_pos, w_neg = _branch_weights(state, g, f)
    a = w_pos * np.conj(kg.values) * kf.values
    b = w_neg * kg.values * np.conj(kf.values)
    w_sum = w_pos + w_neg
    wf = math.exp(-0.5 * np.sum(w_sum * np.abs(kf.values) ** 2).real)
    wg = math.exp(-0.5 * np.sum(w_sum * np.abs(kg.values) ** 2).real)
    vals = wf * wg * np.exp(-_phase_sum(b, a, kg.omega, tgrid))
    return CorrelatorSeries(tgrid, vals, {"weyl_f": wf, "weyl_g": wg})


class BalanceReport:
    """Result of a Fourier detailed-balance check."""

    def __init__(self, max_err, max_band_err, nu, spectrum_pos, spectrum_neg,
                 t_span, sigma_t, n_t, negative_leakage, beta):
        self.max_err = max_err
        self.max_band_err = max_band_err
        self.nu = nu
        self.spectrum_pos = spectrum_pos
        self.spectrum_neg = spectrum_neg
        self.t_span = t_span
        self.sigma_t = sigma_t
        self.n_t = n_t
        self.negative_leakage = negative_leakage
        self.beta = beta

    def text_pairs(self):
        pairs = [("max_err", float(self.max_err)),
                 ("max_band_err", float(self.max_band_err)),
                 ("negative_leakage", float(self.negative_leakage)),
                 ("t_span", float(self.t_span)),
                 ("sigma_t", float(self.sigma_t)),
                 ("n_t", str(self.n_t)),
                 ("beta", "inf" if self.beta == math.inf else float(self.beta)),
                 ("nu_min", float(self.nu[0])),
                 ("nu_max", float(self.nu[-1])),
                 ("nu_points", str(self.nu.size))]
        return pairs


def _check_positive(name, value):
    if not 0.0 < value < math.inf:
        raise ValidationError("%s must be positive and finite, got %r"
                              % (name, value))


def kms_balance_check(state, f, t_span=200.0):
    """Windowed Fourier transform of t -> two_point(f, f o T_{-t}) and the
    detailed-balance residual of its two frequency branches.

    Reports max_err = max |W(-nu) - e^{-beta nu} W(nu)| / max |W| over 171
    frequencies nu in [0.1, 3.5], and max_band_err, the pointwise relative
    version restricted to the band where |W(nu)| exceeds 1e-4 times the
    peak. For the vacuum the negative-frequency leakage is reported
    instead of a balance ratio.

    The correlator is sampled on the uniform grid of step dt = 0.1 over
    [0, t_span/2], folding C(-t) = conj C(t) in, under a Gaussian window
    of width sqrt(8 t_span), so the windowing bias falls like 1/t_span.
    A span below 200 cannot hold five window widths and raises
    ResolutionError. The transform sum_n e^{-+i nu t_n} C_n is evaluated
    from the factor tables of _phase_tables: with C reshaped to P x B rows
    it is sum_p U[p] (C W)[p], in O(sqrt(N) F) memory for N samples and F
    momentum nodes.
    """
    _check_positive("t_span", t_span)
    dt = 0.1
    sigma_t = math.sqrt(8.0 * t_span)
    if t_span < 5.0 * sigma_t:
        raise ResolutionError(
            "time span %.6g cannot hold a window of width %.6g; "
            "need span >= %.6g" % (t_span, sigma_t, 5.0 * sigma_t),
            required_span=5.0 * sigma_t)
    nu_grid = np.linspace(0.1, 3.5, 171)
    # C(-t) = conj(C(t)): fold the negative half in, weighting t > 0 twice
    tgrid = np.arange(0.0, 0.5 * t_span + 0.5 * dt, dt)
    series = two_point_series(state, f, f, tgrid)
    fold = np.where(tgrid > 0.0, 2.0, 1.0)
    n_t = 2 * tgrid.size - 1
    cg = fold * series.values * np.exp(-tgrid ** 2 / (2.0 * sigma_t ** 2))
    # w_neg, w_pos = dt Re sum_n e^{-+i nu t_n} cg_n. With cg zero-padded to
    # a P x B matrix C (n = pB + r), sum_n e^{-i nu t_n} cg_n is
    # sum_p U[p] (C W)[p]; the + sign has the real part of that sum on conj C.
    u, w = _phase_tables(nu_grid, tgrid)
    p = u.shape[0]
    c = np.pad(cg, (0, p * w.shape[0] - cg.size)).reshape(p, -1)
    cw = np.concatenate([c, np.conj(c)]) @ w
    w_neg = dt * np.sum(u * cw[:p], axis=0).real
    w_pos = dt * np.sum(u * cw[p:], axis=0).real
    peak = float(np.max(np.abs(w_pos)))
    if peak == 0.0:
        raise ValidationError("spectrum vanishes on the requested nu grid")
    leakage = float(np.max(np.abs(w_neg))) / peak
    if state.is_vacuum:
        max_err = leakage
        max_band = leakage
    else:
        expfac = np.exp(-state.beta * nu_grid)
        max_err = float(np.max(np.abs(w_neg - expfac * w_pos))) / peak
        band = np.abs(w_pos) > _BAND_FLOOR * peak
        max_band = math.nan
        if np.any(band):
            rel = (np.abs(w_neg[band] / w_pos[band] - expfac[band])
                   / expfac[band])
            max_band = float(np.max(rel))
    return BalanceReport(max_err, max_band, nu_grid, w_pos, w_neg, t_span,
                         sigma_t, n_t, leakage, state.beta)


def balance_span_study(state, f, spans=(200.0, 400.0, 800.0)):
    """Balance residuals over doubling spans plus the fitted decay order.

    Returns (residuals, order) where order is the mean of
    log2(r_i / r_{i+1}) over consecutive span doublings.
    """
    spans = list(spans)
    res = [kms_balance_check(state, f, t_span=s).max_err for s in spans]
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    return res, (sum(orders) / len(orders) if orders else math.nan)


class MixingReport:
    def __init__(self, times, abs_two_point, weyl_residual, t0_two_point,
                 t0_weyl_residual):
        self.times = times
        self.abs_two_point = abs_two_point
        self.weyl_residual = weyl_residual
        self.t0_two_point = t0_two_point
        self.t0_weyl_residual = t0_weyl_residual

    def tail_fraction(self, t_from):
        """sup_{t >= t_from} of both series, relative to their t=0 values."""
        sel = self.times >= t_from
        if not np.any(sel):
            raise ValidationError("t_from beyond the computed series")
        f1 = float(np.max(self.abs_two_point[sel])) / self.t0_two_point
        f2 = float(np.max(self.weyl_residual[sel])) / self.t0_weyl_residual
        return f1, f2


def mixing_decay(state, f, g=None, t_max=80.0):
    """|two_point(g, f o T_{-t})| together with the Weyl-correlator
    factorization residual |omega(W(g) alpha_t W(f)) - omega(W(f)) omega(W(g))|,
    at 801 times evenly spaced over [0, t_max].
    """
    _check_positive("t_max", t_max)
    tgrid = np.linspace(0.0, t_max, 801)
    gg = f if g is None else g
    tp = two_point_series(state, gg, f, tgrid)
    wc = weyl_correlator(state, f, gg, tgrid)
    prod = wc.metadata["weyl_f"] * wc.metadata["weyl_g"]
    resid = np.abs(wc.values - prod)
    abs_tp = np.abs(tp.values)
    if abs_tp[0] == 0.0 or resid[0] == 0.0:
        raise ValidationError("degenerate packets: vanishing t=0 correlator")
    return MixingReport(tgrid, abs_tp, resid, float(abs_tp[0]), float(resid[0]))


# ---------------------------------------------------------------------------
# packet builders

def gaussian_packet(q, w_dq, center=1.0, width=1.0, mass=0.0):
    """Smooth momentum packet sqrt(q) exp(-((q-center)/width)^2) as a
    ready one-particle vector."""
    q = np.asarray(q, dtype=float)
    vals = np.sqrt(q) * np.exp(-(((q - center) / width) ** 2))
    return MomentumFunction.from_radial(q, w_dq, vals, mass)
