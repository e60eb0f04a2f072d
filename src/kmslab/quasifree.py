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
from .oneparticle import (BoostSpec, CauchyData, MomentumFunction,
                          bath_occupation, ground_map)

__all__ = [
    "QuasiFreeState", "CorrelatorSeries", "BalanceReport",
    "weyl_expectation", "two_point", "two_point_series", "weyl_correlator",
    "kms_balance_check", "balance_span_study", "mixing_decay",
    "gaussian_packet", "shell_packet",
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
        self.kind = "vacuum" if beta == math.inf else "kms"

    @property
    def is_vacuum(self):
        return self.kind == "vacuum"

    def __repr__(self):
        return ("QuasiFreeState(beta=%r, mass=%r, frame=%r)"
                % (self.beta, self.mass, self.frame))


class CorrelatorSeries:
    """A complex time series with its provenance attached."""

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

    def save(self, path):
        from .textio import write_csv, write_keyvals
        write_csv(path, "t,re,im",
                  [self.times, self.values.real, self.values.imag])
        write_keyvals(path + ".meta", sorted(self.metadata.items()))


# ---------------------------------------------------------------------------
# internal evaluation helpers

def _as_kappa(state, f):
    """Accept CauchyData (mapped through the ground map) or a ready
    momentum-space vector."""
    if isinstance(f, CauchyData):
        if f.mass != state.mass:
            raise ValidationError("test-function mass differs from state mass")
        return ground_map(f)
    if isinstance(f, MomentumFunction):
        if f.mass != state.mass:
            raise ValidationError("test-function mass differs from state mass")
        return f
    raise ValidationError("expected CauchyData or MomentumFunction")


def _aligned_pair(state, f, g):
    """Bring two kappa-vectors onto one radial point set, returning
    (F, G, wq2) with wq2 the measure weights wtot * q^2."""
    kf = _as_kappa(state, f)
    kg = _as_kappa(state, g) if g is not None else kf
    if state.frame.rapidity != 0.0 and state.mass != 0.0:
        raise ValidationError("boosted frames are supported for the massless field")
    if not kf.same_points(kg):
        raise StructuralError("test vectors must share one momentum point set")
    return kf, kg, kf.wtot * kf.q ** 2


def doubled_gram(state, f, g):
    """<kappa_beta f, kappa_beta g> for the given state."""
    kf, kg, wq2 = _aligned_pair(state, f, g)
    mu = bath_occupation(kf.omega, state.beta, state.frame.rapidity)
    term1 = np.sum(wq2 * (1.0 + mu) * np.conj(kf.values) * kg.values)
    term2 = np.sum(wq2 * mu * kf.values * np.conj(kg.values))
    return complex(term1 + term2)


# ---------------------------------------------------------------------------
# operations

def weyl_expectation(state, f):
    """Expectation of the Weyl operator W(f): exp(-||kappa_beta f||^2 / 2)."""
    val = doubled_gram(state, f, f).real
    return math.exp(-0.5 * val)


def two_point(state, f, g):
    """Two-point function <kappa_beta f, kappa_beta g>."""
    return doubled_gram(state, f, g)


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
    e^{-i omega t}; thermal weights stay at the bath-frame frequency.
    tgrid must be finite, nonempty and evenly spaced; the sum over F
    momentum nodes costs 2 sqrt(N) F exponentials and O(sqrt(N) F) memory
    for N times (see _phase_tables).
    """
    kg, kf, wq2 = _aligned_pair(state, g, f)
    om = kg.omega
    mu = bath_occupation(om, state.beta, state.frame.rapidity)
    a = wq2 * (1.0 + mu) * np.conj(kg.values) * kf.values
    b = wq2 * mu * kg.values * np.conj(kf.values)
    tgrid = np.asarray(tgrid, dtype=float)
    vals = _phase_sum(a, b, om, tgrid)
    return CorrelatorSeries(tgrid, vals, {
        "series": "two_point", "beta": state.beta, "mass": state.mass,
        "frame_rapidity": state.frame.rapidity})


def weyl_correlator(state, f, g, tgrid):
    """omega(W(g) alpha_t W(f)) on the given time grid.

    Equals omega(W(f)) omega(W(g)) exp(-z(t)) with
    z(t) = <kappa_beta g, kappa_beta T_t f>; bounded by 1 in modulus,
    and exactly omega(W(f)) when g = 0. z is summed as in
    two_point_series, on the same kind of evenly spaced tgrid.
    """
    kg, kf, wq2 = _aligned_pair(state, g, f)
    om = kg.omega
    mu = bath_occupation(om, state.beta, state.frame.rapidity)
    a = wq2 * (1.0 + mu) * np.conj(kg.values) * kf.values
    b = wq2 * mu * kg.values * np.conj(kf.values)
    nf = np.sum(wq2 * (1.0 + 2.0 * mu) * np.abs(kf.values) ** 2).real
    ng = np.sum(wq2 * (1.0 + 2.0 * mu) * np.abs(kg.values) ** 2).real
    wf = math.exp(-0.5 * nf)
    wg = math.exp(-0.5 * ng)
    tgrid = np.asarray(tgrid, dtype=float)
    z = _phase_sum(b, a, om, tgrid)
    vals = wf * wg * np.exp(-z)
    meta = {"series": "weyl_correlator", "beta": state.beta,
            "mass": state.mass, "frame_rapidity": state.frame.rapidity,
            "weyl_f": wf, "weyl_g": wg}
    return CorrelatorSeries(tgrid, vals, meta)


class BalanceReport:
    """Result of a Fourier detailed-balance check."""

    def __init__(self, max_err, max_band_err, nu, spectrum_pos, spectrum_neg,
                 residual, t_span, sigma_t, n_t, negative_leakage, beta):
        self.max_err = max_err
        self.max_band_err = max_band_err
        self.nu = nu
        self.spectrum_pos = spectrum_pos
        self.spectrum_neg = spectrum_neg
        self.residual = residual
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


def default_window_width(t_span):
    """Gaussian window width paired with a time span: sqrt(8 * span).

    Scales so the windowing bias falls like 1/span, halving on doubling.
    """
    return math.sqrt(8.0 * t_span)


def kms_balance_check(state, f, g=None, t_span=200.0, sigma_t=None,
                      dt=0.1, nu_grid=None):
    """Windowed Fourier transform of t -> two_point(g, f o T_{-t}) and the
    detailed-balance residual of its two frequency branches.

    Reports max_err = max |W(-nu) - e^{-beta nu} W(nu)| / max |W| over the
    positive frequency grid, and max_band_err, the pointwise relative
    version restricted to the band where |W(nu)| exceeds 1e-4 times the
    peak. For the vacuum the negative-frequency leakage is reported
    instead of a balance ratio.

    The correlator is sampled on the uniform grid of step dt over
    [-t_span/2, t_span/2] (over [0, t_span/2] when g is None, folding
    C(-t) = conj C(t) in). The transform sum_n e^{-+i nu t_n} C_n is
    evaluated at any positive nu_grid from the factor tables of
    _phase_tables: with C reshaped to P x B rows it is sum_p U[p] (C W)[p],
    in O(sqrt(N) (F + len(nu_grid))) memory for N samples and F momentum
    nodes. t_span, dt and sigma_t must be positive and finite, dt < t_span.
    """
    _check_positive("t_span", t_span)
    _check_positive("dt", dt)
    if sigma_t is None:
        sigma_t = default_window_width(t_span)
    _check_positive("sigma_t", sigma_t)
    if t_span < 5.0 * sigma_t:
        raise ResolutionError(
            "time span %.6g cannot hold a window of width %.6g; "
            "need span >= %.6g" % (t_span, sigma_t, 5.0 * sigma_t),
            required_span=5.0 * sigma_t)
    if nu_grid is None:
        nu_grid = np.linspace(0.1, 3.5, 171)
    else:
        nu_grid = np.asarray(nu_grid, dtype=float)
        if (nu_grid.ndim != 1 or nu_grid.size == 0
                or not np.all((nu_grid > 0) & (nu_grid < math.inf))):
            raise ValidationError(
                "nu_grid must be a nonempty 1d array of positive finite "
                "frequencies (both signs are formed internally)")
    half = np.arange(0.0, 0.5 * t_span + 0.5 * dt, dt)
    if half.size < 2:
        raise ValidationError("dt=%r leaves a single sample on the half "
                              "span; need dt < t_span=%r" % (dt, t_span))
    if g is None:
        # C(-t) = conj(C(t)) for equal packets: fold the negative half in,
        # weighting t > 0 twice
        tgrid = half
        series = two_point_series(state, f, f, tgrid)
        fold = np.where(half > 0.0, 2.0, 1.0)
        n_t = 2 * half.size - 1
    else:
        tgrid = np.concatenate([-half[:0:-1], half])
        series = two_point_series(state, g, f, tgrid)
        fold = 1.0
        n_t = tgrid.size
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
    if state.is_vacuum:
        leakage = float(np.max(np.abs(w_neg))) / peak
        residual = np.abs(w_neg) / peak
        return BalanceReport(float(np.max(residual)), leakage, nu_grid,
                             w_pos, w_neg, residual, t_span, sigma_t, n_t,
                             leakage, state.beta)
    expfac = np.exp(-state.beta * nu_grid)
    residual = np.abs(w_neg - expfac * w_pos) / peak
    band = np.abs(w_pos) > _BAND_FLOOR * peak
    if np.any(band):
        rel = np.abs(w_neg[band] / w_pos[band] - expfac[band]) / expfac[band]
        max_band = float(np.max(rel))
    else:
        max_band = math.nan
    leakage = float(np.max(np.abs(w_neg))) / peak
    return BalanceReport(float(np.max(residual)), max_band, nu_grid,
                         w_pos, w_neg, residual, t_span, sigma_t, n_t,
                         leakage, state.beta)


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


def mixing_decay(state, f, g=None, t_max=80.0, n_t=801):
    """|two_point(g, f o T_{-t})| together with the Weyl-correlator
    factorization residual |omega(W(g) alpha_t W(f)) - omega(W(f)) omega(W(g))|.
    """
    _check_positive("t_max", t_max)
    if not (isinstance(n_t, (int, np.integer)) and n_t >= 2):
        raise ValidationError("n_t must be an integer >= 2, got %r" % (n_t,))
    tgrid = np.linspace(0.0, t_max, n_t)
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


def shell_packet(q, w_dq, radius=0.0, width=1.0):
    """Massless Cauchy data of a spherical-shell Gaussian at the given
    radius: f1(q) = j0(q * radius) exp(-q^2 width^2 / 4), f2 = 0.
    """
    q = np.asarray(q, dtype=float)
    prof = np.exp(-0.25 * (q * width) ** 2)
    if radius == 0.0:
        j0 = np.ones_like(q)
    else:
        x = q * radius
        j0 = np.sin(x) / x
    return CauchyData(q, w_dq, j0 * prof, np.zeros_like(q))
