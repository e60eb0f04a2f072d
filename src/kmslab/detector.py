"""Two-level detector response along stationary worldlines.

The pulled-back correlation W(tau) of the massless field is evaluated in
closed form: from the worldline separation in the vacuum, on the rest and
inertial worldlines through a bath at rest, and on the hyperbolic orbit.
Only a coupling profile |u(q)|^2 needs the mode integral over radial
momenta, done by panelled Gauss-Legendre quadrature that tracks the
oscillation rate of the worldline phases. Windowed transition rates

    R(E) = int dtau e^{-i E tau} G(tau) W(tau),  G Gaussian,

come from a graded proper-time mesh refined near the coincidence
singularity at the regulator scale. Excitation corresponds to E > 0,
de-excitation to E < 0, and the quotient R(E)/R(-E) is the detailed
balance diagnostic: e^{-beta E} exactly when the response is thermal.
"""

import math

import numpy as np

from .errors import (ResolutionError, UnsupportedConfigurationError,
                     ValidationError)
from .oneparticle import BoostSpec, bath_occupation, gl_panels
from .quasifree import QuasiFreeState

FOUR_PI2 = 4.0 * math.pi ** 2

# each proper-time panel spans at most this phase of the fastest energy
_PANEL_PHASE = 36.0
# the most such panels one window may take: the count grows as the window
# length times the largest energy, without bound as emin -> 0
_MAX_TAU_PANELS = 2 ** 16

__all__ = [
    "Trajectory", "CouplingProfile", "ResponseWindow", "ResponseCurve",
    "BetaEffCurve", "BoostInvarianceReport", "pullback_wightman",
    "response_curve", "effective_temperature_curve", "boost_invariance_check",
]


class Trajectory:
    """Stationary worldline in proper-time parametrization."""

    def __init__(self, kind, v=0.0, accel=0.0):
        if kind not in ("rest", "inertial", "accelerated"):
            raise ValidationError("unknown trajectory kind %r" % (kind,))
        if kind == "inertial" and not abs(v) < 1:
            raise ValidationError("inertial velocity must satisfy |v| < 1")
        if kind == "accelerated" and not accel > 0:
            raise ValidationError("proper acceleration must be positive")
        self.kind = kind
        self.v = float(v)
        self.accel = float(accel)

    @classmethod
    def rest(cls):
        return cls("rest")

    @classmethod
    def inertial(cls, v):
        return cls("inertial", v=v)

    @classmethod
    def accelerated(cls, accel):
        return cls("accelerated", accel=accel)

    @property
    def gamma(self):
        if self.kind == "inertial":
            return 1.0 / math.sqrt(1.0 - self.v ** 2)
        return 1.0

    def position(self, tau):
        """(t, x) coordinates at proper time tau (motion along one axis)."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "rest":
            return tau, np.zeros_like(tau)
        if self.kind == "inertial":
            return self.gamma * tau, self.gamma * self.v * tau
        a = self.accel
        return np.sinh(a * tau) / a, np.cosh(a * tau) / a

    def __repr__(self):
        if self.kind == "inertial":
            return "Trajectory.inertial(%r)" % (self.v,)
        if self.kind == "accelerated":
            return "Trajectory.accelerated(%r)" % (self.accel,)
        return "Trajectory.rest()"


class CouplingProfile:
    """Momentum weighting |u(q)|^2 inserted into the mode measure, with an
    explicit decay horizon so quadrature panels can be placed."""

    def __init__(self, fn, q_max):
        if not q_max > 0:
            raise ValidationError("coupling horizon q_max must be positive")
        self.fn = fn
        self.q_max = float(q_max)

    def __call__(self, q):
        return np.abs(np.asarray(self.fn(q), dtype=complex)) ** 2


def _min_timescale(state, traj, energies=None):
    scales = [1.0]
    if not state.is_vacuum:
        scales.append(state.beta)
        if traj.kind == "inertial":
            scales.append(state.beta * (1.0 - abs(traj.v)))
    if traj.kind == "accelerated":
        scales.append(1.0 / traj.accel)
    if energies is not None:
        emax = max(abs(e) for e in energies)
        if emax > 0:
            scales.append(1.0 / emax)
    return min(scales)


def _resolve_configuration(state, traj):
    """Fold a moving bath into an equivalent worldline over a bath at
    rest. Returns (state', traj') with state'.frame trivial.

    Every correlation here is that of the massless field, so a massive
    state is rejected."""
    if state.mass != 0.0:
        raise ValidationError(
            "detector correlations are massless only; got mass=%r"
            % (state.mass,))
    if state.is_vacuum:
        if state.frame.rapidity != 0.0:
            state = QuasiFreeState()
        return state, traj
    if traj.kind == "accelerated":
        raise UnsupportedConfigurationError(
            "acceleration through a thermal bath is not stationary; "
            "only the vacuum supports the accelerated worldline")
    if state.frame.rapidity == 0.0:
        return state, traj
    vb = state.frame.v_rel
    vd = traj.v if traj.kind == "inertial" else 0.0
    v_rel = (vd - vb) / (1.0 - vd * vb)
    rest_state = QuasiFreeState(state.beta)
    if v_rel == 0.0:
        return rest_state, Trajectory.rest()
    return rest_state, Trajectory.inertial(v_rel)


# ---------------------------------------------------------------------------
# quadrature meshes

def _graded_tau_mesh(eps, tau_max, osc_rate):
    """Gauss-Legendre panels on [0, tau_max], geometrically grown from the
    regulator scale, with widths capped so each 32-node panel resolves the
    requested oscillation rate."""
    width_cap = _PANEL_PHASE / (osc_rate + 1.0)
    edges = [0.0]
    width = 2.0 * eps
    while edges[-1] < tau_max:
        width = min(width, width_cap)
        edges.append(min(edges[-1] + width, tau_max))
        width *= 3.5
    return gl_panels(edges, 32)


def _qmesh(edges, phase_rate):
    """Momentum panels on the given edges, node counts tied to the largest
    worldline phase q*(t+r) encountered."""
    counts = [max(48, int(0.65 * (b - a) * phase_rate) + 12)
              for a, b in zip(edges[:-1], edges[1:])]
    return gl_panels(edges, counts)


# ---------------------------------------------------------------------------
# correlation evaluation

def _mode_sum(q, wq, a_coef, b_coef, t_lab, r_lab, eps, chunk=256):
    """(1/4pi^2) sum_q wq [a e^{-iq(t-i eps)} + b e^{+iq(t-i eps)}] sinc(q r).

    Real arithmetic, one cosine and one sine per (node, time): the sum is
    (even cos(qt) - i odd sin(qt)) sinc(qr) / 4pi^2 with
    even, odd = wq (a e^{-q eps} +- b e^{q eps}); the sinc factor is
    skipped when r vanishes throughout (the rest worldline).
    """
    damp = np.exp(-q * eps)
    down = a_coef * damp
    up = b_coef / damp
    even = wq * (down + up)
    odd = wq * (down - up)
    moving = np.any(r_lab != 0.0)
    re = np.zeros(t_lab.size)
    im = np.zeros(t_lab.size)
    for i0 in range(0, q.size, chunk):
        sl = slice(i0, i0 + chunk)
        arg = np.outer(q[sl], t_lab)
        cos = np.cos(arg)
        sin = np.sin(arg, out=arg)
        if moving:
            sinc = np.sinc(np.outer(q[sl], r_lab) / math.pi)
            cos *= sinc
            sin *= sinc
        re += even[sl] @ cos
        im -= odd[sl] @ sin
    return (re + 1j * im) / FOUR_PI2


def _interval_correlation(dt, dx, eps):
    """Occupation-free correlation from the worldline separation.

    Factored as the product of two reciprocals so that the enormous
    separations reached far along the hyperbolic orbit underflow to zero
    instead of overflowing.
    """
    lightcone_a = (dt - 1j * eps) - dx
    lightcone_b = (dt - 1j * eps) + dx
    return (-1.0 / FOUR_PI2) * (1.0 / lightcone_a) * (1.0 / lightcone_b)


def _thermal_correlation(beta, dt, dx, eps):
    """Correlation in a bath at rest at inverse temperature beta, from the
    worldline separation, in closed form.

    With k = pi/beta, z = dt - i eps and r = |dx| <= |dt|,

        W = -sinhc(2kr) / (4 beta^2 sinh(k(z+r)) sinh(k(z-r))),

    sinhc(x) = sinh(x)/x (Gradshteyn & Ryzhik 3.911.2; Costa & Matsas,
    Phys. Rev. D 52 (1995) 3466). It reduces to the vacuum correlation as
    beta -> oo and to -1/(4 beta^2 sinh^2(kz)) at rest. Each hyperbolic
    factor is written through e^{-2k(z+-r)} at |dt|, so nothing overflows
    however long the window, and W(-dt) = conj W(dt) because W is even in
    z and real-analytic.
    """
    k = math.pi / beta
    r = np.abs(dx)
    s = 4.0 * k * r
    u = 2.0 * k * (np.abs(dt) - r - 1j * eps)
    sinhc = np.ones_like(s)
    np.divide(-np.expm1(-s), s, out=sinhc, where=s > 0.0)
    w = -np.exp(-u) * sinhc / (beta ** 2 * np.expm1(-u - s) * np.expm1(-u))
    return np.where(dt < 0.0, np.conj(w), w)


def _accelerated_separation(traj, tau, boost=None):
    """Midpoint-symmetric pair separation on the hyperbolic orbit,
    optionally after a literal coordinate boost of both points."""
    t1, x1 = traj.position(0.5 * tau)
    t2, x2 = traj.position(-0.5 * tau)
    if boost is not None and boost.rapidity != 0.0:
        g, v = boost.gamma, boost.v_rel
        t1, x1 = g * (t1 - v * x1), g * (x1 - v * t1)
        t2, x2 = g * (t2 - v * x2), g * (x2 - v * t2)
    return t1 - t2, x1 - x2


def _wightman_values(state, traj, tau, eps, coupling=None, boost=None):
    """W on an array of proper-time separations; configuration already
    reduced to a rest-frame bath.

    Closed form from the lab separation except with a coupling profile,
    which weights the modes and so takes the momentum quadrature."""
    tau = np.asarray(tau, dtype=float)
    if traj.kind == "accelerated":
        if coupling is not None:
            raise UnsupportedConfigurationError(
                "coupling profiles are not defined on the hyperbolic orbit")
        dt, dx = _accelerated_separation(traj, tau, boost)
        return _interval_correlation(dt, dx, eps)
    if boost is not None and boost.rapidity != 0.0:
        raise UnsupportedConfigurationError(
            "coordinate boosts apply to the hyperbolic orbit only")
    gamma = traj.gamma
    v = traj.v if traj.kind == "inertial" else 0.0
    t_lab = gamma * tau
    r_lab = gamma * v * tau
    if coupling is not None:
        phase_rate = gamma * (1.0 + abs(v)) * float(np.max(np.abs(tau)))
        q, wq = _qmesh(np.linspace(0.0, coupling.q_max, 5), phase_rate)
        cpl = coupling(q)
        mu = bath_occupation(q, state.beta)
        a_coef = q * cpl * (1.0 + mu)
        b_coef = q * cpl * mu
        return _mode_sum(q, wq, a_coef, b_coef, t_lab, r_lab, eps)
    if state.is_vacuum:
        return _interval_correlation(t_lab, r_lab, eps)
    return _thermal_correlation(state.beta, t_lab, r_lab, eps)


def pullback_wightman(state, traj, tau, eps=None):
    """Massless field correlation W(tau - i eps) along the worldline in
    the given state, in closed form.

    Stationarity is required: a thermal bath combined with the hyperbolic
    orbit is rejected, and so is a state of nonzero mass. A bath moving
    relative to the lab is folded into an equivalent worldline velocity
    first. The regulator defaults to 1e-3 times the shortest timescale of
    the configuration.
    """
    state, traj = _resolve_configuration(state, traj)
    if eps is None:
        eps = 1e-3 * _min_timescale(state, traj)
    if not eps > 0:
        raise ValidationError("regulator eps must be positive")
    scalar = np.isscalar(tau) or np.ndim(tau) == 0
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    vals = _wightman_values(state, traj, tau_arr, eps)
    return complex(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# windowed rates

class ResponseWindow:
    """Gaussian smearing G(tau) = exp(-tau^2 / 2 sigma^2), truncated at
    tau_max = 4 sigma."""

    def __init__(self, sigma_tau):
        # an infinite truncation would never end the tau mesh
        if not 0 < 4.0 * sigma_tau < math.inf:
            raise ValidationError(
                "window width must be positive and its truncation finite, "
                "got %r" % (sigma_tau,))
        self.sigma_tau = float(sigma_tau)
        self.tau_max = 4.0 * self.sigma_tau

    def __call__(self, tau):
        return np.exp(-np.asarray(tau) ** 2 / (2.0 * self.sigma_tau ** 2))

    @classmethod
    def for_energies(cls, energies):
        emin = min(abs(e) for e in energies)
        if emin == 0:
            raise ValidationError("energies must be nonzero")
        return cls(20.0 / emin)


class ResponseCurve:
    """Windowed transition rates over an energy grid."""

    def __init__(self, energies, rates, window, eps, floor):
        self.energies = np.asarray(energies, dtype=float)
        self.rates = np.asarray(rates, dtype=float)
        self.window = window
        self.eps = float(eps)
        self.floor = float(floor)

    def rate_at(self, e):
        idx = np.nonzero(np.abs(self.energies - e) < 1e-12)[0]
        if idx.size == 0:
            raise ValidationError("energy %r not on the computed grid" % (e,))
        return float(self.rates[idx[0]])

    def _resolved_pairs(self, energies):
        """R(E) and R(-E) at each E of energies, as two arrays.

        A rate at or below the floor carries no digits, so such an energy
        is refused with a ResolutionError naming each |E|.
        """
        energies = np.asarray(energies, dtype=float)
        up = np.array([self.rate_at(e) for e in energies])
        down = np.array([self.rate_at(-e) for e in energies])
        low = (up <= self.floor) | (down <= self.floor)
        if np.any(low):
            raise ResolutionError(
                "rate at |E| = %s is at or below the window floor %.3g; "
                "cannot form a balance readout"
                % (", ".join("%g" % abs(e) for e in energies[low]),
                   self.floor))
        return up, down

    def balance_ratio(self, e):
        """R(e)/R(-e), refused as in _resolved_pairs."""
        (up,), (down,) = self._resolved_pairs([e])
        return float(up / down)


def _rate_values(state, traj, energies, window, eps, coupling, boost):
    emax = max(abs(e) for e in energies)
    tau, wt = _graded_tau_mesh(eps, window.tau_max, emax)
    wvals = _wightman_values(state, traj, tau, eps, coupling, boost)
    g = window(tau) * wt * wvals
    # 2 Re sum_tau e^{-iE tau} g(tau), from one cosine and one sine
    arg = np.outer(np.asarray(energies, float), tau)
    rates = 2.0 * (np.cos(arg) @ g.real + np.sin(arg) @ g.imag)
    # leftover tail of the truncated window, used as the reported floor
    tail = (abs(wvals[-1]) * window(window.tau_max)
            * window.sigma_tau * math.sqrt(2.0 * math.pi))
    floor = tail + 64.0 * np.finfo(float).eps * float(np.sum(np.abs(g)))
    return rates, floor


def response_curve(state, traj, energies, coupling=None, boost=None):
    """Windowed rates R(E) over the energy grid, one shared window of
    width 20/min|E|."""
    energies = [float(e) for e in energies]
    if not energies:
        raise ValidationError("no energies requested")
    state_r, traj_r = _resolve_configuration(state, traj)
    window = ResponseWindow.for_energies(energies)
    eps = 1e-3 * _min_timescale(state_r, traj_r, energies)
    emin = min(abs(e) for e in energies)
    emax = max(abs(e) for e in energies)
    panels = window.tau_max * (emax + 1.0) / _PANEL_PHASE
    if panels > _MAX_TAU_PANELS:
        raise ValidationError(
            "a window of width %.6g (truncated at %.6g) needs about %.3g "
            "proper-time panels for energies %.6g to %.6g, more than %d; "
            "narrow the energy range"
            % (window.sigma_tau, window.tau_max, panels, emin, emax,
               _MAX_TAU_PANELS))
    rates, floor = _rate_values(state_r, traj_r, energies, window, eps,
                                coupling, boost)
    return ResponseCurve(energies, rates, window, eps, floor)


def _signed_energies(energies):
    """The grid -|E| ... +|E| over the distinct nonzero magnitudes."""
    mags = sorted({float(abs(e)) for e in energies})
    if not mags or mags[0] == 0.0:
        raise ValidationError("energies must be nonzero")
    return [-e for e in mags[::-1]] + mags


class BetaEffCurve:
    """Detailed-balance readout of a response curve at its positive
    energies: up = R(E), down = R(-E), balance = up/down and
    beta_eff = -ln(balance)/E.

    A rate at or below the curve's floor carries no digits, so such an
    energy is refused with a ResolutionError (see
    ResponseCurve._resolved_pairs).
    """

    def __init__(self, curve):
        energies = np.sort(curve.energies[curve.energies > 0])
        up, down = curve._resolved_pairs(energies)
        self.energies = energies
        self.up = up
        self.down = down
        self.balance = up / down
        self.beta_eff = -np.log(self.balance) / energies

    @property
    def spread(self):
        return float(np.max(self.beta_eff) - np.min(self.beta_eff))


def effective_temperature_curve(state, v, energies):
    """beta_eff(E) for a lab-rest detector reading a bath that is KMS in a
    frame moving at velocity v relative to the frame of `state`."""
    if state.is_vacuum:
        raise ValidationError("effective temperature needs a thermal state")
    if not abs(v) < 1:
        raise ValidationError("|v| must be < 1")
    bath = QuasiFreeState(state.beta, state.mass, frame=BoostSpec(
        state.frame.rapidity + math.atanh(v)))
    curve = response_curve(bath, Trajectory.rest(), _signed_energies(energies))
    return BetaEffCurve(curve)


class BoostInvarianceReport:
    """Balance ratios along the hyperbolic orbit, per boost rapidity."""

    def __init__(self, energies, etas, ratios, target):
        self.energies = np.asarray(energies, dtype=float)
        self.etas = list(etas)
        self.ratios = ratios          # {eta: array over energies}
        self.target = np.asarray(target, dtype=float)

    def max_target_deviation(self, eta):
        r = self.ratios[eta]
        return float(np.max(np.abs(r / self.target - 1.0)))

    def max_cross_deviation(self):
        base = self.ratios[self.etas[0]]
        worst = 0.0
        for eta in self.etas[1:]:
            worst = max(worst, float(np.max(np.abs(self.ratios[eta] / base - 1.0))))
        return worst


def boost_invariance_check(accel, energies, etas=(0.0, 1.0)):
    """Vacuum balance ratios on the hyperbolic orbit, recomputed after
    boosting the orbit coordinates by each rapidity; the ratio must stay
    at exp(-2 pi E / a) throughout."""
    traj = Trajectory.accelerated(accel)
    vac = QuasiFreeState()
    grid = _signed_energies(energies)
    energies = np.asarray(grid[len(grid) // 2:])
    ratios = {}
    for eta in etas:
        ratios[eta] = BetaEffCurve(response_curve(
            vac, traj, grid, boost=BoostSpec(eta))).balance
    target = np.exp(-2.0 * math.pi * energies / accel)
    return BoostInvarianceReport(energies, list(etas), ratios, target)
