"""One-particle structures for the free massless (or massive) scalar field
at finite temperature.

Conventions used throughout the package:

* Momentum-space vectors u(q) are rotationally symmetric and stored with
  respect to the measure q^2 dq dOmega, so ||u||^2 = 4*pi * sum_i w_i
  q_i^2 |u_i|^2 (w_i are plain dq quadrature weights).
* Frequency-space ("doubled") vectors f(s) live on a grid of positive and
  negative frequencies with ||f||^2 = 4*pi * sum_j w_j |f(s_j)|^2.
* Geometric grids carry uniform-log-step trapezoid weights. For analytic
  integrands that decay at both grid ends this rule is spectrally accurate
  (all Euler-Maclaurin boundary corrections vanish), which the refinement
  tests rely on.
"""

import cmath
import math

import numpy as np

from .errors import StructuralError, ValidationError

FOUR_PI = 4.0 * math.pi
# relative tolerance at which two quadrature grids count as the same
_GRID_RTOL = 1e-12


# ---------------------------------------------------------------------------
# grids and quadrature

def geometric_grid(xmin, xmax, n):
    """Geometrically spaced nodes with log-trapezoid weights.

    Returns (x, w) with x strictly increasing in [xmin, xmax] and weights
    such that sum w_i f(x_i) approximates the integral of f dx. The rule is
    the uniform trapezoid rule in u = ln x with Jacobian x included in w.
    """
    if not (0 < xmin < xmax):
        raise ValidationError("geometric grid needs 0 < xmin < xmax")
    if n < 2:
        raise ValidationError("geometric grid needs n >= 2")
    u = np.linspace(math.log(xmin), math.log(xmax), n)
    h = u[1] - u[0]
    x = np.exp(u)
    w = x * h
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def gl_panels(edges, n):
    """Composite Gauss-Legendre nodes and weights on the panels between
    consecutive edges.

    n is one node count for every panel or a sequence with one count per
    panel; a count below 1 raises ValidationError. Node counts per rule
    stay small: a panel asking for more than 64 nodes is split into equal
    subpanels instead of raising the rule order.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("panel edges must be strictly increasing")
    counts = np.broadcast_to(n, (edges.size - 1,))
    if np.any(counts < 1):
        raise ValidationError("panel node counts must be >= 1, got %s"
                              % ", ".join(str(c) for c in counts))
    rules = {}
    xs, ws = [], []
    for a, b, count in zip(edges[:-1], edges[1:], counts):
        m = max(1, -(-int(count) // 64))
        order = -(-int(count) // m)
        if order not in rules:
            rules[order] = np.polynomial.legendre.leggauss(order)
        x, w = rules[order]
        sub = np.linspace(a, b, m + 1)
        half = 0.5 * (sub[1] - sub[0])
        xs.append((sub[:-1, None] + half * (x + 1.0)).ravel())
        ws.append(np.tile(half * w, m))
    return np.concatenate(xs), np.concatenate(ws)


def default_qgrid(beta=1.0, n=2048):
    """Default radial momentum grid: geometric on [1e-4/beta, 40/beta]."""
    if not 0 < beta < math.inf:
        raise ValidationError(
            "beta must be positive and finite for the default momentum grid: "
            "it spans [1e-4/beta, 40/beta] about the thermal scale 1/beta, "
            "which collapses to 0 at beta = inf; got %s" % beta)
    return geometric_grid(1e-4 / beta, 40.0 / beta, n)


def _close(*pairs):
    """Whether the arrays of each pair have one shape and agree to _GRID_RTOL."""
    return all(a.shape == b.shape
               and np.allclose(a, b, rtol=_GRID_RTOL, atol=0.0)
               for a, b in pairs)


def mirror_sgrid(q, wq):
    """Build the +- symmetric frequency grid from a positive grid."""
    return np.concatenate([-q[::-1], q]), np.concatenate([wq[::-1], wq])


# ---------------------------------------------------------------------------
# elementary thermal functions

def planck_occupation(x, beta=1.0):
    """Bose occupation 1/(e^{beta x} - 1), elementwise.

    Domain: x > 0 and beta > 0 (beta = inf gives zero occupation).
    """
    if not beta > 0:
        raise ValidationError("beta must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValidationError("occupation argument must be positive")
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(beta * x)


def bath_occupation(omega, beta, rapidity=0.0):
    """Occupation of a thermal bath at lab frequencies omega, averaged over
    directions; zeros at beta = inf.

    At rest this is mu_beta(omega). A massless bath at rapidity eta sees
    the lab momentum q = omega in direction cos theta = c at the Doppler
    frequency x(c) = q gamma (1 - v c), which runs over
    [q e^{-|eta|}, q e^{|eta|}]. Every quasi-free sum over radial vectors
    is linear in the occupation at a node, so only the direction average
    enters:

        (1/2) int_{-1}^{1} mu_beta(x(c)) dc
            = [ln(1 - e^{-beta x})]_{x = q e^{-|eta|}}^{q e^{|eta|}} / d,

    d = 2 beta q sinh|eta|, since d/dx ln(1 - e^{-beta x}) = beta mu_beta(x).
    With a = beta q e^{-|eta|} the bracket is ln((1 - e^{-a-d}) / (1 - e^{-a}))
    = log1p(mu_beta(q e^{-|eta|}) (1 - e^{-d})). Written so, it does not
    cancel as eta -> 0, where it tends to mu_beta(q). A nonzero rapidity
    assumes a massless field, where omega = q.
    """
    omega = np.asarray(omega, dtype=float)
    if beta == math.inf:
        return np.zeros_like(omega)
    eta = abs(rapidity)
    if eta == 0.0:
        return planck_occupation(omega, beta)
    d = 2.0 * beta * omega * math.sinh(eta)
    low = planck_occupation(omega * math.exp(-eta), beta)
    return np.log1p(low * -np.expm1(-d)) / d


def dispersion(q, mass=0.0):
    q = np.asarray(q, dtype=float)
    if mass == 0.0:
        return q.copy()
    return np.hypot(q, mass)


# ---------------------------------------------------------------------------
# domain types

class BoostSpec:
    """A boost along the z axis, parametrized by rapidity."""

    def __init__(self, rapidity=0.0):
        rapidity = float(rapidity)
        if not math.isfinite(rapidity):
            raise ValidationError("rapidity must be finite")
        self.rapidity = rapidity

    @property
    def v_rel(self):
        return math.tanh(self.rapidity)

    @property
    def gamma(self):
        return math.cosh(self.rapidity)

    @classmethod
    def from_velocity(cls, v):
        v = float(v)
        if not abs(v) < 1.0:
            raise ValidationError("|v| must be < 1, got %r" % v)
        return cls(math.atanh(v))

    def __repr__(self):
        return "BoostSpec(rapidity=%g)" % self.rapidity


class MomentumFunction:
    """A rotationally symmetric one-particle vector in momentum space.

    One value per radial node q_i, on a strictly increasing grid. The
    weight wtot_i = 4*pi * w_dq_i already holds the solid angle, so
    ||u||^2 = sum wtot_i q_i^2 |u_i|^2.
    """

    def __init__(self, q, wtot, values, mass=0.0):
        q = np.asarray(q, dtype=float)
        wtot = np.asarray(wtot, dtype=float)
        values = np.asarray(values, dtype=complex)
        if q.ndim != 1 or q.shape != wtot.shape or q.shape != values.shape:
            raise ValidationError("q, weights, values must be 1d arrays of equal length")
        if np.any(q <= 0) or not np.all(np.isfinite(q)):
            raise ValidationError("momenta must be strictly positive and finite")
        if not np.all(np.isfinite(values)):
            raise ValidationError("amplitudes must be finite")
        if np.any(np.diff(q) <= 0):
            raise ValidationError("radial grid must be strictly increasing")
        if np.any(wtot <= 0):
            raise ValidationError("quadrature weights must be positive")
        if mass < 0:
            raise ValidationError("mass must be >= 0")
        self.q = q
        self.wtot = wtot
        self.values = values
        self.mass = float(mass)

    @classmethod
    def from_radial(cls, q, w_dq, values, mass=0.0):
        """Build from plain dq weights w_dq."""
        return cls(q, FOUR_PI * np.asarray(w_dq, dtype=float), values, mass)

    @property
    def omega(self):
        return dispersion(self.q, self.mass)

    def copy_with(self, values):
        return MomentumFunction(self.q, self.wtot, values, self.mass)

    def same_points(self, other):
        return other is self or _close((self.q, other.q),
                                       (self.wtot, other.wtot))

    def weighted_inner(self, other, weight):
        """<self, weight(q) * other> for a real scalar function of q."""
        if not self.same_points(other):
            raise StructuralError("inner product needs matching point sets")
        wq = np.asarray(weight(self.q), dtype=float)
        return complex(np.sum(self.wtot * self.q ** 2 * wq
                              * np.conj(self.values) * other.values))

    def time_translate(self, t):
        """Multiply by e^{i omega t} (forward time evolution by t)."""
        return self.copy_with(self.values * np.exp(1j * self.omega * t))


class GluedVector:
    """Vector on the doubled frequency line, measure ds times the sphere.

    The grid holds negative and positive frequencies in ascending order,
    zero excluded. ||f||^2 = 4*pi * sum w_j |f_j|^2.
    """

    def __init__(self, s, w, values, zeta=math.pi, beta_tag=None):
        s = np.asarray(s, dtype=float)
        w = np.asarray(w, dtype=float)
        values = np.asarray(values, dtype=complex)
        if s.ndim != 1 or s.shape != w.shape or s.shape != values.shape:
            raise ValidationError("s, w, values must be 1d arrays of equal length")
        if np.any(s == 0.0):
            raise ValidationError("frequency grid must exclude 0")
        if np.any(np.diff(s) <= 0):
            raise ValidationError("frequency grid must be strictly increasing")
        if np.any(w <= 0):
            raise ValidationError("weights must be positive")
        self.s = s
        self.w = w
        self.values = values
        self.zeta = float(zeta)
        self.beta_tag = beta_tag

    def copy_with(self, values):
        return GluedVector(self.s, self.w, values, self.zeta, self.beta_tag)

    def norm2(self):
        return FOUR_PI * float(np.sum(self.w * np.abs(self.values) ** 2))

    def norm(self):
        return math.sqrt(self.norm2())

    def same_grid(self, other):
        return _close((self.s, other.s), (self.w, other.w))

    def inner(self, other):
        if not self.same_grid(other):
            raise StructuralError("inner product needs matching frequency grids")
        return FOUR_PI * complex(np.sum(self.w * np.conj(self.values) * other.values))

    def is_mirror_symmetric(self):
        return self.s.size % 2 == 0 and _close((self.s, -self.s[::-1]),
                                               (self.w, self.w[::-1]))


# ---------------------------------------------------------------------------
# operations

def default_coupling(q):
    """Default radial coupling profile q^{1/2} e^{-q^2}."""
    q = np.asarray(q, dtype=float)
    return np.sqrt(q) * np.exp(-q ** 2)


def gluing_phase(zeta):
    """The gluing phase -e^{i zeta}, with the rounding residue of
    multiples of pi snapped away so the default gluing stays real."""
    phase = -cmath.exp(1j * zeta)
    if abs(phase.imag) < 1e-15:
        return complex(phase.real, 0.0)
    return phase


def glue_branches(q, beta, u, zeta=math.pi, amplitude=1.0):
    """Both branches of the thermal glue of amplitudes u at q > 0.

    Returns (f(q), f(-q)) with f(q) = q sqrt(1 + mu_beta(q)) a u(q) and
    f(-q) = -e^{i zeta} q sqrt(mu_beta(q)) conj(a u(q)), a the amplitude,
    so that |f(-q)|^2 / |f(q)|^2 = e^{-beta q}.
    """
    mu = bath_occupation(q, beta)
    pos = q * np.sqrt(1.0 + mu) * amplitude * u
    neg = gluing_phase(zeta) * q * np.sqrt(mu) * np.conj(amplitude * u)
    return pos, neg


def kms_glue(u: MomentumFunction, beta, zeta=math.pi):
    """Glue a massless one-particle vector into its thermal doubled
    vector on the frequency line.

    Positive branch  f(s) = s sqrt(1 + mu_beta(s)) u(s),
    negative branch  f(-s) = -e^{i zeta} s sqrt(mu_beta(s)) conj(u(s)),
    so that ||f||^2 = <u, coth(beta omega / 2) u>.
    """
    if u.mass != 0.0:
        raise ValidationError("gluing is defined for the massless field")
    if beta <= 0:
        raise ValidationError("beta must be positive")
    pos, neg = glue_branches(u.q, beta, u.values, zeta)
    s, w = mirror_sgrid(u.q, u.wtot / FOUR_PI)
    values = np.concatenate([neg[::-1], pos])
    return GluedVector(s, w, values, zeta=zeta, beta_tag=float(beta))


def jf_conjugate(g: GluedVector):
    """Anti-unitary frequency conjugation (j v)(s) = -e^{i zeta} conj(v(-s)).

    Requires a mirror-symmetric grid; an involution for any real zeta.
    """
    if not g.is_mirror_symmetric():
        raise StructuralError("frequency conjugation needs a mirror-symmetric grid")
    values = gluing_phase(g.zeta) * np.conj(g.values[::-1])
    return g.copy_with(values)


def time_translate(g: GluedVector, t):
    """Multiply by e^{i s t}; composes additively in t."""
    return g.copy_with(g.values * np.exp(1j * g.s * t))


# ---------------------------------------------------------------------------
# plain-text serialization

def save_glued(path, g: GluedVector, extra_meta=()):
    """Write a doubled-frequency vector as CSV `s,re,im` plus a key=value
    sidecar `<path>.meta` recording zeta, the thermal tag and the grid."""
    from .textio import write_csv, write_keyvals
    write_csv(path, "s,re,im", [g.s, g.values.real, g.values.imag])
    meta = [("kind", "glued"),
            ("zeta", float(g.zeta)),
            ("beta", "inf" if g.beta_tag is None else float(g.beta_tag)),
            ("n_points", str(g.s.size)),
            ("s_min", float(np.min(np.abs(g.s)))),
            ("s_max", float(np.max(np.abs(g.s))))]
    meta.extend(extra_meta)
    write_keyvals(path + ".meta", meta)


def load_glued(path):
    from .textio import read_keyvals
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    meta = read_keyvals(path + ".meta")
    s = rows[:, 0]
    values = rows[:, 1] + 1j * rows[:, 2]
    w = _weights_from_grid(s)
    beta = meta.get("beta", "inf")
    return GluedVector(s, w, values,
                       zeta=float(meta.get("zeta", math.pi)),
                       beta_tag=None if beta == "inf" else float(beta))


def _weights_from_grid(s):
    """Reconstruct log-trapezoid weights for a (possibly two-sided)
    geometric grid loaded from disk."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        pos = s[s > 0]
        neg = -s[s < 0][::-1]
        if pos.size == 0 or neg.size == 0 or not np.allclose(pos, neg, rtol=1e-10):
            raise StructuralError("cannot reconstruct weights: grid not mirror symmetric")
        wq = _weights_from_grid(pos)
        return np.concatenate([wq[::-1], wq])
    u = np.log(s)
    h = np.diff(u)
    if not np.allclose(h, h[0], rtol=1e-8):
        raise StructuralError("cannot reconstruct weights: grid not geometric")
    w = s * h[0]
    w[0] *= 0.5
    w[-1] *= 0.5
    return w
