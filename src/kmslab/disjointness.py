"""Fidelity decay between restrictions of quasi-free states.

Two thermal states of the field, at different temperatures or expressed
in frames related by a boost, are compared on growing families of point
modes of the massless field, one per frequency node and no node shared.
Point modes on distinct nodes are orthogonal in any frame, so each
restriction is a product of single-mode Gibbs states, one per node at the
bath occupation of that node (oneparticle.bath_occupation: the Araki-Woods
structure of quasi-free thermal states, J. Math. Phys. 4 (1963) 637), and
the fidelity is a product of single-mode thermal fidelities: it is
non-increasing by construction and its decay toward zero is the
observable.

The decay is an overlap proxy.  Inequivalence of the states themselves
is a statement about the full infinite system; only the trend of the
finite-restriction fidelity is measured here, and the documented
thresholds are measured targets, not theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .oneparticle import bath_occupation
from .quasifree import QuasiFreeState
from .textio import fmt17

__all__ = [
    "ModeFamily",
    "FidelityCurve",
    "adapted_family",
    "mode_occupations",
    "thermal_fidelity",
    "overlap_decay",
]


@dataclass
class ModeFamily:
    """Distinct, positive, finite frequency nodes, one point mode each,
    with a reproducible descriptor.

    Point modes on distinct nodes have exactly vanishing cross inner
    products in any frame, so the restriction of a quasi-free state to
    the family factors node by node and only the nodes are kept.
    """

    nodes: np.ndarray
    descriptor: str = ""

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1:
            raise ValidationError("mode nodes must be a 1-d array")
        if nodes.size == 0:
            raise ValidationError("mode family must be nonempty")
        bad = nodes[~(np.isfinite(nodes) & (nodes > 0))]
        if bad.size:
            raise ValidationError(
                "mode nodes must be positive and finite, got %s"
                % ", ".join(fmt17(x) for x in bad))
        if len(np.unique(nodes)) != len(nodes):
            raise ValidationError("family modes must sit on distinct nodes")
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)


def adapted_family(n: int, s_lo: float = 0.1, s_hi: float = 5.0) -> ModeFamily:
    """Thermally ordered grid family: n point modes, low frequency first.

    Low-frequency modes carry the largest thermal weight, so the family
    enumerates modes in order of decreasing spectral weight for any KMS
    state; prefixes are nested by construction.
    """
    if n < 1:
        raise ValidationError("family size must be >= 1")
    if not (0 < s_lo < s_hi):
        raise ValidationError("need 0 < s_lo < s_hi")
    return ModeFamily(
        np.linspace(s_lo, s_hi, n),
        descriptor="adapted:n=%d,s_lo=%s,s_hi=%s" % (n, fmt17(s_lo), fmt17(s_hi)))


def mode_occupations(state: QuasiFreeState, family: ModeFamily) -> np.ndarray:
    """Number expectation of each mode in the given state.

    The bath occupation at each node; a boosted thermal state gives each
    lab-frame mode the exact average of the Doppler-shifted occupation
    over directions.  The modes are those of the massless field.  A node
    whose occupation is not finite (one so small that 1/(e^{beta s} - 1)
    overflows) raises ValidationError naming it.
    """
    if state.mass != 0.0:
        raise ValidationError(
            "mode families are massless; the state has mass %s"
            % fmt17(state.mass))
    occ = bath_occupation(family.nodes, state.beta, state.frame.rapidity)
    bad = family.nodes[~np.isfinite(occ)]
    if bad.size:
        raise ValidationError(
            "bath occupation is not finite at mode nodes %s"
            % ", ".join(fmt17(x) for x in bad))
    return occ


def _check_occupation(nbar: float) -> None:
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValidationError(
            "occupation must be finite and >= 0, got %s" % fmt17(nbar))


def thermal_fidelity(n1: float, n2: float) -> float:
    """Closed-form fidelity of two single-mode thermal states,
    1 / (sqrt((n1 + 1)(n2 + 1)) - sqrt(n1 n2)).

    Evaluated as (sqrt((n1 + 1)(n2 + 1)) + sqrt(n1 n2)) / (n1 + n2 + 1),
    which has no cancellation: the difference form divides by zero once
    n1 and n2 are large enough that n + 1 rounds to n.
    """
    _check_occupation(n1)
    _check_occupation(n2)
    root = math.sqrt(n1 + 1.0) * math.sqrt(n2 + 1.0) + math.sqrt(n1) * math.sqrt(n2)
    return root / (n1 + n2 + 1.0)


@dataclass
class FidelityCurve:
    """Fidelity of nested restrictions against mode count."""

    ns: np.ndarray
    values: np.ndarray
    n_star: int | None
    slope: float


def overlap_decay(state1: QuasiFreeState, state2: QuasiFreeState,
                  family: ModeFamily,
                  threshold: float = 0.01) -> FidelityCurve:
    """Fidelity of the two restrictions over nested family prefixes.

    Restrictions of both states factor over the point-mode family, so
    F_n is the running product of single-mode thermal fidelities and is
    non-increasing by construction.  Reports the first n with
    F_n < threshold (None when not reached, which is an outcome, not an
    error) and the mean log-slope of the decay.
    """
    if not (0.0 < threshold < 1.0):
        raise ValidationError("threshold must be in (0, 1)")
    occ1 = mode_occupations(state1, family)
    occ2 = mode_occupations(state2, family)
    factors = np.array([thermal_fidelity(a, b) for a, b in zip(occ1, occ2)])
    values = np.cumprod(factors)
    ns = np.arange(1, len(values) + 1)
    hit = np.nonzero(values < threshold)[0]
    n_star = int(ns[hit[0]]) if len(hit) else None
    logs = np.log(np.clip(values, 1e-300, None))
    slope = float(np.polyfit(ns, logs, 1)[0]) if len(ns) > 1 else 0.0
    return FidelityCurve(ns=ns, values=values, n_star=n_star, slope=slope)
