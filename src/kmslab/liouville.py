"""Truncated detector-field Liouvilleans and return-to-equilibrium dynamics.

The detector is a two-level system with gap E; its doubled (GNS) space is
C^2 (x) C^2 with the observable algebra acting on the first factor.  The
reservoir is a finite family of signed-frequency modes sampling the glued
thermal form factor, second-quantized on a truncated Fock space.  The free
generator is diagonal in the occupation basis; the interaction couples a
2x2 monopole matrix to a field operator built from the mode amplitudes,
minus its modular conjugate, so that the coupled generator still
annihilates the perturbed equilibrium vector in the untruncated limit.

Sign and pairing conventions follow the one-particle glue: a mode at s > 0
carries weight sqrt(1 + mu), its mirror at -s carries sqrt(mu) with the
phase -e^{i zeta}, and the two are exchanged by the modular conjugation.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AmbiguousThresholdWarning,
    NumericalError,
    ResonanceWarning,
    StructuralError,
    ValidationError,
)
from .oneparticle import (MomentumFunction, default_coupling, gl_panels,
                          glue_branches, gluing_phase)
from .quasifree import QuasiFreeState, _phase_sum, two_point, two_point_series
from .textio import fmt17

__all__ = [
    "ReservoirDiscretization",
    "TruncatedFock",
    "LiouvilleanOperator",
    "ModularConjugation",
    "SpectrumReport",
    "SweepReport",
    "EvolutionResult",
    "RTEReport",
    "TomitaReport",
    "form_factor_values",
    "paired_modes",
    "jittered_modes",
    "resonant_shell_modes",
    "detector_gibbs_vector",
    "gns_vacuum",
    "product_initial",
    "one_boson_initial",
    "assemble_L0",
    "assemble_coupling",
    "assemble_factors",
    "assemble_liouvillean",
    "perturbed_kms_vector",
    "spectrum_scan",
    "kernel_splitting_sweep",
    "evolve",
    "reduce_detector",
    "trace_distance",
    "fgr_window",
    "rte_distance_series",
    "INITIAL_STATES",
    "tomita_residual",
]

_HERMITICITY_TOL = 1e-13


def _finite_2x2(matrix, name):
    """The matrix as a complex array; ValidationError unless 2x2 and finite."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValidationError("%s must be 2x2" % name)
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("%s must have finite entries" % name)
    return matrix


def _hermitian_2x2(matrix, name):
    """_finite_2x2's matrix; ValidationError unless Hermitian to 1e-12."""
    matrix = _finite_2x2(matrix, name)
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-12:
        raise ValidationError("%s must be Hermitian" % name)
    return matrix


def _density_2x2(matrix, name):
    """The 2x2 density matrix as a complex array; ValidationError naming it
    unless it is Hermitian (see _hermitian_2x2), PSD to -1e-10 and of unit
    trace to 1e-10."""
    rho = _hermitian_2x2(matrix, name)
    evals = np.linalg.eigvalsh(rho)
    if np.any(evals < -1e-10):
        raise ValidationError("%s must be PSD" % name)
    if abs(np.sum(evals) - 1.0) > 1e-10:
        raise ValidationError("%s must have unit trace" % name)
    return rho


def form_factor_values(s, beta, coupling=None, zeta=math.pi, amplitude=1.0):
    """Evaluate the glued form factor at signed frequencies s.

    The branches are those of oneparticle.glue_branches at |s|: for s > 0
    the value is s*sqrt(1+mu_beta(s))*u(s); at -s it is
    -e^{i zeta} * s*sqrt(mu_beta(s))*conj(u(s)), which keeps the
    detailed-balance ratio |f(-s)|^2/|f(s)|^2 = e^{-beta s} exact.
    """
    if coupling is None:
        coupling = default_coupling
    s = np.asarray(s, dtype=float)
    if np.any(s == 0.0):
        raise ValidationError("form factor is undefined at s = 0")
    q = np.abs(s)
    f_pos, f_neg = glue_branches(q, beta, np.asarray(coupling(q), dtype=complex),
                                 zeta, amplitude)
    out = np.where(s > 0, f_pos, f_neg)
    if abs(zeta - math.pi) < 1e-15 and np.max(np.abs(out.imag)) == 0.0:
        return out.real.astype(float)
    return out


@dataclass
class ReservoirDiscretization:
    """Finite mode family (s_j, w_j, f_j) sampling the glued form factor."""

    s: np.ndarray
    w: np.ndarray
    f: np.ndarray
    beta: float
    zeta: float = math.pi
    coupling: Callable | None = None
    amplitude: float = 1.0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.f = np.asarray(self.f)
        if self.s.ndim != 1 or self.s.shape != self.w.shape or self.s.shape != self.f.shape:
            raise ValidationError("mode arrays s, w, f must be 1-d and congruent")
        for name in ("s", "w", "f"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError("mode array %s must be finite" % name)
        if np.any(self.s == 0.0):
            raise ValidationError("mode frequencies must be nonzero")
        if len(np.unique(self.s)) != len(self.s):
            raise ValidationError("mode frequencies must be distinct")
        if np.any(self.w <= 0.0):
            raise ValidationError("quadrature weights must be positive")

    @property
    def n_modes(self) -> int:
        return len(self.s)

    def mirror_index(self) -> np.ndarray:
        """Index map j -> j' with s[j'] = -s[j]; StructuralError if unpaired."""
        order = {sv: j for j, sv in enumerate(self.s)}
        mirror = np.empty(self.n_modes, dtype=int)
        for j, sv in enumerate(self.s):
            if -sv not in order:
                raise StructuralError(
                    "modes are not +/- paired: no partner for s=%s" % fmt17(sv))
            mirror[j] = order[-sv]
        return mirror

    def correlation_defect(self, taus) -> float:
        """max over evenly spaced taus of |C(tau) - C_cont(tau)| / C_cont(0),
        C(tau) = sum_j |f_j|^2 e^{-i s_j tau}, C_cont quasifree.two_point_series
        of amplitude * coupling on (0, max |s_j|]; at taus = [0] the norm defect."""
        if self.coupling is None:
            raise ValidationError("correlation defect needs the continuum coupling")
        edges = np.linspace(0.0, np.max(np.abs(self.s)), _CONT_PANELS + 1)
        q, w = gl_panels(edges, _CONT_NODES)
        u = MomentumFunction.from_radial(
            q, w, self.amplitude * np.asarray(self.coupling(q), dtype=complex))
        state = QuasiFreeState(beta=self.beta)
        cont = two_point_series(state, u, u, taus).values
        disc = _phase_sum(np.abs(self.f) ** 2, 0.0, self.s, taus)
        return float(np.max(np.abs(disc - cont))) / two_point(state, u, u).real

    def spectral_density(self, energy: float) -> float:
        """Continuum coupling density 4*pi*|f_beta(E)|^2 at a positive energy."""
        if self.coupling is None:
            raise ValidationError("spectral density needs the continuum coupling")
        val = form_factor_values(np.array([float(energy)]), self.beta,
                                 coupling=self.coupling, zeta=self.zeta,
                                 amplitude=self.amplitude)[0]
        return 4.0 * math.pi * abs(val) ** 2

    def recurrence_time(self) -> float:
        """2 pi over the smallest spacing of the mode frequencies; fewer
        than two modes raise ValidationError."""
        if self.n_modes < 2:
            raise ValidationError("a recurrence time needs at least two "
                                  "modes, got %d" % self.n_modes)
        spacing = float(np.min(np.diff(np.sort(self.s))))
        return 2.0 * math.pi / spacing


_CONT_PANELS, _CONT_NODES = 64, 16   # correlation_defect's gl_panels
# panels of the reservoir grids, in |s| on each side
_S_MIN, _S_MAX = 0.02, 6.0
_PAIRED_SPLIT = 1.5
_JITTER_SPLIT = (1.2, 1.8)       # range of the jittered split point
_SHELL_ORDERS = (2, 8, 2)
_SHELL_HALF_WIDTH = (0.35, 0.5)  # range of the shell's jittered half width
# TruncatedFock sums its occupation energies over blocks of this many basis
# rows, so that no float64 copy of the whole uint8 basis is made.  The
# benchmarked grids (up to 20 475 rows) fit in one block.
_FOCK_BLOCK = 1 << 15


def _two_sided_modes(beta, plus, minus, zeta, amplitude) -> ReservoirDiscretization:
    """Modes on composite Gauss-Legendre panels, sampling the glued form
    factor of the default coupling.

    plus and minus are the (edges, counts) of gl_panels for the positive
    side and for |s| on the negative side.
    """
    if not 0.0 < beta < math.inf:
        # at beta = inf every mode at s < 0 would carry a zero amplitude
        raise ValidationError(
            "beta must be positive and finite: the modes sample a thermal "
            "form factor, got %s" % beta)
    qp, wp = gl_panels(*plus)
    qm, wm = gl_panels(*minus)
    s = np.concatenate([qp, -qm])
    w = np.concatenate([wp, wm])
    f = np.sqrt(4.0 * math.pi * w) * form_factor_values(
        s, beta, zeta=zeta, amplitude=amplitude)
    return ReservoirDiscretization(s=s, w=w, f=f, beta=beta, zeta=zeta,
                                   coupling=default_coupling,
                                   amplitude=amplitude)


def _side_counts(n_side):
    """Node counts of the two panels of a side; n_side < 2 raises."""
    if not n_side >= 2:
        raise ValidationError("n_side must be >= 2, got %r" % (n_side,))
    return [n_side // 2, n_side - n_side // 2]


def paired_modes(beta, n_side=12, zeta=math.pi, amplitude=1.0):
    """Exactly mirrored +/- grid.  Resonant by construction; J-compatible."""
    side = ([_S_MIN, _PAIRED_SPLIT, _S_MAX], _side_counts(n_side))
    return _two_sided_modes(beta, side, side, zeta, amplitude)


def jittered_modes(beta, seed, n_side=12, zeta=math.pi, amplitude=1.0):
    """Non-resonant grid: independent panel split points on the two sides."""
    counts = _side_counts(n_side)
    rng = np.random.default_rng(seed)
    lo, hi = _JITTER_SPLIT

    def one_side():
        b = lo + (hi - lo) * rng.random()
        return [_S_MIN, b, _S_MAX], counts

    plus = one_side()
    return _two_sided_modes(beta, plus, one_side(), zeta, amplitude)


def resonant_shell_modes(beta, gap, seed, zeta=math.pi, amplitude=1.0):
    """Grid concentrating quadrature around |s| = gap.

    The middle panel brackets the detector gap so the modes that exchange
    quanta with the detector are densely resolved; revival of the resonant
    shell then happens late compared to the golden-rule decay.  The grid is
    not free of resonances: the middle panel is centred on gap on both
    sides and Gauss-Legendre nodes are symmetric in a panel, so pairs of
    nodes sum to +-2*gap to rounding, and four-boson occupation sums hit
    {0, +-gap} from n_tot_max = 4 on (36 collisions there; assemble_L0
    warns).  The middle panel fits between _S_MIN and _S_MAX at every half
    width only for gap in [0.52, 5.5]; any other gap raises
    ValidationError.
    """
    lo, hi = _SHELL_HALF_WIDTH
    if not _S_MIN + hi <= gap <= _S_MAX - hi:
        raise ValidationError(
            "gap must lie in [%s, %s] for the shell grid's panels to "
            "bracket it, got %s" % (_S_MIN + hi, _S_MAX - hi, gap))
    rng = np.random.default_rng(seed)

    def one_side():
        hw = lo + (hi - lo) * rng.random()
        return [_S_MIN, gap - hw, gap + hw, _S_MAX], _SHELL_ORDERS

    plus = one_side()
    return _two_sided_modes(beta, plus, one_side(), zeta, amplitude)


class TruncatedFock:
    """Detector (C^2 x C^2) tensor truncated bosonic Fock space.

    The reservoir occupation basis is enumerated in lexicographic order,
    either with a total-occupation budget (n_tot_max) or per-mode caps
    (n_max), an integer >= 1 (ValidationError otherwise).  Full-space
    indices are detector-major: index = d*R + r with d in {0:++, 1:+-,
    2:-+, 3:--}, a (4, R) array flattened.  The rank of an occupation n is
    its row in the basis, found by binary search: each row read as one
    big-endian byte string orders as the rows do, and the constructor
    checks once that these keys strictly increase.

    energy_max, if given, is an energy window inside the truncation: only
    occupations n with |n . s| <= energy_max are kept (the truncated
    conformal space cutoff of Yurov & Zamolodchikov, Int. J. Mod. Phys. A
    5 (1990) 3221).  The window is decided once, on the energies summed
    here, and the basis holds only the kept rows, so an occupation of the
    truncation that is not a row lies outside the window: ``rank`` raises
    ValidationError for it.

    Memory: the basis (reservoir_dim x modes, in the smallest unsigned
    dtype that holds n_tot_max: uint8 up to 255) and occupation_energy
    (reservoir_dim floats).  The keys of a uint8 basis are a view of it;
    those of a wider one, a big-endian copy made per lookup.  The
    constructor enumerates the whole budget first, so its peak holds the
    unwindowed basis and energies as well.
    Ladder operators come from one raising table, one entry per (row with
    room, mode): a row n below its cap in the mode and below n_tot_max in
    total goes to rank(n + e_mode) with weight sqrt(n_mode + 1), if that
    target lies in the window.  It is built per call of creation_matrix,
    field_matrix or _field_matrices (once for all the fields asked for
    together) and not kept.
    """

    def __init__(self, disc: ReservoirDiscretization, n_tot_max=None, n_max=None,
                 energy_max=None):
        if (n_tot_max is None) == (n_max is None):
            raise ValidationError("give exactly one of n_tot_max or n_max")
        if energy_max is not None and not energy_max >= 0.0:
            raise ValidationError("energy_max must be >= 0, got %r"
                                  % (energy_max,))
        self.disc = disc
        N = disc.n_modes
        name, cap = (("n_tot_max", n_tot_max) if n_max is None
                     else ("n_max", n_max))
        try:
            cap = operator.index(cap)
        except TypeError:
            raise ValidationError("%s must be an integer, got %r"
                                  % (name, cap)) from None
        if cap < 1:
            raise ValidationError("%s must be >= 1" % name)
        self.caps = np.full(N, cap, dtype=np.int64)
        self.n_tot_max = cap if n_max is None else cap * N
        # From the last mode up: each value m of mode j goes in front of the
        # rows of modes j+1, ... that hold at most n_tot_max - m quanta.
        budget = self.n_tot_max
        rows = np.zeros((1, 0), dtype=np.min_scalar_type(budget))
        tot = np.zeros(1, np.int64)
        for j in range(N - 1, -1, -1):
            keep = [(m, tot <= budget - m)
                    for m in range(min(cap, budget) + 1)]
            rows = np.concatenate([np.insert(rows[k], 0, m, axis=1)
                                   for m, k in keep])
            tot = np.concatenate([tot[k] + m for m, k in keep])
        energy = np.empty(len(rows))
        for start in range(0, len(rows), _FOCK_BLOCK):
            block = rows[start:start + _FOCK_BLOCK]
            energy[start:start + len(block)] = block @ self.disc.s
        self.energy_max = None if energy_max is None else float(energy_max)
        if energy_max is not None:
            inside = np.abs(energy) <= energy_max
            rows, energy = rows[inside], energy[inside]
        self.basis = rows
        keys = self._keys(rows)
        if not np.all(keys[1:] > keys[:-1]):
            raise StructuralError("occupation basis is not rank-ordered")
        self.occupation_energy = energy
        self.reservoir_dim = len(rows)
        self.dim = 4 * self.reservoir_dim
        self.vacuum = 0

    def _keys(self, occ) -> np.ndarray:
        """Each occupation tuple (the last axis, in range) as one big-endian
        byte string in the basis dtype; the vacuum of no modes is one byte."""
        occ = np.ascontiguousarray(occ,
                                   dtype=self.basis.dtype.newbyteorder(">"))
        if not occ.shape[-1]:
            occ = np.zeros(occ.shape[:-1] + (1,), dtype=np.uint8)
        return occ.view("S%d" % (occ.shape[-1] * occ.itemsize))[..., 0]

    def _lookup(self, occ):
        """(basis row, whether it is one) of each occupation tuple of the
        truncation; a tuple that is no row lies outside the energy window."""
        basis, keys = self._keys(self.basis), self._keys(occ)
        index = np.minimum(np.searchsorted(basis, keys), len(basis) - 1)
        return index, basis[index] == keys

    def rank(self, occupations) -> np.ndarray:
        """Basis index of each occupation tuple (the last axis).

        A wrong length, an entry that is not a finite integer, a negative
        entry, an entry above its cap, a total above n_tot_max or an
        occupation outside the energy window raises ValidationError.
        """
        occ = np.asarray(occupations)
        if occ.shape[-1:] != self.caps.shape:
            raise ValidationError("occupation tuples need %d entries, got "
                                  "shape %s" % (len(self.caps), occ.shape))
        if occ.dtype.kind not in "biuf" or not np.all(
                np.isfinite(occ) & (occ == np.round(occ))):
            raise ValidationError("occupation entries must be finite integers")
        if (np.any(occ < 0) or np.any(occ > self.caps)
                or np.any(occ.sum(axis=-1) > self.n_tot_max)):
            raise ValidationError("occupation tuple outside the truncation")
        index, found = self._lookup(occ)
        if not found.all():
            raise ValidationError("occupation tuple outside the energy window")
        return index

    def free_energies(self, E: float) -> np.ndarray:
        """Diagonal of L0, detector-major: (0, E, -E, 0)[d] + occupation energy."""
        return np.concatenate([d + self.occupation_energy
                               for d in (0.0, E, -E, 0.0)])

    def _raising_table(self, modes):
        """(row, col, mode, value) of a_mode^dagger, mode-major; see above."""
        B = self.basis
        modes = np.asarray(modes, dtype=np.int64)
        room = ((B[:, modes] < self.caps[modes])
                & (B.sum(axis=1) < self.n_tot_max)[:, None])
        k, cols = np.nonzero(room.T)
        mode = modes[k]
        rows = np.empty_like(cols)
        found = np.empty(len(cols), dtype=bool)
        start = 0
        for j, count in zip(modes, room.sum(axis=0)):
            seg = slice(start, start + count)
            rows[seg], found[seg] = self._lookup(
                B[cols[seg]] + (np.arange(B.shape[1]) == j))
            start += count
        rows, cols, mode = rows[found], cols[found], mode[found]
        return rows, cols, mode, np.sqrt(B[cols, mode] + 1.0)

    def creation_matrix(self, mode: int) -> sp.csr_matrix:
        """Matrix of a_mode^dagger on the truncated reservoir basis; a mode
        outside [0, n_modes) raises ValidationError."""
        if not 0 <= mode < self.disc.n_modes:
            raise ValidationError("mode %r outside [0, %d)"
                                  % (mode, self.disc.n_modes))
        rows, cols, _, vals = self._raising_table([mode])
        return sp.csr_matrix((vals, (rows, cols)),
                             shape=(self.reservoir_dim, self.reservoir_dim))

    def field_matrix(self, amplitudes) -> sp.csr_matrix:
        """Phi(f) = sum_j f_j a_j^dagger + conj(f_j) a_j, truncated.

        One CSR build of f_mode * value over the raising table of every
        mode, held only during the call, plus its adjoint; the sum drops
        the entries of zero amplitudes.  Amplitudes of any other shape than
        (n_modes,) raise ValidationError.
        """
        return self._field_matrices(amplitudes)[0]

    def _field_matrices(self, *amplitudes) -> list:
        """[Phi(f) for each f given], as field_matrix builds them, from one
        raising table."""
        amplitudes = [np.asarray(f) for f in amplitudes]
        for f in amplitudes:
            if f.shape != (self.disc.n_modes,):
                raise ValidationError("field_matrix needs %d amplitudes, got "
                                      "shape %s" % (self.disc.n_modes, f.shape))
        rows, cols, mode, vals = self._raising_table(range(self.disc.n_modes))
        fields = []
        for f in amplitudes:
            A = sp.csr_matrix((f[mode] * vals, (rows, cols)),
                              shape=(self.reservoir_dim, self.reservoir_dim))
            phi = A + A.conj().T
            if np.isrealobj(f):
                phi = phi.real
            fields.append(phi.tocsr())
        return fields


def _check_hermitian(M, label: str):
    D = M - M.conj().T
    defect = float(np.max(np.abs(D.data))) if D.data.size else 0.0
    if not defect < _HERMITICITY_TOL:
        raise StructuralError(
            "%s is not Hermitian: max entry defect %s" % (label, fmt17(defect)))


@dataclass
class LiouvilleanOperator:
    """The generator L0 + lam V and the factors it is built from.

    ``matrix`` is the generator itself and ``dim`` its dimension; it is
    the only field of that dimension.  ``rows`` is None for the generator
    on the full space; otherwise the matrix is its principal submatrix on
    the full-space rows ``rows`` (ascending), a sector that the generator
    leaves invariant (see on_sector).  The coupling is held as
    its factors: ``G``, the Hermitian part of the 2x2 monopole matrix, and
    the two reservoir field matrices ``phi`` = Phi(f) and ``phi_conj`` =
    Phi(e^{-beta s/2} f), of reservoir dimension whatever the rows.  All
    three are None for the free generator of assemble_L0.  L0 is not
    stored: it is the diagonal space.free_energies(gap).
    """

    matrix: sp.csr_matrix
    lam: float
    gap: float
    space: TruncatedFock
    G: np.ndarray | None = None
    phi: sp.csr_matrix | None = None
    phi_conj: sp.csr_matrix | None = None
    rows: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def I(self) -> sp.csr_matrix | None:
        """The interaction G x 1 x Phi(f) on the rows, built anew at each
        access."""
        if self.G is None:
            return None
        return _interaction(self.G, self.phi,
                            _row_parts(self.rows, self.space.reservoir_dim))

    @property
    def V(self) -> sp.csr_matrix | None:
        """V = I - JIJ on the rows, built anew at each access; see
        assemble_coupling."""
        if self.G is None:
            return None
        parts = _row_parts(self.rows, self.space.reservoir_dim)
        return _difference(self.G, _interaction(self.G, self.phi, parts),
                           self.phi_conj, parts)

    def norm_estimate(self) -> float:
        """Infinity norm of the matrix, the documented proxy for ||L||."""
        return float(spla.norm(self.matrix, np.inf))

    def with_lambda(self, lam: float) -> "LiouvilleanOperator":
        """The same factors and rows at coupling lam; a non-finite lam, or
        an operator without an interaction part, raises ValidationError.
        V is built for the call and released with it."""
        if not math.isfinite(lam):
            raise ValidationError("coupling lam must be finite, got %s" % lam)
        if self.G is None:
            raise ValidationError(
                "operator lacks an interaction part; no coupling to rescale")
        free = self.space.free_energies(self.gap)
        if self.rows is not None:
            free = free[self.rows]
        mat = sp.diags(free) + lam * self.V
        return replace(self, matrix=mat.tocsr(), lam=float(lam))

    def on_sector(self, initial) -> "LiouvilleanOperator":
        """The same factors and coupling, assembled only on the sector
        that the full-space vector initial reaches.

        Each term of L changes N by one and acts on the detector through
        G x 1 or 1 x conj(G), so the classes of (detector index, N mod 2)
        that initial reaches form a sector that L leaves invariant (see
        _sector_rows): for an off-diagonal G, half the space.  The matrix
        is the full generator's principal submatrix on the sector's rows,
        bit for bit, built from slices of the reservoir fields (see
        _kron) with no full-space matrix.  A zero initial reaches no
        row."""
        if self.G is None:
            raise ValidationError(
                "operator lacks an interaction part; it has no sectors")
        I_fac, JIJ_fac = _detector_factors(self.G)
        links = (I_fac.toarray() != 0) | (JIJ_fac.toarray() != 0)
        rows = _sector_rows(self.space, links, initial)
        return replace(self, rows=rows).with_lambda(self.lam)


def detector_gibbs_vector(E: float, beta: float) -> np.ndarray:
    """GNS vector of the detector Gibbs state on C^2 x C^2."""
    if E <= 0 or beta <= 0:
        raise ValidationError("detector gap and beta must be positive")
    x = math.exp(-beta * E / 2.0)
    v = np.array([x, 0.0, 0.0, 1.0])
    return v / math.sqrt(1.0 + x * x)


def gns_vacuum(space: TruncatedFock, E: float, beta: float) -> np.ndarray:
    """Omega_0: detector Gibbs vector tensor the reservoir Fock vacuum."""
    out = np.zeros((4, space.reservoir_dim))
    out[:, space.vacuum] = detector_gibbs_vector(E, beta)
    return out.ravel()


def product_initial(space: TruncatedFock, detector_rho: np.ndarray) -> np.ndarray:
    """Purification vector of (detector density matrix) x reservoir vacuum."""
    rho = _density_2x2(detector_rho, "detector density matrix")
    evals, evecs = np.linalg.eigh(rho)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    psi = np.zeros((4, space.reservoir_dim), dtype=complex)
    psi[:, space.vacuum] = root.ravel()    # d = 2a + b for root[a, b]
    return psi.ravel() / np.linalg.norm(psi)


def one_boson_initial(space: TruncatedFock, detector_vec: np.ndarray,
                      mode_profile: np.ndarray) -> np.ndarray:
    """Detector doubled vector tensor a normalized one-boson wavepacket."""
    dv = np.asarray(detector_vec, dtype=complex)
    if dv.shape != (4,):
        raise ValidationError("detector vector must have 4 components")
    prof = np.asarray(mode_profile, dtype=complex)
    if prof.shape != (space.disc.n_modes,):
        raise ValidationError("mode profile length must match the mode count")
    if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(prof))):
        raise ValidationError("detector vector and mode profile must be finite")
    nrm = np.linalg.norm(prof)
    if nrm == 0 or not np.any(dv):
        raise ValidationError(
            "detector vector and mode profile must be nonzero")
    prof = prof / nrm
    psi = np.zeros((4, space.reservoir_dim), dtype=complex)
    modes = np.nonzero(prof)[0]
    psi[:, space.rank(np.eye(len(prof), dtype=np.int64)[modes])] += (
        np.outer(dv, prof[modes]))
    return psi.ravel() / np.linalg.norm(psi)


def assemble_L0(space: TruncatedFock, E: float) -> LiouvilleanOperator:
    """Free generator: detector splitting plus second-quantized frequency.

    Diagonal in the occupation basis apart from the (diagonal) 4x4 detector
    block; warns when reservoir sums collide with {0, +-E} exactly, since a
    resonant grid keeps a large degenerate kernel at every coupling.
    """
    if E <= 0:
        raise ValidationError("detector gap must be positive")
    diag = space.free_energies(E)
    hit = np.abs(diag.reshape(4, space.reservoir_dim)) < 1e-12
    hit[[0, 3], space.vacuum] = False    # the equilibrium kernel itself
    collisions = list(zip(*np.nonzero(hit)))
    if collisions:
        listing = ", ".join(
            "(detector %d, occupation %s)" % (d, tuple(int(x) for x in space.basis[r]))
            for d, r in collisions[:8])
        more = "" if len(collisions) <= 8 else " and %d more" % (len(collisions) - 8)
        warnings.warn(
            "resonant mode grid: %d reservoir sums collide with {0, +-E}: %s%s"
            % (len(collisions), listing, more), ResonanceWarning, stacklevel=2)
    return LiouvilleanOperator(matrix=sp.diags(diag).tocsr(), lam=0.0,
                               gap=float(E), space=space)


def _coupling_factors(space: TruncatedFock, G: np.ndarray):
    """The Hermitian part of G, Phi(f) and Phi(e^{-beta s/2} f), checked."""
    G = _hermitian_2x2(G, "monopole matrix")
    G = (G + G.conj().T) / 2.0
    if np.max(np.abs(G.imag)) == 0.0:
        G = G.real
    disc = space.disc
    phi, phi_conj = space._field_matrices(
        disc.f, np.exp(-disc.beta * disc.s / 2.0) * disc.f)
    _check_hermitian(phi, "I")
    _check_hermitian(phi_conj, "JIJ")
    return G, phi, phi_conj


def _detector_factors(G):
    """The 4x4 detector factors of I and JIJ: G x 1 and 1 x conj(G)."""
    I2 = sp.identity(2, format="csr")
    return (sp.kron(sp.csr_matrix(G), I2, format="csr"),
            sp.kron(I2, sp.csr_matrix(G).conj(), format="csr"))


def _kron(factor, field, parts=None) -> sp.csr_matrix:
    """factor x field, for a 4x4 detector factor and a reservoir field.

    With parts, only its principal submatrix on the full-space rows d*R +
    parts[d] (each ascending) is built, from the rows parts[d] of the
    field: block (d, e) holds factor[d, e] times the entries of those rows
    in the columns parts[e], each the same product that the full
    Kronecker product forms, so every entry has the same bits.  The
    blocks' entries are gathered as coordinates and sorted into CSR once.
    """
    if parts is None:
        return sp.kron(factor, field, format="csr")
    coef = factor.toarray()
    sizes = [len(part) for part in parts]
    start = np.cumsum([0] + sizes)
    index = np.int32 if start[-1] < 2 ** 31 else np.int64
    rows, cols, vals = [], [], []
    for d in range(4):
        targets = [e for e in range(4) if coef[d, e] != 0 and sizes[e]]
        if not (sizes[d] and targets):
            continue
        band = field[parts[d]]
        band_rows = np.repeat(np.arange(start[d], start[d + 1], dtype=index),
                              np.diff(band.indptr))
        for e in targets:
            where = np.full(field.shape[1], -1, dtype=index)
            where[parts[e]] = np.arange(start[e], start[e + 1], dtype=index)
            col = where[band.indices]
            keep = col >= 0
            rows.append(band_rows[keep])
            cols.append(col[keep])
            vals.append(coef[d, e] * band.data[keep])
    dtype = np.result_type(factor.dtype, field.dtype)
    if not vals:
        return sp.csr_matrix((start[-1], start[-1]), dtype=dtype)
    return sp.csr_matrix((np.concatenate(vals).astype(dtype, copy=False),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(start[-1], start[-1]))


def _interaction(G, phi, parts=None) -> sp.csr_matrix:
    """I = G x 1 x phi (on parts, see _kron)."""
    return _kron(_detector_factors(G)[0], phi, parts)


def _difference(G, I_mat, phi_conj, parts=None) -> sp.csr_matrix:
    """V = I - JIJ, with JIJ = 1 x conj(G) x phi_conj (on parts)."""
    return (I_mat - _kron(_detector_factors(G)[1], phi_conj, parts)).tocsr()


def _row_parts(rows, R):
    """The reservoir rows r of each detector index d with d*R + r among
    the ascending full-space rows; None for rows None (the full space)."""
    if rows is None:
        return None
    bounds = np.searchsorted(rows, R * np.arange(5))
    return [rows[bounds[d]:bounds[d + 1]] - d * R for d in range(4)]


def _sector_rows(space: TruncatedFock, links, v) -> np.ndarray:
    """The full-space rows of the sector that v reaches, ascending.

    Every reservoir field changes the boson total N by one, so a generator
    diag + sum of (detector factor) x (field) maps the rows of detector
    index d and parity N mod 2 = p only to those of an index e with
    links[d, e] (the factors' 4x4 pattern) and parity 1 - p.  The sector
    is the union of the classes (d, p) that a search of this 8-node graph
    reaches from the classes on which v is nonzero; the generator leaves
    it invariant.  A v of any other shape than (space.dim,) raises
    ValidationError; a zero v reaches no row.
    """
    v = np.asarray(v)
    if v.shape != (space.dim,):
        raise ValidationError("initial vector must have shape (%d,), got %s"
                              % (space.dim, v.shape))
    R = space.reservoir_dim
    parity = space.basis.sum(axis=1) % 2
    links = np.asarray(links, dtype=bool)
    reached = np.zeros((4, 2), dtype=bool)
    start = np.flatnonzero(v)
    reached[start // R, parity[start % R]] = True
    while True:
        # class (d, p) is reached from (e, 1 - p) where links[d, e]
        grown = reached | (links.astype(int) @ reached[:, ::-1] > 0)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return np.concatenate([d * R + np.flatnonzero(reached[d][parity])
                           for d in range(4)])


def assemble_coupling(space: TruncatedFock, G: np.ndarray):
    """Interaction I = G x 1 x Phi(f) and V = I - (its modular conjugate).

    The conjugate is taken in closed form: 1 x conj(G) x Phi(e^{-beta s/2} f),
    which uses the detailed-balance property of the glued amplitudes and
    avoids constructing J.

    Hermiticity is checked only where outside data comes in: G must pass
    _hermitian_2x2 and is replaced by its exact Hermitian part (G + G^H)/2,
    which changes no bit of an exactly Hermitian G, and each Phi (of
    reservoir dimension) is checked once, raising StructuralError "I is
    not Hermitian" or "JIJ is not Hermitian".  Every later step keeps
    exact Hermiticity in IEEE arithmetic: mirrored entries of a Kronecker
    product are products of conjugate factors, mirrored entries of a
    difference are differences of conjugates, and L0 + lam V adds a real
    diagonal.  So I, V and every generator built from them are exactly
    Hermitian without a check over the full dimension.
    """
    G, phi, phi_conj = _coupling_factors(space, G)
    I_mat = _interaction(G, phi)
    return I_mat, _difference(G, I_mat, phi_conj)


def assemble_factors(space: TruncatedFock, E: float, G: np.ndarray,
                     lam: float) -> LiouvilleanOperator:
    """The coupled generator L0 + lam*(I - JIJ) on no rows: its factors.

    The operator holds the coupling's factors (the Hermitian part of G and
    the two reservoir field matrices, checked as in assemble_coupling),
    the gap and lam, and a 0 x 0 matrix (rows empty).  That is all that
    INITIAL_STATES and perturbed_kms_vector(I_mat=None) read, so a start
    can be built before any row is assembled, and on_sector then
    assembles the generator on that start's sector alone.
    """
    L0 = assemble_L0(space, E)
    G, phi, phi_conj = _coupling_factors(space, G)
    rows = np.empty(0, dtype=np.intp)
    return replace(L0, G=G, phi=phi, phi_conj=phi_conj,
                   rows=rows).with_lambda(lam)


def assemble_liouvillean(space: TruncatedFock, E: float, G: np.ndarray,
                         lam: float) -> LiouvilleanOperator:
    """Full coupled generator L0 + lam*(I - JIJ).

    It keeps the generator and the coupling's factors (the Hermitian part
    of G and the two reservoir field matrices), checked as in
    assemble_coupling; I and V are rebuilt from them on access.  To
    propagate one start, on_sector assembles only the half of it (for an
    off-diagonal G) that the start reaches.
    """
    return replace(assemble_factors(space, E, G, lam),
                   rows=None).with_lambda(lam)


class ModularConjugation:
    """Anti-unitary J: detector factor swap and mode mirror, with conjugation.

    The reservoir part maps occupation of mode s_j to its mirror -s_j and
    multiplies by (-e^{i zeta}) per quantum; the detector part exchanges the
    two C^2 factors.  Applied as J v = phases * conj(v o permutation).
    """

    def __init__(self, space: TruncatedFock):
        self.space = space
        disc = space.disc
        B = space.basis
        perm_r = space.rank(B[:, disc.mirror_index()])
        self._perm = (np.array([[0], [2], [1], [3]]) * space.reservoir_dim
                      + perm_r).ravel()
        self._phase = np.tile(gluing_phase(disc.zeta) ** B.sum(axis=1), 4)
        if np.max(np.abs(self._phase.imag)) == 0.0:
            self._phase = self._phase.real

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty(len(vec), dtype=complex)
        out[self._perm] = self._phase * np.conj(vec)
        if np.isrealobj(vec) and np.isrealobj(self._phase):
            return out.real
        return out

    def conjugate_matrix(self, M) -> sp.csr_matrix:
        """Return J M J as a sparse matrix (for antisymmetry checks)."""
        P = sp.csr_matrix(
            (self._phase, (self._perm, np.arange(len(self._perm)))),
            shape=M.shape)
        return (P @ M.conj() @ P.conj()).tocsr()


def perturbed_kms_vector(L0: LiouvilleanOperator, I_mat, lam: float,
                         beta: float, consistency_tol: float = 1e-9):
    """Normalized e^{-beta(L0 + lam I)/2} Omega_0 by a Chebyshev expansion.

    L0 + lam I is assembled only on Omega_0's I-sector, the rows that I
    reaches from Omega_0: I flips only the observable-side detector index
    and changes N by one, so for an off-diagonal G that is half the space.
    I_mat is the full-space interaction, of which the principal submatrix
    on the rows its pattern reaches from Omega_0 is taken.  I_mat None
    takes the interaction of the first argument's own factors, built on
    the I-sector alone from slices of Phi(f) (see _sector_rows and _kron),
    with no full-space matrix; an argument without factors then raises
    ValidationError.  Of the first argument only ``space`` and ``gap`` are
    read besides: L0 is their diagonal free_energies, so any operator on
    the space, free or coupled, may be passed.

    Only the block of that operator that Omega_0 reaches is expanded,
    scaled into [-1, 1] as in ``evolve``: with B = center + half H the
    action is e^{-x H} Omega_0 with x = beta * half / 2, up to a factor
    that the normalization removes.  It is applied in equal sub-steps of
    at most _DECAY_SPAN.  Each sub-step is one recurrence, which stops
    after the last coefficient 2 (-1)^k I_k of e^{-x t} above 1e-16 e^x
    (see _chebyshev_rows: 18 terms at x = 2), runs only its folds on the
    executor of _job_runner (one worker thread opened for the call from
    _WORKER_MIN_ROWS rows on, the calling thread below, the same bits
    either way), and peaks at about 2 * _CHEBYSHEV_CHUNK + 4 real vectors
    of the block's length.  A full step against two-half-step consistency
    check guards the expansion: the two half steps take twice as many
    sub-steps of half the length.
    Disagreement raises a numerical error carrying the residual; beta must
    be positive and finite, and lam finite.
    """
    if not 0.0 < beta < math.inf:
        raise ValidationError("beta must be positive and finite, got %s"
                              % beta)
    if not math.isfinite(lam):
        raise ValidationError("coupling lam must be finite, got %s" % lam)
    space = L0.space
    omega0 = gns_vacuum(space, L0.gap, beta)
    if lam == 0.0:
        return omega0.copy()
    if I_mat is None:
        if L0.G is None:
            raise ValidationError(
                "operator lacks an interaction part; pass I_mat")
        factor = _detector_factors(L0.G)[0]
        rows = _sector_rows(space, factor.toarray() != 0, omega0)
        I_mat = _kron(factor, L0.phi, _row_parts(rows, space.reservoir_dim))
    else:
        I_mat = sp.csr_matrix(I_mat)
        rows = _reach(I_mat, omega0)
        I_mat = I_mat[rows][:, rows]
    A = (sp.diags(space.free_energies(L0.gap)[rows]) + lam * I_mat).tocsr()
    del I_mat
    block, H2, _, half = _reached_block(A, omega0[rows])
    del A       # the expansion reads only H2
    index = rows[block]
    x = beta * half / 2.0
    n_sub = max(1, math.ceil(x / _DECAY_SPAN))

    def decay(n):
        """e^{-x H} Omega_0 on the block, in n equal sub-steps."""
        rows = _chebyshev_rows([x / n], decay=True)
        v = omega0[index]
        for _ in range(n):
            (v,), _ = _chebyshev_window(H2, v, rows, 1.0, pool)
        return v

    with _job_runner(len(block)) as pool:    # for the folds
        full = decay(n_sub)
        twice = decay(2 * n_sub)
    scale = math.sqrt(_norm2(full))
    if scale == 0.0 or not np.all(np.isfinite(full)):
        raise NumericalError("exponential action diverged")
    residual = math.sqrt(_norm2(full - twice)) / scale
    if not residual <= consistency_tol:
        raise NumericalError(
            "exponential action failed to converge: half-step residual %s"
            % fmt17(residual))
    omega = np.zeros(space.dim, dtype=full.dtype)
    omega[index] = full / scale
    return omega


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int
    theta: float
    norm_estimate: float
    residual_max: float
    method: str
    lu_nnz: int
    solves: int


# The column orders of kernel_splitting_sweep's factorizations, one per
# sparsity pattern, as (indptr, indices, order); None outside a sweep.
_column_orders: ContextVar[list | None] = ContextVar("_column_orders",
                                                     default=None)


def _shifted_lu(M, sigma):
    """Sparse LU of A = M - sigma and the column order its solves undo.

    The generator's pattern is symmetric, and a minimum-degree ordering of
    A^T + A keeps the LU fill some 30 times below the default column
    ordering on the criterion-8 operator.  Outside a sweep every call
    computes that ordering, and the order returned is None.  Inside
    kernel_splitting_sweep the first A of each CSC pattern (indptr and
    indices exactly equal) keeps order = argsort(perm_c), and a later A of
    that pattern is factorized as A[:, order] under the NATURAL ordering:
    SuperLU's reuse of a column order for a matrix of the same pattern
    (X. S. Li, ACM TOMS 31 (2005) 302).  The solution of A x = b is then
    x[order] = y for the y these factors give, bit for bit the solution
    under the ordering computed afresh.  The unpermuted A is released
    before the factorization; the sweep keeps only its pattern.
    """
    A = (M - sigma * sp.identity(M.shape[0])).tocsc()
    known = _column_orders.get()
    for indptr, indices, order in known or ():
        if (np.array_equal(indptr, A.indptr)
                and np.array_equal(indices, A.indices)):
            A = A[:, order]
            return spla.splu(A, permc_spec="NATURAL"), order
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    if known is not None:
        known.append((A.indptr, A.indices, np.argsort(lu.perm_c)))
    return lu, None


def spectrum_scan(L: LiouvilleanOperator, theta: float | None = None,
                  k: int = 12, method: str = "shift-invert") -> SpectrumReport:
    """Eigenpairs nearest zero and the numerical kernel dimension.

    One path: L - sigma (sigma = 1e-7 * max(||L||, 1)) is factorized once by
    sparse LU under a minimum-degree ordering of the symmetric pattern
    A^T + A (inside kernel_splitting_sweep, the order an earlier scan of
    the same pattern computed; see _shifted_lu), and shift-invert Lanczos
    returns the k eigenpairs closest to sigma, ordered by |eigenvalue|.
    Their residuals must stay below 1e-9 * max(||L||, 1) or a
    NumericalError is raised.  The solve starts from a seeded random
    vector, so reruns agree bit for bit; the report records the L+U fill
    and the number of solves.  When all k eigenvalues lie below theta the
    kernel may be larger than k, and a NumericalError is raised rather
    than a kernel dimension that is only a lower bound.
    At most dim - 2 eigenpairs are returned, so an operator below
    dimension 3 raises a ValidationError.  method="dense" instead returns
    the full dense eigendecomposition.  Only tests pass it, and it stays:
    it is their reference for the sparse path, and the benchmark's tracer
    counts sparse scans by the report's method.  The threshold
    theta defaults to 1e-8 * ||L|| (infinity norm proxy) and is reported so
    the kernel count is auditable; a warning fires when an eigenvalue
    magnitude falls within a factor of 3 of theta.
    """
    norm = L.norm_estimate()
    if theta is None:
        theta = 1e-8 * max(norm, 1.0)
    theta = float(theta)
    residual_max, lu_nnz, solves = 0.0, 0, 0
    if method == "dense":
        vals, vecs = np.linalg.eigh(L.matrix.toarray())
    elif method == "shift-invert":
        n_eig = min(k, L.dim - 2)
        if n_eig < 1:
            raise ValidationError(
                "shift-invert needs 1 <= k < dim - 1; got k=%d at dim %d"
                % (k, L.dim))
        sigma = 1e-7 * max(norm, 1.0)
        lu, perm = _shifted_lu(L.matrix, sigma)

        def solve(b):
            nonlocal solves
            solves += 1
            y = lu.solve(b)
            if perm is None:
                return y
            x = np.empty_like(y)
            x[perm] = y
            return x

        # A seeded random start makes reruns bit-identical.  A constant
        # start would not do: single-vector Lanczos from it sees only one
        # direction of an exactly degenerate kernel.
        v0 = np.random.default_rng(0).standard_normal(L.dim)
        vals, vecs = spla.eigsh(
            L.matrix, k=n_eig, sigma=sigma, which="LM", v0=v0,
            OPinv=spla.LinearOperator(L.matrix.shape, matvec=solve,
                                      dtype=L.matrix.dtype))
        # SuperLU caches the L and U it builds: free them with the factors
        lu_nnz = int(lu.L.nnz + lu.U.nnz)
        del lu, solve
        res = L.matrix @ vecs - vecs * vals
        residual_max = float(np.max(np.linalg.norm(res, axis=0)))
        if residual_max > 1e-9 * max(norm, 1.0):
            raise NumericalError(
                "shift-invert eigenpairs miss the residual bound: %s > %s"
                % (fmt17(residual_max), fmt17(1e-9 * max(norm, 1.0))))
    else:
        raise ValidationError("unknown spectrum method %r" % (method,))
    order = np.argsort(np.abs(vals))
    eigs, vecs = vals[order], vecs[:, order]
    mags = np.abs(eigs)
    kernel_dim = int(np.sum(mags < theta))
    if method == "shift-invert" and kernel_dim == len(eigs):
        raise NumericalError(
            "all %d shift-invert eigenvalues lie below theta=%s: the kernel "
            "dimension is only bounded below; raise k"
            % (len(eigs), fmt17(theta)))
    below = mags[mags < theta]
    above = mags[mags >= theta]
    gap_below = float(np.max(below)) if len(below) else 0.0
    gap_above = float(np.min(above)) if len(above) else math.inf
    near = (mags > theta / 3.0) & (mags < theta * 3.0)
    if np.any(near):
        warnings.warn(
            "kernel threshold theta=%s sits inside an eigenvalue cluster: "
            "largest magnitude below theta %s, smallest above %s"
            % (fmt17(theta), fmt17(gap_below), fmt17(gap_above)),
            AmbiguousThresholdWarning, stacklevel=2)
    return SpectrumReport(eigenvalues=eigs, eigenvectors=vecs,
                          kernel_dim=kernel_dim, theta=theta,
                          norm_estimate=norm, residual_max=residual_max,
                          method=method, lu_nnz=lu_nnz, solves=solves)


@dataclass
class SweepReport:
    lambdas: np.ndarray
    gaps: np.ndarray
    kernel_dims: np.ndarray
    fit_exponent: float
    predicted_prefactor: float
    theta: float
    lu_nnz: int
    solves: int


def kernel_splitting_sweep(space: TruncatedFock, E: float, G: np.ndarray,
                           lambdas: Sequence[float]) -> SweepReport:
    """Track the splitting of the free kernel pair over a coupling sweep.

    L0 is diagonal, so its kernel K is spanned by the unit vectors where
    |diag L0| < theta.  At each coupling the eigenvector nearest zero is
    set aside (the coupled KMS vector); of the rest, the one with the
    largest weight on K is the partner of the split pair, and its
    eigenvalue magnitude is the gap column.  The exponent is a
    least-squares fit of log(gap) against log(lambda) over the positive
    couplings, so fewer than two positive couplings raise a
    ValidationError before any scan; a zero gap among them gives a NaN
    exponent.  The second-order prediction of the splitting is lambda^2
    times the largest |eigenvalue| of the level-shift matrix
    M = -K^T V L0^+ V K (predicted_prefactor); an AmbiguousThresholdWarning
    names each positive coupling whose predicted splitting falls below
    3 theta, where the kernel count cannot tell the split pair apart (an
    empty kernel gives a NaN prediction, which never warns).
    lu_nnz is the largest LU fill of the sweep's scans and solves their
    total solve count.  The scans whose shifted generators share a sparsity
    pattern (every positive coupling, on an operator whose entries do not
    cancel) share one minimum-degree column order, computed by the first
    of them and dropped when the sweep returns or raises (_shifted_lu); the
    reports are bit for bit those of separate spectrum_scan calls.
    """
    lambdas = np.asarray(list(lambdas), dtype=float)
    posmask = lambdas > 0
    if np.sum(posmask) < 2:
        raise ValidationError(
            "the splitting exponent is fitted over the positive couplings: "
            "need at least two, got %d" % np.sum(posmask))
    for lam in lambdas:
        if not math.isfinite(lam):
            raise ValidationError("coupling lam must be finite, got %s" % lam)
    L0 = assemble_L0(space, E)
    V = assemble_coupling(space, G)[1]     # built once, held for the sweep
    d0 = space.free_energies(E)
    token = _column_orders.set([])    # one column order per pattern
    try:
        reports = [spectrum_scan(replace(
            L0, matrix=(sp.diags(d0) + lam * V).tocsr(), lam=float(lam)))
            for lam in lambdas]
    finally:
        _column_orders.reset(token)
    theta_used = float(reports[-1].theta)
    kernel = np.abs(d0) < theta_used
    gaps = []
    for rep in reports:
        weight = np.linalg.norm(rep.eigenvectors[kernel, 1:], axis=0)
        gaps.append(float(abs(rep.eigenvalues[1 + np.argmax(weight)])))
    VK = V[:, np.nonzero(kernel)[0]]
    del V
    pinv = np.zeros_like(d0)
    pinv[~kernel] = 1.0 / d0[~kernel]
    M = -(VK.conj().T @ (sp.diags(pinv) @ VK)).toarray()
    predicted = (float(np.max(np.abs(np.linalg.eigvalsh(M))))
                 if M.size else math.nan)
    for lam, rep in zip(lambdas, reports):
        split = lam ** 2 * predicted
        if lam > 0 and split < 3.0 * rep.theta:
            warnings.warn(
                "predicted splitting %s at lambda=%s is below 3 theta "
                "(theta=%s): the kernel count there may include the split "
                "partner" % (fmt17(split), fmt17(lam), fmt17(rep.theta)),
                AmbiguousThresholdWarning, stacklevel=2)
    gaps = np.asarray(gaps)
    fit_p = math.nan
    if np.all(gaps[posmask] > 0):
        fit_p = float(np.polyfit(np.log(lambdas[posmask]),
                                 np.log(gaps[posmask]), 1)[0])
    return SweepReport(lambdas=lambdas, gaps=gaps,
                       kernel_dims=np.asarray([r.kernel_dim for r in reports],
                                              dtype=int),
                       fit_exponent=fit_p,
                       predicted_prefactor=predicted, theta=theta_used,
                       lu_nnz=max(r.lu_nnz for r in reports),
                       solves=sum(r.solves for r in reports))


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray
    norm_drift: float
    energy_drift: float
    matvecs: int


# One Chebyshev recurrence serves every output time within _WINDOW_SPAN
# radians (of the scaled block) of the window's start, at most
# _WINDOW_OUTPUTS of them.  A phase of x radians needs about x + O(x^{1/3})
# terms, so each recurrence pays a tail of terms past its farthest time.
# On the default rte-evolve block (6.13 radians a grid step) the rows of a
# window of fourteen steps end at terms 29, 40, 49, ..., 128 and 136: 9.7
# terms a step, against 11.4 for eight steps and 29 for one.  The output
# count bounds evolve's memory (one slot per output and one more), the
# span the coefficient rows (141 terms); a farther grid point is reached
# in equal sub-steps.
_WINDOW_SPAN = 90.0
_WINDOW_OUTPUTS = 14
_CHEBYSHEV_CHUNK = 8
# A chunk of T_k vectors is folded into a window's sums through a scratch of
# this many columns, in place of a temporary of the block's length.
_FOLD_COLUMNS = 8192
# The folds and steps of a block of fewer rows run on the calling thread,
# where handing them to a worker and back costs more than it overlaps.
# rte-evolve at t_max = 98.5, called in process with BLAS on one thread
# (2-core host, medians of 8 to 16 alternating runs, inline against
# worker): 650 rows 0.060 against 0.102 s, 1 878 rows 0.141 against
# 0.165 s, 2 574 rows 0.135 s each, 3 452 rows 0.216 against 0.206 s,
# 5 802 rows 0.404 against 0.304 s.
_WORKER_MIN_ROWS = 2500

# The coefficients 2 (-1)^k I_k(x) of e^{-x t} add up to about e^x in
# magnitude, while e^{-x H} v stays of the order of v where H is near 0:
# one expansion of a large x loses a factor e^x to cancellation (3e-7 at
# x = 20 on the default rte-evolve block).  Sub-steps of at most
# _DECAY_SPAN keep the loss below e^2; the block's grading (free energies
# on the diagonal, a weak coupling off it) keeps the rounding of one
# sub-step from being amplified by the later ones.
_DECAY_SPAN = 2.0
# Miller's backward recurrence for a row starts this many terms past the
# row's a-priori length, where the Bessel values have fallen by about
# 0.3^8 or more, so its starting error stays far below rounding.
_MILLER_MARGIN = 8


def _a_priori_length(x: float, decay: bool) -> int:
    """The first n >= 2 at which 2 (x/2)^n / n! falls below 1e-16, times
    e^x with ``decay``, for x >= 0: |J_k(x)| <= (x/2)^k / k! and
    I_k(x) <= e^x (x/2)^k / k!, and the later terms fall off faster still."""
    growth = x if decay else 0.0
    n = 2
    while x > 0.0 and (math.log(2.0) + n * math.log(x / 2.0)
                       - math.lgamma(n + 1) + growth > math.log(1e-16)):
        n += 1
    return n


def _bessel_row(x: float, decay: bool) -> np.ndarray:
    """One row of _chebyshev_rows, cut after its last coefficient above
    1e-16 (1e-16 e^{|x|} with ``decay``)."""
    a = abs(x)
    if a <= 1e-16:    # J_0(x) = I_0(x) = 1 and 2 |J_1(x)| = |x| in doubles
        return np.ones(1)
    n = _a_priori_length(a, decay) + _MILLER_MARGIN
    sign = 1.0 if decay else -1.0
    f = [0.0] * (n + 2)
    f[n] = 1.0
    for k in range(n, 0, -1):   # f_{k-1} = (2k/a) f_k -+ f_{k+1}
        f[k - 1] = 2.0 * k / a * f[k] + sign * f[k + 1]
    f = np.array(f[:n + 1])
    # rows hold 2 (-1)^k I_k(x) or 2 (-1)^{k/2} J_k(x), J_0 and I_0 without
    # the 2, where I_k(-a) = (-1)^k I_k(a) and J_k(-a) = (-1)^k J_k(a)
    k = np.arange(n + 1)
    if decay:   # I_0 + 2 sum I_k = e^a
        f *= math.exp(a) / (f[0] + 2.0 * f[1:].sum())
        signs = (-1.0) ** k if x > 0 else 1.0
        cut = 1e-16 * math.exp(a)
    else:       # J_0 + 2 sum J_2k = 1
        f /= f[0] + 2.0 * f[2::2].sum()
        signs = (-1.0) ** (k // 2 + (k if x < 0 else 0))
        cut = 1e-16
    f *= 2.0 * signs
    f[0] /= 2.0
    return f[:np.nonzero(np.abs(f) > cut)[0][-1] + 1]


def _chebyshev_rows(xs, decay: bool = False) -> np.ndarray:
    """Chebyshev coefficients on [-1, 1], one row for each x in xs.

    Row j expands cos(x_j t) + sin(x_j t): the coefficients 2 (-i)^k J_k(x_j)
    of e^{-i x_j t} (Jacobi-Anger; J_0 without the 2) with the odd ones
    multiplied by i, so that every row is real.  With ``decay`` row j
    expands e^{-x_j t}, whose coefficients are 2 (-1)^k I_k(x_j).  The
    Bessel values come from Miller's backward recurrence (Abramowitz &
    Stegun 9.12), started _MILLER_MARGIN terms past the row's a-priori
    length (see _a_priori_length) and normalized by the Neumann sum
    J_0 + 2 sum J_2k = 1 (I_0 + 2 sum I_k = e^x with ``decay``).  Each
    row is cut after its own last coefficient above 1e-16 (1e-16 e^{|x_j|}
    with ``decay``), where its true tail lies below that, and padded with
    zeros to the longest row's length.
    """
    cut = [_bessel_row(float(x), decay) for x in np.ravel(xs)]
    rows = np.zeros((len(cut), max(len(row) for row in cut)))
    for out, row in zip(rows, cut):
        out[:len(row)] = row
    return rows


def _chebyshev_window(H2, v, rows, odd_factor, pool, out=None, done=None):
    """Every row of Chebyshev coefficients applied to v, from one recurrence.

    H2 is twice the scaled block (see _reached_block).  Adds to out[j] the
    sum over even k of rows[j, k] T_k(H) v plus odd_factor times the sum
    over odd k, taken up to row j's last nonzero coefficient, and returns
    (out, products); without out, the sums go to zeros of the result type.
    products counts the products with H2: one fewer than the longest row's
    length for each recurrence.  A real H2 with a complex out acts on the
    real and imaginary parts of v apart, as real recurrences that fold
    their sums straight into out.real and out.imag: two real products cost
    half of one complex product, v is never cast to complex (a real CSR
    matrix times a complex vector is a complex product), and a part that
    is all zero is not run.  The recurrences run one after the other and
    share one ring of vectors and one fold scratch; the folds run on pool
    (see _job_runner), and out is complete on return.

    done, if given, is submitted to pool as done(j) for each row j, in row
    order, by the last recurrence right after the fold that completes
    row j (see _recurrence); the call does not wait for these jobs.
    """
    m, length = rows.shape[0], len(v)
    # each row's length, up to its last nonzero coefficient
    lengths = (rows.shape[1]
               - np.argmax(rows[:, ::-1] != 0.0, axis=1)).tolist()
    if out is None:
        out = np.zeros((m, length),
                       dtype=np.result_type(H2.dtype, v.dtype, odd_factor))
    if np.iscomplexobj(H2.data) or not np.iscomplexobj(out):
        dtype = out.dtype
        parts = [(v.astype(dtype, copy=False),
                  [(0, rows.astype(dtype, copy=False), out),
                   (1, (odd_factor * rows).astype(dtype), out)])]
    else:   # part x of v adds unit (E x + odd_factor O x) to out, each
        # factor one of +-1 and +-i, so each sum goes to one of out's parts
        dtype = float
        parts = [(x, [(parity, weight * rows, target)
                      for parity, factor in ((0, unit), (1, unit * odd_factor))
                      for target, weight in ((out.real, factor.real),
                                             (out.imag, factor.imag))
                      if weight])
                 for x, unit in ((v.real, 1.0), (v.imag, 1j)) if x.any()]
    ring = np.empty((2 * _CHEBYSHEV_CHUNK, length), dtype=dtype)
    scratch = np.empty((m, min(length, _FOLD_COLUMNS)), dtype=dtype)
    products = sum(_recurrence(H2, x, folds, lengths, ring, scratch, pool,
                               done if p == len(parts) - 1 else None)
                   for p, (x, folds) in enumerate(parts))
    if done is not None and not parts:  # v is zero, and out complete as is
        for j in range(m):
            pool.submit(done, j)
    return out, products


def _recurrence(H2, x, folds, lengths, ring, scratch, pool, done):
    """T_k(H) x for every k below the longest of lengths, folded.

    Each fold (parity, coef, target) adds coef[j, k] T_k(H) x to target[j]
    for every k of that parity below lengths[j].  T_k = H2 T_{k-1} -
    T_{k-2}, with T_1 = 0.5 H2 T_0.  The products run on the calling
    thread and the folds on pool's one worker: ring holds two halves of
    _CHEBYSHEV_CHUNK vectors, and while the recurrence fills one half the
    worker folds the chunk in the other through scratch (see _fold_chunk);
    an inline pool folds each chunk as it is submitted.
    A half is overwritten only once its fold is done, and every fold is
    done on return; the worker takes the folds in submission order, so
    each target receives them in the order of k.

    done is None or a job of one row index: right after each fold it
    submits, the recurrence submits done(j) for every row j that the fold
    completes, in row order, and does not wait for it.  Row j counts as
    complete at max(lengths[:j + 1]) terms, so done(j) runs after every
    term of rows 0 to j is folded.  Returns the number of products with H2.
    """
    n = max(lengths)
    folding = [None, None]  # the fold job reading each half
    complete = np.maximum.accumulate(lengths) if done is not None else []
    j = 0   # the next row to hand over
    for k in range(n):
        c = k % len(ring)    # ring[c - 1] is T_{k-1}
        h, local = divmod(c, _CHEBYSHEV_CHUNK)
        if local == 0 and folding[h] is not None:
            folding[h].result()
        if k == 0:
            ring[0] = x
        elif k == 1:
            np.multiply(H2 @ ring[0], 0.5, out=ring[1])
        else:
            np.subtract(H2 @ ring[c - 1], ring[c - 2], out=ring[c])
        if local == _CHEBYSHEV_CHUNK - 1 or k == n - 1:
            folding[h] = pool.submit(_fold_chunk, folds, lengths, k - local,
                                     ring[c - local:c + 1], scratch)
            while j < len(complete) and complete[j] <= k + 1:
                pool.submit(done, j)
                j += 1
    for job in folding:
        if job is not None:
            job.result()
    return n - 1


class _Inline:
    """An executor whose jobs run on the calling thread as they are
    submitted, in the order one worker would take them.  A fold or a slot
    write raises nothing of its own, and a step keeps its exception (see
    evolve), so submit catches nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _job_runner(rows):
    """The executor of the folds and steps of a block of this many rows:
    one worker thread from _WORKER_MIN_ROWS rows on, the calling thread
    below (see _Inline)."""
    if rows >= _WORKER_MIN_ROWS:
        return ThreadPoolExecutor(max_workers=1)
    return _Inline()


def _fold_chunk(folds, lengths, k0, chunk, scratch):
    """Fold chunk, the vectors T_k0 ... T_{k0 + len(chunk) - 1}, into every
    fold's target (see _recurrence); k0 is even."""
    for parity, coef, target in folds:
        # row j takes the chunk's first need[j] terms of this parity; a
        # run of rows with equal need is folded at once
        first, terms = k0 + parity, (len(chunk) - 1 - parity) // 2 + 1
        need = [min(max((n_j - first + 1) // 2, 0), terms)
                for n_j in lengths]
        lo = 0
        for hi in range(1, len(need) + 1):
            if hi < len(need) and need[hi] == need[lo]:
                continue
            q = need[lo]
            if q:
                _fold(coef[lo:hi, first:first + 2 * q:2],
                      chunk[parity:parity + 2 * q:2], target[lo:hi], scratch)
            lo = hi


def _fold(coef, vectors, target, scratch):
    """target += coef @ vectors, _FOLD_COLUMNS columns at a time.

    By einsum, not a matrix product: a BLAS call wakes BLAS's thread pool,
    whose threads then spin and burn CPU time beside the sparse products.
    """
    width = scratch.shape[1]
    for lo in range(0, target.shape[1], width):
        part = scratch[:len(coef), :target.shape[1] - lo]
        np.einsum("jk,kn->jn", coef, vectors[:, lo:lo + width], out=part)
        cols = target[:, lo:lo + width]
        cols += part


def _dot(x, y) -> float:
    """Real inner product by einsum, not BLAS (see _fold)."""
    return float(np.einsum("i,i->", x, y))


def _norm2(x) -> float:
    """Squared Euclidean norm by einsum, which gives the same bits for any
    BLAS thread count."""
    if np.iscomplexobj(x):
        return _dot(x.real, x.real) + _dot(x.imag, x.imag)
    return _dot(x, x)


def _reach(M, v) -> np.ndarray:
    """The rows of the connected components of M's sparsity graph on which
    v is nonzero, ascending.

    They are found by a breadth-first search along the rows of CSR M from
    each nonzero of v not reached yet.  That search follows edges one way
    only, and it finds the components because every generator the library
    builds is exactly Hermitian (see assemble_coupling), so its pattern is
    symmetric; unlike an undirected search it copies no part of the
    pattern.
    """
    # imported here, not at the top: it adds about 5% to importing kmslab
    from scipy.sparse.csgraph import breadth_first_order
    pattern = sp.csr_matrix((np.broadcast_to(1.0, M.data.shape), M.indices,
                             M.indptr), shape=M.shape, copy=False)
    reached = np.zeros(M.shape[0], dtype=bool)
    for start in np.flatnonzero(v):
        if not reached[start]:
            reached[breadth_first_order(pattern, start, directed=True,
                                        return_predecessors=False)] = True
    return np.flatnonzero(reached)


def _reached_block(M, v):
    """The block of M that v reaches, scaled into [-1, 1] and doubled.

    The block is the union of the connected components of M's sparsity
    graph on which v is nonzero (see _reach); M stays exact on it.  A
    block of every row is M itself, not a copy.  Returns (block, H2,
    center, half) with H2 = 2 H and H = (M[block, block] - center) / half,
    shifted and scaled by the block's Gershgorin bounds.  H2 is built into
    arrays of exactly its entry count, the only set of arrays of the
    block's size that the call allocates besides a copied block (see
    _shifted); the radii sum the magnitudes of the entries without a copy
    of the pattern.  The factor 2 of the Chebyshev recurrence is taken
    here once; it is exact in binary floating point, so H2 @ x is exactly
    2 (H @ x).  A non-finite entry in the block raises NumericalError.
    """
    block = _reach(M, v)
    B = M if len(block) == M.shape[0] else M[block][:, block]
    diag = B.diagonal().real
    magnitudes = sp.csr_matrix((np.abs(B.data), B.indices, B.indptr),
                               shape=B.shape, copy=False)
    radius = np.asarray(magnitudes.sum(axis=1)).ravel() - np.abs(diag)
    del magnitudes
    hi, lo = np.max(diag + radius), np.min(diag - radius)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NumericalError("the reached block has a non-finite entry")
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if half == 0.0:   # B is a multiple of the identity
        half = 1.0
    H2 = _shifted(B, center)
    H2.data /= half
    H2.data *= 2.0
    return block, H2, float(center), float(half)


def _shifted(B, center) -> sp.csr_matrix:
    """B - center * 1 for a canonical CSR B, in new arrays of exactly its
    entry count.

    The entries and pattern are those of scipy's difference B - center *
    identity: each stored diagonal entry less center, -center inserted
    where a row stores no diagonal entry (none for center 0), and a
    diagonal entry that cancels exactly dropped.  The difference itself
    would keep one spare slot per row and need a copy to shed them.  Each
    row's diagonal slot, its first entry of column >= the row, is found
    by a bisection over all rows at once.
    """
    n = B.shape[0]
    cols, indptr = B.indices, B.indptr
    lo, hi = indptr[:-1].copy(), indptr[1:].copy()
    row = np.arange(n)
    while True:
        open_ = np.flatnonzero(lo < hi)
        if not len(open_):
            break
        mid = (lo[open_] + hi[open_]) // 2
        left = cols[mid] < row[open_]
        lo[open_[left]] = mid[left] + 1
        hi[open_[~left]] = mid[~left]
    inside = lo < indptr[1:]
    stored = np.zeros(n, dtype=bool)
    stored[inside] = cols[lo[inside]] == row[inside]
    missing = np.flatnonzero(~stored) if center != 0.0 else np.empty(0, int)
    data = np.insert(B.data, lo[missing], -center)
    indices = np.insert(cols, lo[missing], missing)
    added = np.zeros(n + 1, dtype=indptr.dtype)
    added[missing + 1] = 1
    shift = np.cumsum(added, dtype=indptr.dtype)
    at = (lo + shift[:-1])[stored]     # the stored diagonal entries
    data[at] -= center
    zero = at[data[at] == 0]
    if len(zero):       # an exact cancellation leaves the pattern
        data, indices = np.delete(data, zero), np.delete(indices, zero)
        dropped = np.zeros(n + 1, dtype=indptr.dtype)
        np.add.at(dropped, np.searchsorted(indptr + shift, zero,
                                           side="right"), 1)
        shift -= np.cumsum(dropped, dtype=indptr.dtype)
    return sp.csr_matrix((data, indices, indptr + shift), shape=B.shape)


def _windows(tgrid, half):
    """The windows of evolve: (start, times, on_grid) for each.

    A window holds the grid times within _WINDOW_SPAN radians of the scaled
    block from its start, at most _WINDOW_OUTPUTS of them, and starts at
    the last time of the window before it (at 0 for the first).  A grid time
    farther than that is reached in equal sub-steps of at most _WINDOW_SPAN,
    each a window of one time that is not a grid time (on_grid False).
    """
    start, i = 0.0, 0
    while i < len(tgrid):
        reach = half * abs(tgrid[i] - start)
        if reach > _WINDOW_SPAN:
            n_sub = math.ceil(reach / _WINDOW_SPAN)
            step = (tgrid[i] - start) / n_sub
            for _ in range(n_sub - 1):
                yield start, np.array([start + step]), False
                start += step
        j = i + 1
        while (j < len(tgrid) and j - i < _WINDOW_OUTPUTS
               and half * abs(tgrid[j] - start) <= _WINDOW_SPAN):
            j += 1
        yield start, tgrid[i:j], True
        start, i = tgrid[j - 1], j


def _prepare(out, negate, to=None, source=None):
    """A window's writes to evolve's slots ahead of its folds, one job.

    With to, chi at the window's start is first copied from the slot
    source into the slot to.  Then each slot of out, which holds
    chi(s - tau_j), becomes -conj chi(s - tau_j) with negate, and zero
    without.
    """
    if to is not None:
        to[...] = source
    if negate:
        out.real *= -1.0
    else:
        out[...] = 0.0


def evolve(L: LiouvilleanOperator, psi0: np.ndarray, tgrid: Sequence[float],
           observe: Callable | None = None) -> EvolutionResult:
    """Unitary propagation of a vector along an increasing time grid.

    psi0 is a full-space vector; on an operator of a sector (L.rows not
    None, see on_sector) it must vanish off L.rows, and its part on them
    is propagated.  Only the block B of L that psi0 reaches is propagated:
    the union of the connected components of L's sparsity graph on which
    psi0 is nonzero.  This is exact for the stored matrix.  A block of
    every row of L is L.matrix itself; any other is copied out of it
    (see _reached_block).  B = center + half H is shifted
    and scaled into [-1, 1] by its Gershgorin bounds, and the grid is cut
    into windows (see _windows): one Chebyshev series of
    W(tau) = e^{-i half H tau} (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)) runs from the state at the window's start and yields the
    state at each of its times.
    Each window's recurrence runs to the longest of its coefficient rows,
    and each output takes only the terms up to its own row's cut (see
    _chebyshev_rows); the rows of each distinct set of window offsets are
    built once per call.

    psi(t) = e^{-i center t} chi(t), where chi(t) = W(t) v0 propagates
    psi0's part v0 on the block.  On a real block with a real v0, the
    first window starts at chi(0) = v0 and takes one real recurrence.
    Since H is real, conj chi(t) = chi(-t), so W(tau) 2 Re chi(s) =
    chi(s + tau) + conj chi(s - tau): a window from s takes

        chi(s + tau_j) = W(tau_j) 2 Re chi(s) - conj chi(s - tau_j),

    one real recurrence on Re chi(s), whenever each s - tau_j is the start
    or an output time of the window before it, bitwise (the real wave
    packet of Gray & Balint-Kurti, J. Chem. Phys. 108, 950 (1998)).  On a
    uniform dyadic grid such as the default dt = 0.5, every window after
    the first does; otherwise (a grid that starts before 0, sub-steps,
    uneven or non-dyadic spacing) the window takes W(tau) chi(s) as two
    real recurrences, on Re chi(s) and Im chi(s).  Offsets that agree only
    to a tolerance are not taken, as each would add an error of about
    |B| times their difference.  Any other v0 takes W(tau) chi(s) in
    every window: two real recurrences on a real block (one in the first
    window where v0's real or imaginary part is all zero), one complex
    recurrence on a complex block.  A v0 = i r that is purely imaginary
    on a real block thus runs two recurrences per window where r would
    run one; W(t) v0 = i W(t) r, so a caller may propagate r instead.
    The loop makes no BLAS call, since one would wake BLAS's spinning
    thread pool.

    On a block of at least _WORKER_MIN_ROWS rows the work is split over
    two threads.  The sparse products of the recurrences run on the
    calling thread.  The folds of the series, and one step per grid time
    (its drift checks, ``observe`` call and record), run on the one worker
    of a pool that the call opens and joins; no thread outlives it,
    whether it returns or raises.  On a smaller block, where handing a
    job over costs more than it overlaps, the same jobs run on the calling
    thread as they are submitted, and no thread is started.  The worker
    takes its jobs in submission order, so every output is the same bits
    on either schedule.  The states live in one pool of slots, which holds
    chi at the last window's start and times.  A window writes its outputs
    in place into slots it no longer needs: in a leapfrog window, the slot of
    chi(s - tau_j) becomes -conj chi(s - tau_j) and then takes output j,
    and chi(s) stays where it is; any other window zeroes its slots.
    These writes are one job, queued after every step that reads those
    slots and before the window's first fold (a window whose slots would
    not fit beside chi(s) first moves chi(s), and waits for that job).
    Each step is queued, in grid order, right after the fold that
    completes its output (see _recurrence).  A step that fails keeps its
    exception, and the steps after it return at once, with no drift update
    and no ``observe`` call; the call raises that exception after the
    window in which it sees it, at the latest once the pool is joined.

    Besides L, only the scaled block is kept: arrays of one more matrix
    of the block's size, and no copy of the block itself where it is all
    of L, as on the sector of a start (on_sector), where L is half the
    full generator for an off-diagonal G.  The call holds the pool,
    _WINDOW_OUTPUTS + 1 complex vectors of the block's length, which v0
    seeds; a window adds a ring of 2 * _CHEBYSHEV_CHUNK (16) real vectors,
    a product in flight and a _WINDOW_OUTPUTS x _FOLD_COLUMNS fold
    scratch.  That is 2 * _WINDOW_OUTPUTS + 2 + 2 * _CHEBYSHEV_CHUNK + 1
    (47) real vectors of the block's length.  The steps share one state
    and hold the energy's products in flight, at most 5 real vectors of
    the block's length, and one full-space vector given to ``observe``, 2
    real vectors of length space.dim; the state and that vector are allocated
    once per call.  A window's steps hold a view of its slots, no vector
    of their own.  The coefficients and the bookkeeping do not grow with
    the block.

    Each state, as a full-space vector, is stored in ``states``, or, when
    ``observe`` is given, only ``observe(state)`` is.  ``observe`` runs on
    the worker, once per grid time in grid order, and its argument is a
    buffer that the next grid time overwrites: it must not modify the
    argument, nor keep it.  Norm and energy-expectation drift are checked
    at every grid time and must stay below 1e-10, otherwise (a non-finite
    state included) a numerical error reports the first failing step.  An
    exception raised by ``observe`` comes out of the call unchanged.  A
    psi0 that is not of the full space's shape, finite and normalized, or
    has weight off L.rows, and a time grid that is not nonempty, finite
    and increasing, raise ValidationError.  ``matvecs`` counts every
    product with the block, the drift checks' included.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if (len(tgrid) == 0 or not np.all(np.isfinite(tgrid))
            or np.any(np.diff(tgrid) <= 0)):
        raise ValidationError(
            "time grid must be nonempty, finite and increasing")
    psi0 = np.asarray(psi0)
    dim = L.dim if L.rows is None else L.space.dim
    if psi0.shape != (dim,):
        raise ValidationError("initial vector must have shape (%d,), got %s"
                              % (dim, psi0.shape))
    if not abs(math.sqrt(_norm2(psi0)) - 1.0) <= 1e-10:
        raise ValidationError("initial vector must be finite and normalized")
    v0 = psi0
    if L.rows is not None:
        v0 = psi0[L.rows]
        if np.count_nonzero(v0) != np.count_nonzero(psi0):
            raise ValidationError("initial vector has weight off the "
                                  "operator's sector")
    block, H2, center, half = _reached_block(L.matrix, v0)
    n = len(block)
    if L.rows is not None:      # from here on, the block's full-space rows
        block = L.rows if n == L.dim else L.rows[block]
    real = not np.iscomplexobj(H2.data)
    # the products of one energy(): two real ones for a real symmetric H2
    energy_products = 2 if real else 1
    rows = {}   # the coefficient rows of each distinct set of offsets

    def energy(psi):
        """<psi, B psi> = center |psi|^2 + half <psi, H2 psi> / 2."""
        if not real:
            h = H2 @ psi
            h_re, h_im = h.real, h.imag
        else:
            h_re, h_im = H2 @ psi.real, H2 @ psi.imag
        return (center * _norm2(psi)
                + 0.5 * half * (_dot(psi.real, h_re) + _dot(psi.imag, h_im)))

    # chi at the last window's start and times: slots[anchor] holds chi at
    # its last time, the next window's start, and slots[anchor - d * q]
    # chi at the q-th time before that, the start included
    slots = np.empty((min(_WINDOW_OUTPUTS, len(tgrid)) + 1, n),
                     dtype=complex)
    slots[0] = psi0[block]
    del v0      # a sector's copy of the start: the slots hold it now
    anchor, d = 0, 1
    past = np.empty(0)      # the last start and times
    e0 = energy(slots[0])
    # a real v0 on a real block leapfrogs
    leapfrog = real and not slots[0].imag.any()

    # what the steps write, on the worker alone
    psi = np.empty(n, dtype=complex)
    full = np.zeros(dim, dtype=complex)
    states = None
    norm_drift = 0.0
    energy_drift = 0.0
    checked = energy_products   # the products of the checks, e0's included
    failure = None      # the first exception of a step, raised by the caller

    def steps(i0, times, out):
        """The steps of a window whose outputs out are grid times i0 on:
        step(j) checks output j's drift and records it.  It keeps its
        exception in failure, and once a step has, returns at once."""
        phases = np.exp(-1j * center * times)

        def step(j):
            nonlocal states, norm_drift, energy_drift, checked, failure
            if failure is not None:
                return
            try:
                np.multiply(phases[j], out[j], out=psi)
                nd = abs(math.sqrt(_norm2(psi)) - 1.0)
                ed = abs(energy(psi) - e0)
                checked += energy_products
                norm_drift = max(norm_drift, nd)
                energy_drift = max(energy_drift, ed)
                if not nd <= 1e-10:
                    raise NumericalError(
                        "propagation norm drift %s at step %d (t=%s)"
                        % (fmt17(nd), i0 + j, fmt17(times[j])))
                if not ed <= 1e-10 * max(abs(e0), 1.0):
                    raise NumericalError(
                        "generator expectation drift %s at step %d (t=%s)"
                        % (fmt17(ed), i0 + j, fmt17(times[j])))
                full[block] = psi
                record = full if observe is None else observe(full)
                if states is None:
                    states = np.empty((len(tgrid),) + np.shape(record),
                                      dtype=np.result_type(record))
                states[i0 + j] = record
            except BaseException as exc:    # raised again on the caller
                failure = exc
        return step

    matvecs = 0     # the recurrences' products
    i = 0
    with _job_runner(n) as pool:
        for start, times, on_grid in _windows(tgrid, half):
            taus = times - start
            m = len(taus)
            key = taus.tobytes()
            if key not in rows:
                rows[key] = _chebyshev_rows(half * taus)
            # the offsets of the last window's times and start, nearest first
            back = start - past[-2::-1]
            reuse = (leapfrog and len(back) >= m
                     and np.array_equal(back[:m], taus))
            moved = ()
            if reuse:       # out[j] is the slot of chi(start - tau_j)
                d = -d
            elif anchor + m < len(slots):
                d = 1
            elif anchor >= m:
                d = -1
            else:   # no m slots in a row beside the anchor: it moves first
                moved, anchor, d = (slots[0], slots[anchor]), 0, 1
            out = slots[anchor + d::d][:m]
            # after every step that reads these slots, before any fold
            prepared = pool.submit(_prepare, out, reuse, *moved)
            if moved:
                prepared.result()   # the recurrence reads slots[0]
            done = None
            if on_grid:
                done = steps(i, times, out)
                i += m
            x, coef = ((slots[anchor].real, 2.0 * rows[key]) if reuse
                       else (slots[anchor], rows[key]))
            matvecs += _chebyshev_window(H2, x, coef, -1j, pool, out,
                                         done)[1]
            anchor += d * m
            past = np.append(start, times)
            if failure is not None:
                raise failure
    if failure is not None:     # a step queued after the last window's folds
        raise failure
    return EvolutionResult(times=tgrid, states=states, norm_drift=norm_drift,
                           energy_drift=energy_drift,
                           matvecs=matvecs + checked)


def reduce_detector(psi: np.ndarray, space: TruncatedFock) -> np.ndarray:
    """Physical 2x2 detector state from a doubled-space vector."""
    R = space.reservoir_dim
    P = np.asarray(psi).reshape(2, 2, R)
    return np.einsum("abn,cbn->ac", P, P.conj())


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    diff = np.asarray(rho1) - np.asarray(rho2)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def fgr_window(disc: ReservoirDiscretization, E: float,
               t_rec: float | None = None):
    """Suggested coupling window: decay before recurrence, still perturbative.

    Returns (lam_lo, lam_hi) with lam^2 * rho(E) between 5/T_rec and 0.2*E.
    Raises ValidationError where the window is empty, T_rec * E < 25, and
    where rho(E) underflows (E >= 19 by default).
    """
    if t_rec is None:
        t_rec = disc.recurrence_time()
    if not t_rec * E >= 25.0:
        raise ValidationError("gap %s: T_rec * E = %.3g is below 25, so no "
                              "coupling decays before the recurrence time "
                              "%.3g and stays perturbative" % (E, t_rec * E,
                                                               t_rec))
    rho = disc.spectral_density(E)
    with np.errstate(divide="ignore", over="ignore"):
        window = math.sqrt(5.0 / (t_rec * rho)), math.sqrt(0.2 * E / rho)
    if not all(map(math.isfinite, window)):
        raise ValidationError("gap %s: the spectral density there, %.3g, is "
                              "too small for a finite coupling window" % (E, rho))
    return window


@dataclass
class RTEReport:
    times: np.ndarray
    distances: np.ndarray
    crossing_time: float | None
    pre_recurrence_min: float
    reached: bool
    norm_drift: float
    energy_drift: float
    matvecs: int


def _dressed_reference(L: LiouvilleanOperator) -> np.ndarray:
    """Reduced perturbed KMS state at L's coupling, from its factors on
    Omega_0's I-sector (whatever L's rows)."""
    if L.G is None:
        raise ValidationError(
            "operator lacks an interaction part; pass a reference state")
    kms = perturbed_kms_vector(L, None, L.lam, L.space.disc.beta)
    return reduce_detector(kms, L.space)


def rte_distance_series(L: LiouvilleanOperator, initial: np.ndarray,
                        tgrid: Sequence[float],
                        reference: np.ndarray | None = None) -> RTEReport:
    """Reduced-detector trace distance to the dressed equilibrium state.

    The reference defaults to the reduced perturbed KMS vector at the
    operator's own coupling, i.e. the detector Gibbs state plus its O(lam)
    dressing; a reference passed in must be a 2x2 density matrix.  The
    crossing time is the first grid time before the recurrence time at
    which the distance falls below 0.05; failure to reach it is reported
    in the summary, not raised.
    """
    space = L.space
    t_rec = space.disc.recurrence_time()
    if reference is None:
        reference = _dressed_reference(L)
    else:
        reference = _density_2x2(reference, "reference")
    traj = evolve(L, initial, tgrid,
                  observe=lambda psi: reduce_detector(psi, space))
    dists = np.array([trace_distance(rho, reference) for rho in traj.states])
    pre = traj.times < t_rec
    below = pre & (dists < 0.05)
    if np.any(below):
        crossing = float(traj.times[np.argmax(below)])
        reached = True
    else:
        crossing = None
        reached = False
    pre_min = float(np.min(dists[pre])) if np.any(pre) else float(np.min(dists))
    return RTEReport(times=traj.times, distances=dists,
                     crossing_time=crossing, pre_recurrence_min=pre_min,
                     reached=reached, norm_drift=traj.norm_drift,
                     energy_drift=traj.energy_drift, matvecs=traj.matvecs)


_GROUND = np.array([0.0, 0.0, 0.0, 1.0])


def _gap_packet(L: LiouvilleanOperator) -> np.ndarray:
    """Gaussian profile of width 0.3 on the positive modes, centred on the gap."""
    s = L.space.disc.s
    return np.exp(-(((s - L.gap) / 0.3) ** 2)) * (s > 0)


def _entangled_initial(L: LiouvilleanOperator) -> np.ndarray:
    psi = np.zeros(L.space.dim, dtype=complex)
    psi[L.space.vacuum] = 1.0 / math.sqrt(2.0)
    psi += one_boson_initial(L.space, _GROUND, _gap_packet(L)) / math.sqrt(2.0)
    return psi / np.linalg.norm(psi)


# Initial states of the return-to-equilibrium runs, by name, built from the
# coupled generator's space, gap and factors (its rows are not read, so the
# operator of assemble_factors serves): the excited detector or the reduced
# perturbed KMS state times the reservoir vacuum, one boson in the gap
# packet on the ground vector, and the normalized sum of that and the ++
# vacuum vector.
INITIAL_STATES = {
    "excited": lambda L: product_initial(L.space, np.diag([1.0, 0.0])),
    "one-boson": lambda L: one_boson_initial(L.space, _GROUND, _gap_packet(L)),
    "entangled": _entangled_initial,
    "stationary": lambda L: product_initial(L.space, _dressed_reference(L)),
}


@dataclass
class TomitaReport:
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0


def tomita_residual(space: TruncatedFock, E: float, beta: float,
                    observables: Sequence) -> TomitaReport:
    """Residuals of J e^{-beta L0/2} X Omega = X^dagger Omega at lam = 0.

    Observables are descriptors: ("identity",), ("detector", M) with M a
    finite 2x2 matrix (Hermitian or not) acting on the observable-side
    detector factor, and ("weyl", pair_mode, alpha) for exp(i*alpha*Phi),
    Phi the field of the normalized glued amplitudes on the mode and its
    mirror, whose cutoff tail probes the truncation.  A detector matrix
    that is not finite and 2x2, a pair mode out of range or a non-finite
    alpha raises ValidationError naming the descriptor's place in the list,
    as does a descriptor of another kind or length.
    """
    J = ModularConjugation(space)
    omega0 = gns_vacuum(space, E, beta)
    half_mod = np.exp(-beta * space.free_energies(E) / 2.0)
    residuals = []
    for i, desc in enumerate(observables):
        if not (isinstance(desc, (tuple, list)) and desc
                and isinstance(desc[0], str)
                and len(desc) == {"identity": 1, "detector": 2,
                                  "weyl": 3}.get(desc[0])):
            raise ValidationError(
                "observable %d must be ('identity',), ('detector', M) or "
                "('weyl', pair_mode, alpha), got %r" % (i, desc))
        kind = desc[0]
        name = "observable %d (%s)" % (i, kind)
        if kind == "identity":
            X = sp.identity(space.dim, format="csr")
        elif kind == "detector":
            M = sp.csr_matrix(_finite_2x2(desc[1], name))
            X = sp.kron(M, sp.identity(2 * space.reservoir_dim)).tocsr()
        else:
            j, alpha = desc[1:]
            if not (isinstance(j, (int, np.integer))
                    and isinstance(alpha, numbers.Real)
                    and math.isfinite(alpha) and 0 <= j < space.disc.n_modes):
                raise ValidationError(
                    "%s needs an integer pair mode in [0, %d) and a finite "
                    "alpha, got %r" % (name, space.disc.n_modes, desc[1:]))
            pair = [j, space.disc.mirror_index()[j]]
            h = np.zeros(space.disc.n_modes, dtype=complex)
            h[pair] = space.disc.f[pair]
            Phi = space.field_matrix(h / np.linalg.norm(h)).toarray()
            W = sla.expm(1j * alpha * np.asarray(Phi, dtype=complex))
            X = sp.kron(sp.identity(4), sp.csr_matrix(W)).tocsr()
        lhs = J.apply(half_mod * (X @ omega0))
        rhs = X.conj().T @ omega0
        residuals.append(float(np.linalg.norm(lhs - rhs)))
    return TomitaReport(residuals=np.asarray(residuals))


def resonance_floor(space: TruncatedFock, E: float) -> float:
    """Smallest nonzero |free eigenvalue|: the quasi-resonance gap at lam=0."""
    mags = np.abs(space.free_energies(E))
    nz = mags[mags > 1e-12]
    if len(nz) == 0:
        raise StructuralError("all free eigenvalues vanish")
    return float(np.min(nz))
