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
import os
import warnings
from contextlib import nullcontext
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
    TruncationWarning,
    ValidationError,
)
from .oneparticle import (default_coupling, gl_panels, glue_branches,
                          gluing_phase, planck_occupation)
from .textio import fmt17, write_csv

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


def _hermitian_2x2(matrix, name):
    """The 2x2 matrix as a complex array; ValidationError naming it unless
    its entries are finite and it is Hermitian to 1e-12."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValidationError("%s must be 2x2" % name)
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("%s must have finite entries" % name)
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

    def norm_defect(self) -> float:
        """Relative defect of sum |f_j|^2 against the continuum glued norm,
        the latter by the trapezoid rule on 4000 points."""
        if self.coupling is None:
            raise ValidationError("norm defect needs the continuum coupling")
        smax = float(np.max(np.abs(self.s)))
        q = np.linspace(1e-6, smax, 4000)
        u2 = np.abs(self.amplitude * np.asarray(self.coupling(q), dtype=complex)) ** 2
        mu = planck_occupation(q, self.beta)
        dens = 4.0 * math.pi * q * q * (1.0 + 2.0 * mu) * u2
        cont = float(np.trapezoid(dens, q))
        disc = float(np.sum(np.abs(self.f) ** 2))
        return abs(disc - cont) / cont

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


# panels of the reservoir grids, in |s| on each side
_S_MIN, _S_MAX = 0.02, 6.0
_PAIRED_SPLIT = 1.5
_JITTER_SPLIT = (1.2, 1.8)       # range of the jittered split point
_SHELL_ORDERS = (2, 8, 2)
_SHELL_HALF_WIDTH = (0.35, 0.5)  # range of the shell's jittered half width
# TruncatedFock checks its rank order and sums its occupation energies over
# blocks of this many basis rows, so that no int64 or float64 copy of the
# whole uint8 basis is made.  The benchmarked grids (up to 20 475 rows) fit
# in one block.
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
    warns).
    """
    rng = np.random.default_rng(seed)
    lo, hi = _SHELL_HALF_WIDTH

    def one_side():
        hw = lo + (hi - lo) * rng.random()
        return [_S_MIN, gap - hw, gap + hw, _S_MAX], _SHELL_ORDERS

    plus = one_side()
    return _two_sided_modes(beta, plus, one_side(), zeta, amplitude)


class TruncatedFock:
    """Detector (C^2 x C^2) tensor truncated bosonic Fock space.

    The reservoir occupation basis is enumerated in lexicographic order,
    either with a total-occupation budget (n_tot_max) or per-mode caps
    (n_max).  Full-space indices are detector-major: index = d*R + r with
    d in {0:++, 1:+-, 2:-+, 3:--}, a (4, R) array flattened.  ``rank`` is
    the exact index of an occupation n: sum_j C[j+1, left_j + 1] -
    C[j+1, left_j - n_j + 1], where left_j is the budget less the quanta
    before mode j.  C[j, b + 1] is the sum over b' <= b of the number of
    allowed occupations of modes j, j+1, ... with at most b' quanta, so each
    term counts basis rows and stays below the dimension.  Memory: the basis
    (reservoir_dim x modes, in the smallest unsigned dtype that holds
    n_tot_max: uint8 up to 255), occupation_energy (reservoir_dim floats)
    and C ((modes + 1) x (n_tot_max + 2) int64).
    Ladder operators come from one raising table, one entry per (row with
    room, mode): a row n below its cap in the mode and below n_tot_max in
    total goes to rank(n + e_mode) with weight sqrt(n_mode + 1).  It is
    built per call of creation_matrix or field_matrix and not kept.
    """

    def __init__(self, disc: ReservoirDiscretization, n_tot_max=None, n_max=None):
        if (n_tot_max is None) == (n_max is None):
            raise ValidationError("give exactly one of n_tot_max or n_max")
        self.disc = disc
        N = disc.n_modes
        name, cap = (("n_tot_max", n_tot_max) if n_max is None
                     else ("n_max", n_max))
        if int(cap) < 1:
            raise ValidationError("%s must be >= 1" % name)
        self.caps = np.full(N, int(cap), dtype=np.int64)
        self.n_tot_max = int(cap) if n_max is None else int(np.sum(self.caps))
        # From the last mode up: each value m of mode j goes in front of the
        # rows of modes j+1, ... that hold at most n_tot_max - m quanta.
        budget = self.n_tot_max
        self._counts = np.zeros((N + 1, budget + 2), dtype=np.int64)
        rows = np.zeros((1, 0), dtype=np.min_scalar_type(budget))
        tot = np.zeros(1, np.int64)
        for j in range(N, -1, -1):
            if j < N:
                keep = [(m, tot <= budget - m)
                        for m in range(min(int(self.caps[j]), budget) + 1)]
                rows = np.concatenate([np.insert(rows[k], 0, m, axis=1)
                                       for m, k in keep])
                tot = np.concatenate([tot[k] + m for m, k in keep])
            self._counts[j, 1:] = np.cumsum(np.cumsum(
                np.bincount(tot, minlength=budget + 1)))
        self.basis = rows
        self.reservoir_dim = len(rows)
        self.dim = 4 * self.reservoir_dim
        self.vacuum = 0
        self.occupation_energy = np.empty(len(rows))
        for start in range(0, len(rows), _FOCK_BLOCK):
            block = rows[start:start + _FOCK_BLOCK]
            stop = start + len(block)
            if not np.array_equal(self.rank(block), np.arange(start, stop)):
                raise StructuralError("occupation basis is not rank-ordered")
            self.occupation_energy[start:stop] = block @ self.disc.s

    def rank(self, occupations) -> np.ndarray:
        """Basis index of each occupation tuple (the last axis).

        A wrong length, a negative entry, an entry above its cap or a total
        above n_tot_max raises ValidationError.
        """
        occ = np.asarray(occupations, dtype=np.int64)
        if occ.shape[-1:] != self.caps.shape:
            raise ValidationError("occupation tuples need %d entries, got "
                                  "shape %s" % (len(self.caps), occ.shape))
        if (np.any(occ < 0) or np.any(occ > self.caps)
                or np.any(occ.sum(axis=-1) > self.n_tot_max)):
            raise ValidationError("occupation tuple outside the truncation")
        out = np.zeros(occ.shape[:-1], dtype=np.int64)
        left = np.full(occ.shape[:-1], self.n_tot_max, dtype=np.int64)
        for j, C in enumerate(self._counts[1:]):
            out += C[left + 1] - C[left - occ[..., j] + 1]
            left -= occ[..., j]
        return out

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
        start = 0
        for j, count in zip(modes, room.sum(axis=0)):
            seg = slice(start, start + count)
            rows[seg] = self.rank(B[cols[seg]] + (np.arange(B.shape[1]) == j))
            start += count
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
        amplitudes = np.asarray(amplitudes)
        if amplitudes.shape != (self.disc.n_modes,):
            raise ValidationError("field_matrix needs %d amplitudes, got shape "
                                  "%s" % (self.disc.n_modes, amplitudes.shape))
        rows, cols, mode, vals = self._raising_table(range(self.disc.n_modes))
        A = sp.csr_matrix((amplitudes[mode] * vals, (rows, cols)),
                          shape=(self.reservoir_dim, self.reservoir_dim))
        out = A + A.conj().T
        if np.isrealobj(amplitudes):
            out = out.real
        return out.tocsr()


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
    the only field of that dimension.  The coupling is held as its
    factors: ``G``, the Hermitian part of the 2x2 monopole matrix, and
    the two reservoir field matrices ``phi`` = Phi(f) and ``phi_conj`` =
    Phi(e^{-beta s/2} f).  All three are None for the free generator of
    assemble_L0.  L0 is not stored: it is the diagonal
    space.free_energies(gap).
    """

    matrix: sp.csr_matrix
    lam: float
    beta: float
    gap: float
    space: TruncatedFock
    G: np.ndarray | None = None
    phi: sp.csr_matrix | None = None
    phi_conj: sp.csr_matrix | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def I(self) -> sp.csr_matrix | None:
        """The interaction G x 1 x Phi(f), built anew at each access."""
        if self.G is None:
            return None
        return _interaction(self.G, self.phi)

    @property
    def V(self) -> sp.csr_matrix | None:
        """V = I - JIJ, built anew at each access; see assemble_coupling."""
        if self.G is None:
            return None
        return _difference(self.G, self.I, self.phi_conj)

    def norm_estimate(self) -> float:
        """Infinity norm of the matrix, the documented proxy for ||L||."""
        return float(spla.norm(self.matrix, np.inf))

    def with_lambda(self, lam: float) -> "LiouvilleanOperator":
        """The same factors at coupling lam; a non-finite lam, or an
        operator without an interaction part, raises ValidationError.  V
        is built for the call and released with it."""
        if not math.isfinite(lam):
            raise ValidationError("coupling lam must be finite, got %s" % lam)
        if self.G is None:
            raise ValidationError(
                "operator lacks an interaction part; no coupling to rescale")
        mat = sp.diags(self.space.free_energies(self.gap)) + lam * self.V
        return replace(self, matrix=mat.tocsr(), lam=float(lam))


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
    if nrm == 0:
        raise ValidationError("mode profile must be nonzero")
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
                               beta=space.disc.beta, gap=float(E), space=space)


def _coupling_factors(space: TruncatedFock, G: np.ndarray):
    """The Hermitian part of G, Phi(f) and Phi(e^{-beta s/2} f), checked."""
    G = _hermitian_2x2(G, "monopole matrix")
    G = (G + G.conj().T) / 2.0
    if np.max(np.abs(G.imag)) == 0.0:
        G = G.real
    disc = space.disc
    phi = space.field_matrix(disc.f)
    _check_hermitian(phi, "I")
    phi_conj = space.field_matrix(np.exp(-disc.beta * disc.s / 2.0) * disc.f)
    _check_hermitian(phi_conj, "JIJ")
    return G, phi, phi_conj


def _interaction(G, phi) -> sp.csr_matrix:
    """I = G x 1 x phi."""
    I2 = sp.identity(2, format="csr")
    return sp.kron(sp.kron(sp.csr_matrix(G), I2, format="csr"), phi,
                   format="csr")


def _difference(G, I_mat, phi_conj) -> sp.csr_matrix:
    """V = I - JIJ, with JIJ = 1 x conj(G) x phi_conj."""
    I2 = sp.identity(2, format="csr")
    JIJ = sp.kron(sp.kron(I2, sp.csr_matrix(G).conj(), format="csr"),
                  phi_conj, format="csr")
    return (I_mat - JIJ).tocsr()


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


def assemble_liouvillean(space: TruncatedFock, E: float, G: np.ndarray,
                         lam: float) -> LiouvilleanOperator:
    """Full coupled generator L0 + lam*(I - JIJ).

    It keeps the generator and the coupling's factors (the Hermitian part
    of G and the two reservoir field matrices), checked as in
    assemble_coupling; I and V are rebuilt from them on access.
    """
    L0 = assemble_L0(space, E)
    G, phi, phi_conj = _coupling_factors(space, G)
    return replace(L0, G=G, phi=phi, phi_conj=phi_conj).with_lambda(lam)


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

    Only the block of L0 + lam I that Omega_0 reaches is expanded, scaled
    into [-1, 1] as in ``evolve``: with B = center + half H the action is
    e^{-x H} Omega_0 with x = beta * half / 2, up to a factor that the
    normalization removes.  It is applied in equal sub-steps of at most
    _DECAY_SPAN.  Each sub-step is one recurrence, which stops after the
    last coefficient 2 (-1)^k I_k of e^{-x t} above 1e-16 e^x (see
    _chebyshev_rows: 18 terms at x = 2), and peaks at about
    _CHEBYSHEV_CHUNK + 4 real vectors of the block's length.  A full step
    against two-half-step consistency check guards the expansion: the two
    half steps take twice as many sub-steps of half the length.
    Disagreement raises a numerical error carrying the residual; beta must
    be positive and finite, and lam finite.  Of its first argument only
    ``space`` and ``gap`` are read: L0 is their diagonal free_energies, so
    any operator on the space, free or coupled, may be passed.
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
    block, H2, _, half = _reached_block(
        (sp.diags(space.free_energies(L0.gap)) + lam * I_mat).tocsr(), omega0)
    x = beta * half / 2.0
    n_sub = max(1, math.ceil(x / _DECAY_SPAN))

    def decay(n):
        """e^{-x H} Omega_0 on the block, in n equal sub-steps."""
        rows = _chebyshev_rows([x / n], decay=True)
        v = omega0[block]
        for _ in range(n):
            (v,), _ = _chebyshev_window(H2, v, rows, 1.0)
        return v

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
    omega[block] = full / scale
    return omega


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int
    theta: float
    norm_estimate: float
    gap_below: float
    gap_above: float
    residual_max: float
    method: str
    lu_nnz: int
    solves: int

    def save(self, path):
        idx = np.arange(len(self.eigenvalues))
        write_csv(path, "index,eigenvalue", [idx, self.eigenvalues])


def spectrum_scan(L: LiouvilleanOperator, theta: float | None = None,
                  k: int = 12, method: str = "shift-invert") -> SpectrumReport:
    """Eigenpairs nearest zero and the numerical kernel dimension.

    One path: L - sigma (sigma = 1e-7 * max(||L||, 1)) is factorized once by
    sparse LU under a minimum-degree ordering of the symmetric pattern
    A^T + A, and shift-invert Lanczos returns the k eigenpairs closest to
    sigma, ordered by |eigenvalue|.  Their residuals must stay below
    1e-9 * max(||L||, 1) or a NumericalError is raised.  The solve starts
    from a seeded random vector, so reruns agree bit for bit; the report
    records the L+U fill and the number of solves.  When all k eigenvalues
    lie below theta the kernel may be larger than k, and a NumericalError
    is raised rather than a kernel dimension that is only a lower bound.
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
        # The generator's pattern is symmetric, and a minimum-degree ordering
        # of A^T + A keeps the LU fill some 30 times below the default
        # column ordering on the criterion-8 operator.
        lu = spla.splu((L.matrix - sigma * sp.identity(L.dim)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A")
        lu_nnz = int(lu.L.nnz + lu.U.nnz)

        def solve(x):
            nonlocal solves
            solves += 1
            return lu.solve(x)

        # A seeded random start makes reruns bit-identical.  A constant
        # start would not do: single-vector Lanczos from it sees only one
        # direction of an exactly degenerate kernel.
        v0 = np.random.default_rng(0).standard_normal(L.dim)
        vals, vecs = spla.eigsh(
            L.matrix, k=n_eig, sigma=sigma, which="LM", v0=v0,
            OPinv=spla.LinearOperator(L.matrix.shape, matvec=solve,
                                      dtype=L.matrix.dtype))
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
                          norm_estimate=norm, gap_below=gap_below,
                          gap_above=gap_above, residual_max=residual_max,
                          method=method, lu_nnz=lu_nnz, solves=solves)


@dataclass
class SweepReport:
    lambdas: np.ndarray
    gaps: np.ndarray
    kernel_dims: np.ndarray
    fit_exponent: float
    fit_prefactor: float
    predicted_prefactor: float
    theta: float
    lu_nnz: int
    solves: int

    def save(self, path):
        fit = np.full(len(self.lambdas), self.fit_exponent)
        write_csv(path, "lambda,gap,fit_exponent", [self.lambdas, self.gaps, fit])


def kernel_splitting_sweep(space: TruncatedFock, E: float, G: np.ndarray,
                           lambdas: Sequence[float],
                           theta: float | None = None) -> SweepReport:
    """Track the splitting of the free kernel pair over a coupling sweep.

    L0 is diagonal, so its kernel K is spanned by the unit vectors where
    |diag L0| < theta.  At each coupling the eigenvector nearest zero is
    set aside (the coupled KMS vector); of the rest, the one with the
    largest weight on K is the partner of the split pair, and its
    eigenvalue magnitude is the gap column.  The exponent is a
    least-squares fit of log(gap) against log(lambda) over the positive
    couplings.  The second-order prediction of the splitting is lambda^2
    times the largest |eigenvalue| of the level-shift matrix
    M = -K^T V L0^+ V K (predicted_prefactor); an AmbiguousThresholdWarning
    names each positive coupling whose predicted splitting falls below
    3 theta, where the kernel count cannot tell the split pair apart (an
    empty kernel gives a NaN prediction, which never warns).
    lu_nnz is the largest LU fill of the sweep's scans and solves their
    total solve count.
    """
    lambdas = np.asarray(list(lambdas), dtype=float)
    base = assemble_liouvillean(space, E, G, 0.0)
    reports = [spectrum_scan(base.with_lambda(lam), theta=theta)
               for lam in lambdas]
    theta_used = float(reports[-1].theta)
    d0 = space.free_energies(E)
    kernel = np.abs(d0) < theta_used
    gaps = []
    for rep in reports:
        weight = np.linalg.norm(rep.eigenvectors[kernel, 1:], axis=0)
        gaps.append(float(abs(rep.eigenvalues[1 + np.argmax(weight)])))
    VK = base.V[:, np.nonzero(kernel)[0]]
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
    posmask = lambdas > 0
    if np.sum(posmask) >= 2 and np.all(gaps[posmask] > 0):
        co = np.polyfit(np.log(lambdas[posmask]), np.log(gaps[posmask]), 1)
        fit_p, fit_c = float(co[0]), float(math.exp(co[1]))
    else:
        fit_p, fit_c = math.nan, math.nan
    return SweepReport(lambdas=lambdas, gaps=gaps,
                       kernel_dims=np.asarray([r.kernel_dim for r in reports],
                                              dtype=int),
                       fit_exponent=fit_p, fit_prefactor=fit_c,
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
# terms: 36 at 10 radians, 129 at 80.5, so a window of eight 10-radian
# steps pays half the products per radian of a single step.  The output
# count bounds the window's memory, the span its coefficient rows (141
# terms); a farther grid point is reached in equal sub-steps.
_WINDOW_SPAN = 90.0
_WINDOW_OUTPUTS = 8
_CHEBYSHEV_CHUNK = 8
# A chunk of T_k vectors is folded into a window's sums through a scratch of
# this many columns, in place of a temporary of the block's length.
_FOLD_COLUMNS = 8192
# Below this many rows the products are too short for a second thread to
# pay: on the 650-row default block at evolve_n_tot_max = 2 the two threads'
# Python overhead and handoffs of the interpreter lock made a propagation
# take 0.23 s in place of 0.14 s on one thread; at 13 090 rows two threads
# took 0.6-0.75 s in place of 1.1 s (2-core host).
_WORKER_ROWS = 8192

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


def _chebyshev_window(H2, v, rows, odd_factor, worker=None):
    """Every row of Chebyshev coefficients applied to v, from one recurrence.

    H2 is twice the scaled block (see _reached_block).  Returns (out,
    products): out[j] is the sum over even k of rows[j, k] T_k(H) v plus
    odd_factor times the sum over odd k, taken up to row j's last nonzero
    coefficient, and products counts the products with H2: one fewer than
    the longest row's length for each recurrence.  A real H2 acts on the
    real and imaginary parts of a complex v (with odd_factor -1j) apart, as
    two real recurrences: two real products cost half of one complex
    product, and a part that is all zero is not run.  Each part's even and
    odd sums are contiguous real arrays that share their memory with two
    complex arrays of out's shape; the second of these becomes out.  Given
    an executor ``worker``, the imaginary part runs on it while the real
    part runs here; each part's arithmetic is the same on either thread.
    """
    m, length = rows.shape[0], len(v)
    # each row's length, up to its last nonzero coefficient
    lengths = (rows.shape[1]
               - np.argmax(rows[:, ::-1] != 0.0, axis=1)).tolist()
    split = not np.iscomplexobj(H2.data) and np.iscomplexobj(v)
    if split:   # sums[p] = (even, odd) sums of part p (real, imaginary)
        buf = np.zeros((2, m, length), dtype=complex)
        sums = buf.view(float).reshape(2, 2, m, length)
        parts = [(x, [(0, rows, s[0]), (1, rows, s[1])])
                 for x, s in zip((v.real, v.imag), sums) if x.any()]
    else:
        dtype = np.result_type(H2.dtype, v.dtype, odd_factor)
        out = np.zeros((m, length), dtype=dtype)
        parts = [(v.astype(dtype, copy=False),
                  [(0, rows.astype(dtype, copy=False), out),
                   (1, (odd_factor * rows).astype(dtype), out)])]
    jobs = [(H2, x, folds, lengths,
             np.empty((_CHEBYSHEV_CHUNK, length), dtype=x.dtype),
             np.empty((m, min(length, _FOLD_COLUMNS)), dtype=x.dtype))
            for x, folds in parts]
    if worker is not None and len(jobs) == 2:
        future = worker.submit(_recurrence, *jobs.pop())
        products = _recurrence(*jobs[0]) + future.result()
    else:
        products = sum(_recurrence(*job) for job in jobs)
    if split:   # out = (E_re + O_im) + i (E_im - O_re)
        (even_re, odd_re), (even_im, odd_im) = sums
        even_re += odd_im
        np.subtract(even_im, odd_re, out=odd_re)
        out = buf[1]
        out.real, out.imag = even_re, odd_re
    return out, products


def _recurrence(H2, x, folds, lengths, ring, scratch):
    """T_k(H) x for every k below the longest of lengths, folded.

    Each fold (parity, coef, target) adds coef[j, k] T_k(H) x to target[j]
    for every k of that parity below lengths[j].  T_k = H2 T_{k-1} -
    T_{k-2}, with T_1 = 0.5 H2 T_0; the vectors are kept in ring,
    _CHEBYSHEV_CHUNK at a time, and folded chunk by chunk through scratch.
    Returns the number of products with H2.
    """
    n = max(lengths)
    for k in range(n):
        c = k % _CHEBYSHEV_CHUNK    # ring[c - 1] is T_{k-1}
        if k == 0:
            ring[0] = x
        elif k == 1:
            np.multiply(H2 @ ring[0], 0.5, out=ring[1])
        else:
            np.subtract(H2 @ ring[c - 1], ring[c - 2], out=ring[c])
        if c == _CHEBYSHEV_CHUNK - 1 or k == n - 1:
            k0 = k - c    # even, since _CHEBYSHEV_CHUNK is
            for parity, coef, target in folds:
                # row j takes the chunk's first need[j] terms of this
                # parity; a run of rows with equal need is folded at once
                first, terms = k0 + parity, (c - parity) // 2 + 1
                need = [min(max((n_j - first + 1) // 2, 0), terms)
                        for n_j in lengths]
                lo = 0
                for hi in range(1, len(need) + 1):
                    if hi < len(need) and need[hi] == need[lo]:
                        continue
                    q = need[lo]
                    if q:
                        _fold(coef[lo:hi, first:first + 2 * q:2],
                              ring[parity:parity + 2 * q:2], target[lo:hi],
                              scratch)
                    lo = hi
    return n - 1


def _fold(coef, vectors, target, scratch):
    """target += coef @ vectors, _FOLD_COLUMNS columns at a time.

    By einsum, not a matrix product: a BLAS call wakes BLAS's thread pool,
    whose threads then spin on the core that the other recurrence needs.
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


def _worker_allowed(rows: int) -> bool:
    """Whether evolve runs a worker thread beside the caller on a real
    block of this many rows.

    The block must have at least _WORKER_ROWS rows, and both the CPUs this
    process may run on and the thread cap that --threads (or
    KMSLAB_THREADS) pins into OMP_NUM_THREADS, when set, must allow two.
    """
    if rows < _WORKER_ROWS:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        cpus = min(cpus, int(os.environ.get("OMP_NUM_THREADS", "")))
    except ValueError:
        pass    # unset, or not a plain count: no cap
    return cpus >= 2


def _reached_block(M, v):
    """The block of M that v reaches, scaled into [-1, 1] and doubled.

    The block is the union of the connected components of M's sparsity
    graph on which v is nonzero; M stays exact on it.  Returns (block, H2,
    center, half) with H2 = 2 H and H = (M[block, block] - center) / half,
    shifted and scaled by the block's Gershgorin bounds.  The factor 2 of
    the Chebyshev recurrence is taken here once; it is exact in binary
    floating point, so H2 @ x is exactly 2 (H @ x).  A non-finite entry
    in the block raises NumericalError.
    """
    # imported here, not at the top: it adds about 5% to importing kmslab
    from scipy.sparse.csgraph import connected_components
    pattern = sp.csr_matrix((np.broadcast_to(1.0, M.data.shape), M.indices,
                             M.indptr), shape=M.shape, copy=False)
    _, labels = connected_components(pattern, directed=False)
    block = np.nonzero(np.isin(labels, labels[np.nonzero(v)[0]]))[0]
    B = M[block][:, block]
    diag = B.diagonal().real
    radius = np.asarray(abs(B).sum(axis=1)).ravel() - np.abs(diag)
    hi, lo = np.max(diag + radius), np.min(diag - radius)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NumericalError("the reached block has a non-finite entry")
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if half == 0.0:   # B is a multiple of the identity
        half = 1.0
    H2 = (B - center * sp.identity(B.shape[0], format="csr")).tocsr()
    H2.data /= half
    H2.data *= 2.0
    return block, H2, float(center), float(half)


def evolve(L: LiouvilleanOperator, psi0: np.ndarray, tgrid: Sequence[float],
           observe: Callable | None = None) -> EvolutionResult:
    """Unitary propagation of a vector along an increasing time grid.

    Only the block of L that psi0 reaches is propagated: the union of the
    connected components of L's sparsity graph on which psi0 is nonzero.
    This is exact for the stored matrix.  The grid is cut into windows: one
    Chebyshev recurrence (Tal-Ezer & Kosloff 1984) of the block, shifted
    and scaled into [-1, 1] by its Gershgorin bounds, runs from the state at
    the window's start and yields the state at each grid time in the window.
    A window holds the grid times within _WINDOW_SPAN = 90 radians of the
    scaled block from its start, at most _WINDOW_OUTPUTS = 8 of them; a grid
    time farther than that from the last one (from 0 for the first, which
    may lie before it) is reached in equal sub-steps of at most 90 radians.
    The recurrence runs to the longest of the window's coefficient rows, and
    each output takes only the terms up to its own row's cut (see
    _chebyshev_rows); the rows of each distinct set of window offsets are
    built once per call.

    A real block acts on the real and imaginary parts of the state as two
    real recurrences; on a large block, when two CPUs are allowed (see
    _worker_allowed), they run at once, the imaginary part's on a worker
    thread that lives for this call.  The loop makes no BLAS call,
    since one would wake BLAS's spinning thread pool.  Besides L, only the
    scaled block is kept.  Beyond its input and a _WINDOW_OUTPUTS x
    _FOLD_COLUMNS scratch for each recurrence, a window holds two rings of
    _CHEBYSHEV_CHUNK real vectors of the block's length, the even and odd
    sums of both parts (4 * _WINDOW_OUTPUTS real vectors, in the memory of
    two complex arrays of the output's shape, the second of which becomes
    the output) and a product in flight for each recurrence: 50 vectors.
    The state carried to the next window is a copy, so one window's sums
    are freed before the next window's are made.  The coefficients and the
    bookkeeping do not grow with the block, and for a block of a few
    thousand rows the whole stays below 2 * _CHEBYSHEV_CHUNK + 4 *
    _WINDOW_OUTPUTS + 3 (51) vectors; that is less than building the block
    takes.

    Each state, as a full-space vector, is stored in ``states``, or, when
    ``observe`` is given, only ``observe(state)`` is.  Norm and
    energy-expectation drift are checked at every grid time and must stay
    below 1e-10, otherwise (a non-finite state included) a numerical error
    reports the failing step.  A psi0 that is not finite and normalized
    raises ValidationError.
    ``matvecs`` counts every product with the block, the drift checks'
    included.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if len(tgrid) == 0 or np.any(np.diff(tgrid) <= 0):
        raise ValidationError("time grid must be nonempty and increasing")
    psi0 = np.asarray(psi0)
    if not abs(math.sqrt(_norm2(psi0)) - 1.0) <= 1e-10:
        raise ValidationError("initial vector must be finite and normalized")
    block, H2, center, half = _reached_block(L.matrix, psi0)
    matvecs = 0
    rows = {}   # the coefficient rows of each distinct set of offsets

    def energy(psi):
        """<psi, B psi> = center |psi|^2 + half <psi, H2 psi> / 2."""
        nonlocal matvecs
        if np.iscomplexobj(H2.data):
            matvecs += 1
            h = H2 @ psi
            h_re, h_im = h.real, h.imag
        else:   # for a real symmetric H2, in two real products
            matvecs += 2
            h_re, h_im = H2 @ psi.real, H2 @ psi.imag
        return (center * _norm2(psi)
                + 0.5 * half * (_dot(psi.real, h_re) + _dot(psi.imag, h_im)))

    def advance(psi, dts):
        """The states e^{-i B dt} psi, one row for each dt in dts."""
        nonlocal matvecs
        key = dts.tobytes()
        if key not in rows:
            rows[key] = _chebyshev_rows(half * dts)
        out, products = _chebyshev_window(H2, psi, rows[key], -1j, worker)
        matvecs += products
        out *= np.exp(-1j * center * dts)[:, None]
        return out

    psi = psi0[block].astype(complex)
    e0 = energy(psi)
    norm_drift = 0.0
    energy_drift = 0.0
    start, i = 0.0, 0
    if not np.iscomplexobj(H2.data) and _worker_allowed(len(block)):
        # imported here, not at the top: it adds 2% to importing kmslab
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=1)
    else:
        pool = nullcontext()
    with pool as worker:
        while i < len(tgrid):
            reach = half * abs(tgrid[i] - start)
            if reach > _WINDOW_SPAN:
                n_sub = math.ceil(reach / _WINDOW_SPAN)
                step = (tgrid[i] - start) / n_sub
                for _ in range(n_sub - 1):
                    psi = advance(psi, np.array([step]))[0]
                    start += step
            j = i + 1
            while (j < len(tgrid) and j - i < _WINDOW_OUTPUTS
                   and half * abs(tgrid[j] - start) <= _WINDOW_SPAN):
                j += 1
            for i, psi in enumerate(advance(psi, tgrid[i:j] - start),
                                    start=i):
                t = tgrid[i]
                nd = abs(math.sqrt(_norm2(psi)) - 1.0)
                ed = abs(energy(psi) - e0)
                norm_drift = max(norm_drift, nd)
                energy_drift = max(energy_drift, ed)
                if not nd <= 1e-10:
                    raise NumericalError(
                        "propagation norm drift %s at step %d (t=%s)"
                        % (fmt17(nd), i, fmt17(t)))
                if not ed <= 1e-10 * max(abs(e0), 1.0):
                    raise NumericalError(
                        "generator expectation drift %s at step %d (t=%s)"
                        % (fmt17(ed), i, fmt17(t)))
                full = np.zeros(L.dim, dtype=complex)
                full[block] = psi
                record = full if observe is None else observe(full)
                if i == 0:
                    states = np.empty((len(tgrid),) + np.shape(record),
                                      dtype=np.result_type(record))
                states[i] = record
            # a copy, which frees the window's sums before the next
            # window allocates its own
            start, i, psi = tgrid[i], i + 1, psi.copy()
    return EvolutionResult(times=tgrid, states=states, norm_drift=norm_drift,
                           energy_drift=energy_drift, matvecs=matvecs)


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
    """
    if t_rec is None:
        t_rec = disc.recurrence_time()
    rho = disc.spectral_density(E)
    lam_lo = math.sqrt(5.0 / (t_rec * rho))
    lam_hi = math.sqrt(0.2 * E / rho)
    return lam_lo, lam_hi


@dataclass
class RTEReport:
    times: np.ndarray
    distances: np.ndarray
    threshold: float
    crossing_time: float | None
    pre_recurrence_min: float
    recurrence_time: float
    reached: bool
    norm_drift: float
    energy_drift: float
    matvecs: int

    def save(self, path):
        write_csv(path, "t,trace_distance", [self.times, self.distances])


def _dressed_reference(L: LiouvilleanOperator) -> np.ndarray:
    """Reduced perturbed KMS state at L's coupling, from its I."""
    if L.G is None:
        raise ValidationError(
            "operator lacks an interaction part; pass a reference state")
    return reduce_detector(perturbed_kms_vector(L, L.I, L.lam, L.beta),
                           L.space)


def rte_distance_series(L: LiouvilleanOperator, initial: np.ndarray,
                        tgrid: Sequence[float], threshold: float = 0.05,
                        reference: np.ndarray | None = None) -> RTEReport:
    """Reduced-detector trace distance to the dressed equilibrium state.

    The reference defaults to the reduced perturbed KMS vector at the
    operator's own coupling, i.e. the detector Gibbs state plus its O(lam)
    dressing; a reference passed in must be a 2x2 density matrix.  The
    threshold must lie in (0, 1).  Failure to reach the threshold before
    the recurrence time is reported in the summary, not raised.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must be in (0, 1), got %r" % threshold)
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
    below = pre & (dists < threshold)
    if np.any(below):
        crossing = float(traj.times[np.argmax(below)])
        reached = True
    else:
        crossing = None
        reached = False
    pre_min = float(np.min(dists[pre])) if np.any(pre) else float(np.min(dists))
    return RTEReport(times=traj.times, distances=dists, threshold=threshold,
                     crossing_time=crossing, pre_recurrence_min=pre_min,
                     recurrence_time=t_rec, reached=reached,
                     norm_drift=traj.norm_drift,
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
# coupled generator: the excited detector or the reduced perturbed KMS state
# times the reservoir vacuum, one boson in the gap packet on the ground
# vector, and the normalized sum of that and the ++ vacuum vector.
INITIAL_STATES = {
    "excited": lambda L: product_initial(L.space, np.diag([1.0, 0.0])),
    "one-boson": lambda L: one_boson_initial(L.space, _GROUND, _gap_packet(L)),
    "entangled": _entangled_initial,
    "stationary": lambda L: product_initial(L.space, _dressed_reference(L)),
}


@dataclass
class TomitaReport:
    labels: list
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0


def _pair_vector(space: TruncatedFock, pair_mode: int) -> np.ndarray:
    """Normalized glued amplitude vector supported on a mode and its mirror."""
    disc = space.disc
    mirror = disc.mirror_index()
    j = int(pair_mode)
    h = np.zeros(disc.n_modes, dtype=complex)
    h[j] = disc.f[j]
    h[mirror[j]] = disc.f[mirror[j]]
    return h / np.linalg.norm(h)


def tomita_residual(space: TruncatedFock, E: float, beta: float,
                    observables: Sequence | None = None) -> TomitaReport:
    """Residuals of J e^{-beta L0/2} X Omega = X^dagger Omega at lam = 0.

    Observables are descriptors: ("identity",), ("detector", M) with M a
    2x2 matrix acting on the observable-side detector factor,
    ("field_power", pair_mode, k) for the k-th power of the pair field
    operator, and ("weyl", pair_mode, alpha) for the truncated exponential
    exp(i*alpha*Phi) whose cutoff tail probes the truncation.  A field
    power exceeding the available occupation budget triggers a truncation
    warning.
    """
    if observables is None:
        observables = [("identity",), ("field_power", 0, 2), ("weyl", 0, 1.0)]
    J = ModularConjugation(space)
    omega0 = gns_vacuum(space, E, beta)
    R = space.reservoir_dim
    half_mod = np.exp(-beta * space.free_energies(E) / 2.0)
    I2 = sp.identity(2, format="csr")
    IR = sp.identity(R, format="csr")
    labels, residuals = [], []
    for desc in observables:
        kind = desc[0]
        if kind == "identity":
            X = sp.identity(space.dim, format="csr")
            label = "identity"
        elif kind == "detector":
            M = sp.csr_matrix(np.asarray(desc[1], dtype=complex))
            X = sp.kron(sp.kron(M, I2), IR).tocsr()
            label = "detector"
        elif kind == "field_power":
            j, kpow = int(desc[1]), int(desc[2])
            h = _pair_vector(space, j)
            budget = int(space.n_tot_max)
            if kpow > budget:
                warnings.warn(
                    "field power %d exceeds the occupation budget %d; the "
                    "image of Omega is truncated" % (kpow, budget),
                    TruncationWarning, stacklevel=2)
            Phi = space.field_matrix(h)
            Xr = sp.identity(R, format="csr")
            for _ in range(kpow):
                Xr = (Xr @ Phi).tocsr()
            X = sp.kron(sp.identity(4), Xr).tocsr()
            label = "field_power_%d" % kpow
        elif kind == "weyl":
            j, alpha = int(desc[1]), float(desc[2])
            h = _pair_vector(space, j)
            Phi = space.field_matrix(h).toarray()
            W = sla.expm(1j * alpha * np.asarray(Phi, dtype=complex))
            X = sp.kron(sp.identity(4), sp.csr_matrix(W)).tocsr()
            label = "weyl_%g" % alpha
        else:
            raise ValidationError("unknown observable descriptor %r" % (desc,))
        lhs = J.apply(half_mod * (X @ omega0))
        rhs = X.conj().T @ omega0
        labels.append(label)
        residuals.append(float(np.linalg.norm(lhs - rhs)))
    return TomitaReport(labels=labels, residuals=np.asarray(residuals))


def resonance_floor(space: TruncatedFock, E: float) -> float:
    """Smallest nonzero |free eigenvalue|: the quasi-resonance gap at lam=0."""
    mags = np.abs(space.free_energies(E))
    nz = mags[mags > 1e-12]
    if len(nz) == 0:
        raise StructuralError("all free eigenvalues vanish")
    return float(np.min(nz))
