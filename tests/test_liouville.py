"""Doubled detector-reservoir generator: assembly, symmetry, evolution."""

import contextvars
import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from kmslab import liouville as lv
from kmslab.errors import (AmbiguousThresholdWarning, NumericalError,
                           ResonanceWarning, StructuralError, ValidationError)
from kmslab.oneparticle import default_coupling, kms_glue, MomentumFunction
from kmslab.quasifree import _phase_sum
from kmslab.textio import fmt17

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def _small_paired(n_side=4, n_tot=2, beta=1.0, amplitude=0.5):
    disc = lv.paired_modes(beta, n_side=n_side, amplitude=amplitude)
    return disc, lv.TruncatedFock(disc, n_tot_max=n_tot)


def _exactly_hermitian(M):
    return not np.any((M - M.conj().T).data)


def _empty_space(beta=1.0):
    disc = lv.ReservoirDiscretization(np.array([]), np.array([]),
                                      np.array([]), beta=beta)
    return lv.TruncatedFock(disc, n_tot_max=1)


# ---------------------------------------------------------------------------
# form factor and discretizations

def test_form_factor_matches_glued_vector():
    q = np.geomspace(0.05, 6.0, 40)
    u = MomentumFunction.from_radial(q, np.full(40, 0.01), default_coupling(q))
    g = kms_glue(u, 1.0)
    direct = lv.form_factor_values(g.s, 1.0)
    assert np.max(np.abs(direct - g.values)) < 1e-13 * np.max(np.abs(g.values))


def test_form_factor_real_at_default_phase():
    s = np.array([-2.0, -0.5, 0.5, 2.0])
    vals = lv.form_factor_values(s, 1.0)
    assert vals.dtype == np.float64


def test_form_factor_rejects_zero_frequency():
    with pytest.raises(ValidationError):
        lv.form_factor_values(np.array([0.0, 1.0]), 1.0)


def test_paired_grid_structure():
    disc, _ = _small_paired()
    mirror = disc.mirror_index()
    assert np.array_equal(mirror[mirror], np.arange(disc.n_modes))
    assert np.allclose(disc.s[mirror], -disc.s)


def test_jittered_grid_is_unpaired():
    disc = lv.jittered_modes(1.0, seed=0)
    with pytest.raises(StructuralError):
        disc.mirror_index()


def test_jittered_grids_differ_by_seed():
    a = lv.jittered_modes(1.0, seed=0)
    b = lv.jittered_modes(1.0, seed=1)
    assert np.max(np.abs(a.s - b.s)) > 1e-3


def test_shell_grid_refuses_a_gap_its_panels_cannot_bracket():
    # the half width is drawn from [0.35, 0.5), so the panel edges
    # [0.02, gap - hw, gap + hw, 6] increase at every draw only for gap in
    # [0.52, 5.5]; outside it, the gap is refused before any draw
    for seed in range(6):
        for gap in (0.45, 5.6):
            with pytest.raises(ValidationError,
                               match=r"gap must lie in \[0.52, 5.5\] .* "
                                     r"got %s$" % gap):
                lv.resonant_shell_modes(1.0, gap, seed=seed)
        for gap in (0.52, 5.5):
            disc = lv.resonant_shell_modes(1.0, gap, seed=seed)
            assert np.all(np.abs(disc.s) > lv._S_MIN)
            assert np.all(np.abs(disc.s) < lv._S_MAX)


@pytest.mark.parametrize("n_side", [1, 0, -3])
def test_mode_grids_reject_fewer_than_two_modes_a_side(n_side):
    with pytest.raises(ValidationError, match="n_side must be >= 2, got %d"
                                              % n_side):
        lv.paired_modes(1.0, n_side=n_side)
    with pytest.raises(ValidationError, match="n_side must be >= 2, got %d"
                                              % n_side):
        lv.jittered_modes(1.0, seed=0, n_side=n_side)


def test_discretization_norm_defect():
    # the norm defect is the tau = 0 point of the correlation defect
    assert lv.paired_modes(1.0).correlation_defect([0.0]) < 5e-3
    assert lv.jittered_modes(1.0, seed=0).correlation_defect([0.0]) < 5e-3
    assert lv.resonant_shell_modes(1.0, 1.0, seed=0).correlation_defect(
        [0.0]) < 0.1


_TAU_20 = np.linspace(0.0, 20.0, 401)


def test_correlation_defect_contracts_from_24_to_48_paired_modes():
    # measured: 1.0683e-2 at n_side 24 and 2.8926e-5 at n_side 48
    assert 1e-2 < lv.paired_modes(1.0, n_side=24).correlation_defect(
        _TAU_20) < 1.1e-2
    assert lv.paired_modes(1.0, n_side=48).correlation_defect(_TAU_20) < 3e-5


def test_correlation_defect_pins_the_conjugation_convention():
    # C(tau) = sum_j |f_j|^2 e^{-i s_j tau} is two_point_series(u, u, tau):
    # the modes at s > 0 carry (1 + mu) and the continuum's e^{-i q tau}
    # branch does too, within 2.9e-5 at n_side 48 (the test above).
    # Mirroring the modes (e^{+i s tau}) misses by 0.65.
    disc = lv.paired_modes(1.0, n_side=48)
    mirrored = dataclasses.replace(disc, s=-disc.s)
    assert mirrored.correlation_defect(_TAU_20) > 0.6


def test_correlation_defect_is_converged_in_the_continuum_panels(monkeypatch):
    # doubling the continuum's panels moves the tau <= 20 defect by at most
    # 1.1e-12 relative on the default grids and on paired n_side 48
    for disc in (lv.paired_modes(1.0, n_side=48),
                 lv.jittered_modes(1.0, seed=0),
                 lv.resonant_shell_modes(1.0, 1.0, seed=0)):
        ref = disc.correlation_defect(_TAU_20)
        with monkeypatch.context() as m:
            m.setattr(lv, "_CONT_PANELS", 2 * lv._CONT_PANELS)
            doubled = disc.correlation_defect(_TAU_20)
        assert abs(doubled - ref) < 1e-4 * ref


def test_correlation_defect_needs_the_continuum_coupling():
    disc = lv.ReservoirDiscretization(np.array([-1.0, 1.0]), np.full(2, 0.1),
                                      np.full(2, 0.3), beta=1.0)
    with pytest.raises(ValidationError, match="needs the continuum coupling"):
        disc.correlation_defect([0.0])


def test_correlation_defect_refuses_an_uneven_tau_grid():
    with pytest.raises(ValidationError, match="must be evenly spaced"):
        lv.paired_modes(1.0).correlation_defect([0.0, 1.0, 3.0])


def test_recurrence_time_minimal_spacing():
    disc = lv.ReservoirDiscretization(np.array([-2.0, -1.0, 1.0, 1.25]),
                                      np.full(4, 0.1), np.full(4, 0.3),
                                      beta=1.0)
    assert disc.recurrence_time() == pytest.approx(2.0 * math.pi / 0.25, rel=1e-12)


def test_recurrence_time_needs_two_modes():
    disc = lv.ReservoirDiscretization(np.array([0.8]), np.array([1.0]),
                                      np.array([0.37]), beta=1.0)
    for call in (disc.recurrence_time, lambda: lv.fgr_window(disc, 1.0)):
        with pytest.raises(ValidationError, match="at least two modes"):
            call()


def test_spectral_density_positive():
    disc = lv.paired_modes(1.0)
    assert disc.spectral_density(1.0) > 0


def test_discretization_validation():
    with pytest.raises(ValidationError):
        lv.ReservoirDiscretization(np.array([0.0, 1.0]), np.full(2, 0.1),
                                   np.full(2, 0.1), beta=1.0)
    with pytest.raises(ValidationError):
        lv.ReservoirDiscretization(np.array([1.0, 1.0]), np.full(2, 0.1),
                                   np.full(2, 0.1), beta=1.0)
    for name in ("s", "w", "f"):
        for bad in (math.nan, math.inf):
            arrays = {"s": np.array([-1.0, 1.0]), "w": np.array([0.1, 0.1]),
                      "f": np.array([0.3, 0.5])}
            arrays[name][1] = bad
            with pytest.raises(ValidationError,
                               match="mode array %s must be finite" % name):
                lv.ReservoirDiscretization(arrays["s"], arrays["w"],
                                           arrays["f"], beta=1.0)
    # every mode family samples a thermal form factor
    for build, args in ((lv.paired_modes, {}), (lv.jittered_modes,
                                                {"seed": 0}),
                        (lv.resonant_shell_modes, {"gap": 1.0, "seed": 0})):
        for beta in (math.inf, 0.0, math.nan):
            with pytest.raises(ValidationError, match="positive and finite"):
                build(beta, **args)


# ---------------------------------------------------------------------------
# truncated Fock space

def test_space_dimension_total_budget():
    disc, space = _small_paired(n_side=4, n_tot=2)
    n = disc.n_modes
    expected = 1 + n + n * (n + 1) // 2
    assert space.reservoir_dim == expected
    assert space.dim == 4 * expected


def test_space_dimension_per_mode_caps():
    disc, _ = _small_paired(n_side=2)
    space = lv.TruncatedFock(disc, n_max=1)
    assert space.reservoir_dim == 2 ** disc.n_modes


def test_space_requires_exactly_one_truncation():
    disc, _ = _small_paired()
    with pytest.raises(ValidationError):
        lv.TruncatedFock(disc)
    with pytest.raises(ValidationError):
        lv.TruncatedFock(disc, n_tot_max=2, n_max=2)


def test_space_takes_integer_truncations_only():
    disc, space = _small_paired()
    for name, value in [("n_tot_max", 2.5), ("n_tot_max", "3"),
                        ("n_tot_max", 2.0), ("n_max", 1.5)]:
        with pytest.raises(ValidationError, match="%s must be an integer"
                           % name):
            lv.TruncatedFock(disc, **{name: value})
    assert np.array_equal(lv.TruncatedFock(disc, n_tot_max=np.int64(2)).basis,
                          space.basis)


def test_index_occupation_roundtrip():
    _, space = _small_paired(n_side=4, n_tot=3)
    for idx in range(0, space.reservoir_dim, 7):
        assert space.rank(space.basis[idx]) == idx


def test_rank_rejects_occupations_outside_the_truncation():
    _, space = _small_paired(n_side=4, n_tot=3)
    assert space.rank([0, 3, 0, 0, 0, 0, 0, 0]) == 119
    capped = lv.TruncatedFock(space.disc, n_max=1)
    for sp_, occ in [(space, [0, 3, 0, 0, 0, 0, 0]),          # wrong length
                     (space, [1, -2, 0, 0, 0, 0, 0, 0]),      # negative
                     (capped, [2, 0, 0, 0, 0, 0, 0, 0]),      # above its cap
                     (space, [2, 2, 0, 0, 0, 0, 0, 0]),       # above budget
                     # checked before the uint8 cast, where they would wrap
                     (space, [256, 0, 0, 0, 0, 0, 0, 0]),
                     (space, [2.0**64, 0, 0, 0, 0, 0, 0, 0])]:
        with pytest.raises(ValidationError):
            sp_.rank(occ)


def test_rank_refuses_entries_that_are_not_finite_integers():
    _, space = _small_paired(n_side=4, n_tot=3)
    for entry in (0.5, math.nan, math.inf, 1j, "1", None):
        with pytest.raises(ValidationError, match="finite integers"):
            space.rank([entry] + [0] * 7)
    with pytest.raises(ValidationError, match="finite integers"):
        space.rank([0.5] * 8)
    assert space.rank([1.0, 2.0] + [0.0] * 6) == space.rank([1, 2] + [0] * 6)


def test_rank_of_the_vacuum_of_no_modes():
    space = _empty_space()
    assert space.basis.shape == (1, 0)
    assert np.array_equal(space.rank(space.basis), [0])
    assert space.rank(np.zeros(0, dtype=np.int64)) == 0
    with pytest.raises(ValidationError, match="need 0 entries"):
        space.rank([0])


@pytest.mark.parametrize("n_tot, dim", [(5, 118755), (6, 593775)])
def test_rank_on_the_shell_grid_at_n_tot_max_5_and_6(n_tot, dim):
    space = lv.TruncatedFock(lv.resonant_shell_modes(1.0, 1.0, seed=0),
                             n_tot_max=n_tot)
    assert space.reservoir_dim == dim
    assert np.array_equal(space.rank(space.basis), np.arange(dim))
    for idx in np.random.default_rng(0).integers(0, dim, 50):
        assert space.rank(space.basis[idx]) == idx


@given(st.integers(1, 4), st.integers(1, 4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_rank_matches_brute_force_enumeration(n_modes, cap, per_mode):
    disc = lv.ReservoirDiscretization(np.arange(1.0, n_modes + 1),
                                      np.ones(n_modes), np.ones(n_modes),
                                      beta=1.0)
    if per_mode:
        space = lv.TruncatedFock(disc, n_max=cap)
        rows = list(itertools.product(range(cap + 1), repeat=n_modes))
    else:
        space = lv.TruncatedFock(disc, n_tot_max=cap)
        rows = [r for r in itertools.product(range(cap + 1), repeat=n_modes)
                if sum(r) <= cap]
    rows = np.array(sorted(rows))
    assert np.array_equal(space.basis, rows)
    assert np.array_equal(space.rank(rows), np.arange(len(rows)))


# ---------------------------------------------------------------------------
# energy window

def _top_band_window(disc, extra=0.0):
    """rte-evolve's window, two top-band quanta (2 max |s_j|), plus extra."""
    return 2.0 * float(np.max(np.abs(disc.s))) + extra


def _shell_spaces(n_tot):
    """The shell grid at n_tot, without and with rte-evolve's window."""
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    return (lv.TruncatedFock(disc, n_tot_max=n_tot),
            lv.TruncatedFock(disc, n_tot_max=n_tot,
                             energy_max=_top_band_window(disc)))


def _same_entries(A, B):
    return A.shape == B.shape and (A != B).nnz == 0


@pytest.mark.parametrize("n_tot", [3, 4])
def test_window_operators_are_principal_submatrices(n_tot):
    full, win = _shell_spaces(n_tot)
    kept = full.rank(win.basis)
    assert 0 < win.reservoir_dim < full.reservoir_dim
    assert np.all(np.diff(kept) > 0)
    assert np.array_equal(win.rank(win.basis), np.arange(win.reservoir_dim))
    energy = np.abs(full.occupation_energy)
    inside = np.zeros(full.reservoir_dim, dtype=bool)
    inside[kept] = True
    assert np.all(energy[inside] <= win.energy_max)
    assert np.all(energy[~inside] > win.energy_max)
    assert np.array_equal(win.occupation_energy, full.occupation_energy[kept])
    f = full.disc.f
    assert _same_entries(full.field_matrix(f)[kept][:, kept],
                         win.field_matrix(f))
    doubled = (np.arange(4)[:, None] * full.reservoir_dim + kept).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L_full = lv.assemble_liouvillean(full, 1.0, OFFDIAG, 0.1375)
        L_win = lv.assemble_liouvillean(win, 1.0, OFFDIAG, 0.1375)
    assert _same_entries(L_full.matrix[doubled][:, doubled], L_win.matrix)


def test_rank_refuses_an_occupation_outside_the_window():
    full, win = _shell_spaces(3)
    top = np.zeros(full.disc.n_modes, dtype=np.int64)
    top[np.argmax(np.abs(full.disc.s))] = 3
    assert abs(full.occupation_energy[full.rank(top)]) > win.energy_max
    for occ in (top, np.stack([np.zeros_like(top), top])):
        with pytest.raises(ValidationError, match="energy window"):
            win.rank(occ)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValidationError, match="energy_max"):
            lv.TruncatedFock(full.disc, n_tot_max=3, energy_max=bad)


@pytest.mark.parametrize("grid", ["shell", "jittered"])
def test_window_keeps_every_row_of_two_quanta(grid):
    disc = (lv.resonant_shell_modes(1.0, 1.0, seed=0) if grid == "shell"
            else lv.jittered_modes(1.0, seed=0))
    full = lv.TruncatedFock(disc, n_tot_max=2)
    win = lv.TruncatedFock(disc, n_tot_max=2,
                           energy_max=_top_band_window(disc))
    assert np.array_equal(win.basis, full.basis)
    assert np.array_equal(win.occupation_energy, full.occupation_energy)
    assert _same_entries(win.field_matrix(disc.f), full.field_matrix(disc.f))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_window_matches_brute_force_enumeration(n_modes, cap, energy_max):
    # integer frequencies of both signs: every occupation energy is exact
    s = np.arange(1.0, n_modes + 1) * (-1.0) ** np.arange(n_modes)
    disc = lv.ReservoirDiscretization(s, np.ones(n_modes), np.ones(n_modes),
                                      beta=1.0)
    full = lv.TruncatedFock(disc, n_tot_max=cap)
    space = lv.TruncatedFock(disc, n_tot_max=cap, energy_max=energy_max)
    rows = [r for r in itertools.product(range(cap + 1), repeat=n_modes)
            if sum(r) <= cap and abs(np.dot(r, s)) <= energy_max]
    rows = np.array(sorted(rows))
    assert np.array_equal(space.basis, rows)
    assert np.array_equal(space.rank(rows), np.arange(len(rows)))
    kept = full.rank(rows)
    for j in range(n_modes):
        assert _same_entries(full.creation_matrix(j)[kept][:, kept],
                             space.creation_matrix(j))


def test_free_energies_are_detector_major():
    disc = lv.jittered_modes(1.0, seed=1, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    E = 0.7
    expected = [d + space.occupation_energy[r] for d in (0.0, E, -E, 0.0)
                for r in range(space.reservoir_dim)]
    assert np.array_equal(space.free_energies(E), expected)
    assert np.array_equal(lv.assemble_L0(space, E).matrix.diagonal(),
                          expected)


def test_creation_operator_algebra():
    disc, space = _small_paired(n_side=2, n_tot=3)
    interior = space.basis.sum(axis=1) < space.n_tot_max
    for j in range(disc.n_modes):
        a_dag = space.creation_matrix(j).toarray()
        a = a_dag.conj().T
        number = np.diag(a_dag @ a).real
        assert np.allclose(number, space.basis[:, j])
        comm = a @ a_dag - a_dag @ a
        assert np.allclose(np.diag(comm).real[interior], 1.0)
        off = comm - np.diag(np.diag(comm))
        assert np.max(np.abs(off)) < 1e-14


def test_creation_matrix_rejects_modes_outside_the_space():
    disc, space = _small_paired(n_side=2, n_tot=2)
    for mode in (-1, disc.n_modes):
        with pytest.raises(ValidationError):
            space.creation_matrix(mode)


def test_field_matrix_rejects_amplitudes_of_the_wrong_length():
    disc, space = _small_paired(n_side=2, n_tot=2)
    for amplitudes in (disc.f[:-1], np.append(disc.f, 1.0)):
        with pytest.raises(ValidationError):
            space.field_matrix(amplitudes)


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
def test_field_matrices_share_one_raising_table(monkeypatch, zeta):
    disc = lv.paired_modes(1.0, n_side=4, amplitude=0.5, zeta=zeta)
    space = lv.TruncatedFock(disc, n_tot_max=3)
    amplitudes = (disc.f, np.exp(-disc.beta * disc.s / 2.0) * disc.f)
    separate = [space.field_matrix(f) for f in amplitudes]
    tables = []
    table = lv.TruncatedFock._raising_table

    def counting(self, modes):
        tables.append(None)
        return table(self, modes)

    monkeypatch.setattr(lv.TruncatedFock, "_raising_table", counting)
    together = space._field_matrices(*amplitudes)
    assert len(tables) == 1
    for a, b in zip(together, separate):
        assert a.dtype == b.dtype == (float if zeta == math.pi else complex)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()
    lv.assemble_coupling(space, OFFDIAG)
    assert len(tables) == 2


def test_single_mode_field_block():
    f = 0.37
    disc = lv.ReservoirDiscretization(np.array([0.8]), np.array([1.0]),
                                      np.array([f]), beta=1.0)
    space = lv.TruncatedFock(disc, n_max=1)
    phi = space.field_matrix(disc.f).toarray()
    assert np.allclose(phi, np.array([[0.0, f], [f, 0.0]]))


def test_field_matrix_hermitian():
    disc, space = _small_paired()
    phi = space.field_matrix(disc.f)
    assert _exactly_hermitian(phi)
    # one amplitude zero: same values and pattern as the sum of ladders
    a = disc.f.copy()
    a[1] = 0.0
    phi = space.field_matrix(a)
    A = sum((a[j] * space.creation_matrix(j) for j in range(disc.n_modes)),
            sp.csr_matrix(phi.shape))
    ref = (A + A.conj().T).tocsr()
    phi.sort_indices()
    ref.sort_indices()
    assert phi.nnz == np.count_nonzero(phi.data) == ref.nnz
    assert np.array_equal(phi.indptr, ref.indptr)
    assert np.array_equal(phi.indices, ref.indices)
    assert np.array_equal(phi.data, ref.data)


# ---------------------------------------------------------------------------
# generator assembly

def test_detector_gibbs_vector_values():
    E, beta = 1.0, 1.0
    v = lv.detector_gibbs_vector(E, beta)
    x = math.exp(-0.5)
    norm = math.sqrt(1.0 + x * x)
    assert np.allclose(v, np.array([x, 0.0, 0.0, 1.0]) / norm, rtol=1e-15)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        lv.detector_gibbs_vector(-1.0, 1.0)


def test_empty_reservoir_free_spectrum():
    space = _empty_space()
    L0 = lv.assemble_L0(space, 1.0)
    eig = np.sort(np.linalg.eigvalsh(L0.matrix.toarray()))
    assert np.allclose(eig, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_free_generator_annihilates_equilibrium():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L0 = lv.assemble_L0(space, 1.0)
    omega = lv.gns_vacuum(space, 1.0, 1.0)
    assert np.linalg.norm(L0.matrix @ omega) < 1e-14


def test_paired_grid_warns_resonant():
    disc, space = _small_paired()
    with pytest.warns(ResonanceWarning):
        lv.assemble_L0(space, 1.0)


def test_jittered_grid_no_resonance_warning():
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResonanceWarning)
        lv.assemble_L0(space, 1.0)


def test_coupling_hermitian_and_vanishing_at_equilibrium():
    for zeta in (math.pi, math.pi / 2):
        disc = lv.paired_modes(1.0, n_side=4, amplitude=0.5, zeta=zeta)
        space = lv.TruncatedFock(disc, n_tot_max=2)
        I_mat, V = lv.assemble_coupling(space, OFFDIAG)
        omega = lv.gns_vacuum(space, 1.0, 1.0)
        assert abs(np.vdot(omega, V @ omega)) < 1e-14
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResonanceWarning)
            L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.25)
        for M in (I_mat, V, L.matrix):
            assert _exactly_hermitian(M)
            assert M.nnz == np.count_nonzero(M.data)    # no stored zeros


@pytest.mark.parametrize("call, label", [(0, "I"), (1, "JIJ")])
@pytest.mark.parametrize("defect", [1.0 + 1e-9, math.nan])
def test_coupling_checks_each_field_where_it_enters(monkeypatch, call, label,
                                                    defect):
    _, space = _small_paired()

    def perturbed(*amplitudes):
        fields = lv.TruncatedFock._field_matrices(space, *amplitudes)
        phi = fields[call]
        phi.data[np.argmax(np.abs(phi.data))] *= defect
        return fields

    monkeypatch.setattr(space, "_field_matrices", perturbed)
    with pytest.raises(StructuralError, match="^%s is not Hermitian" % label):
        lv.assemble_coupling(space, OFFDIAG)


def test_nearly_hermitian_monopole_gives_an_exactly_hermitian_generator():
    # passes _hermitian_2x2, which allows 1e-12; its Hermitian part is used
    G = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, G, 0.25)
    for M in (L.I, L.V, L.matrix):
        assert _exactly_hermitian(M)


def test_coupling_rejects_a_field_without_its_adjoint(monkeypatch):
    _, space = _small_paired()
    raising = lambda *amplitudes: [
        sum(a * space.creation_matrix(j) for j, a in enumerate(f))
        for f in amplitudes]
    monkeypatch.setattr(space, "_field_matrices", raising)
    with pytest.raises(StructuralError, match="^I is not Hermitian"):
        lv.assemble_coupling(space, OFFDIAG)


def test_coupling_rejects_nonhermitian_monopole():
    _, space = _small_paired()
    with pytest.raises(ValidationError):
        lv.assemble_coupling(space, np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_coupling_rejects_a_nonfinite_monopole():
    _, space = _small_paired()
    G = np.array([[0.0, math.nan], [math.nan, 0.0]])
    with pytest.raises(ValidationError, match="monopole matrix must have "
                                              "finite entries"):
        lv.assemble_coupling(space, G)


def test_nonfinite_coupling_is_rejected():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.25)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="lam must be finite"):
                L.with_lambda(lam)
            with pytest.raises(ValidationError, match="lam must be finite"):
                lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)
            with pytest.raises(ValidationError, match="lam must be finite"):
                lv.perturbed_kms_vector(L, L.I, lam, 1.0)
        with pytest.raises(ValidationError, match="lam must be finite"):
            lv.kernel_splitting_sweep(space, 1.0, OFFDIAG,
                                      [0.1, math.nan, 0.2])


def test_liouvillean_parts_and_lambda_rescale():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.25)
        L0 = sp.diags(space.free_energies(1.0))
        assert L.I is not None and L.lam == 0.25
        direct = (L0 + 0.25 * L.V).toarray()
        assert np.max(np.abs(L.matrix.toarray() - direct)) < 1e-14
        other = L.with_lambda(0.5)
        assert other.lam == 0.5
        expect = (L0 + 0.5 * L.V).toarray()
        assert np.max(np.abs(other.matrix.toarray() - expect)) < 1e-14


def _same_csr(A, B):
    """The same CSR arrays, bit for bit."""
    return (A.format == B.format == "csr" and A.shape == B.shape
            and A.dtype == B.dtype and np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.data, B.data))


def _shell_operator(n_tot, lam=0.1375):
    space = lv.TruncatedFock(lv.resonant_shell_modes(1.0, 1.0, seed=0),
                             n_tot_max=n_tot)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        return lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
def test_coupling_rebuilt_from_its_factors_is_bit_identical(zeta):
    disc = lv.paired_modes(1.0, n_side=4, amplitude=0.5, zeta=zeta)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    G = np.array([[0.3, 1.0 - 0.2j], [1.0 + 0.2j, -0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, G, 0.25)
    I_mat, V = lv.assemble_coupling(space, G)
    assert _same_csr(L.I, I_mat) and _same_csr(L.V, V)
    assert L.I is not L.I            # built at each access, never cached
    free = sp.diags(space.free_energies(1.0))
    for lam in (0.0, 0.25, -0.1):
        assert _same_csr(L.with_lambda(lam).matrix, (free + lam * V).tocsr())


def test_only_the_generator_has_the_doubled_dimension():
    L = _shell_operator(2)
    for f in dataclasses.fields(L):
        value = getattr(L, f.name)
        if f.name != "matrix" and hasattr(value, "shape"):
            assert L.dim not in value.shape, f.name
    assert L.phi.shape == L.phi_conj.shape == (L.space.reservoir_dim,) * 2
    free = lv.assemble_L0(L.space, 1.0)
    assert free.G is free.phi is free.phi_conj is free.I is free.V is None


def test_assembly_keeps_the_generator_and_the_reservoir_factors():
    # criterion-10 set-up at n_tot_max = 3 (dim 11 700).  What the space
    # and the operator keep, traced, is the generator, both fields and the
    # basis, plus a slack: the occupation energies (8 bytes a row) and
    # 64 KiB for Python objects and first-call caches (about 35 KB
    # measured).  I and V would add 2.3 MB here.
    csr_bytes = lambda M: M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    tracemalloc.start()
    try:
        L = _shell_operator(3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    space = L.space
    kept = (csr_bytes(L.matrix) + csr_bytes(L.phi) + csr_bytes(L.phi_conj)
            + space.basis.nbytes)
    slack = space.occupation_energy.nbytes + 65536
    assert L.dim == 11700
    assert kept <= held <= kept + slack


def test_occupation_basis_takes_the_smallest_unsigned_dtype():
    shell = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    assert lv.TruncatedFock(shell, n_tot_max=4).basis.dtype == np.uint8
    two = lv.ReservoirDiscretization(np.array([-1.0, 1.0]), np.full(2, 0.1),
                                     np.full(2, 0.3), beta=1.0)
    space = lv.TruncatedFock(two, n_max=128)      # caps sum to 256
    assert space.basis.dtype == np.uint16
    assert space.reservoir_dim == 129 ** 2
    assert np.array_equal(space.rank(space.basis), np.arange(129 ** 2))
    assert np.array_equal(space.occupation_energy,
                          space.basis.astype(np.int64) @ two.s)


def test_uint16_window_keeps_principal_submatrices():
    two = lv.ReservoirDiscretization(np.array([-1.0, 1.0]), np.full(2, 0.1),
                                     np.full(2, 0.3), beta=1.0)
    full = lv.TruncatedFock(two, n_max=128)
    win = lv.TruncatedFock(two, n_max=128, energy_max=100.0)
    assert win.basis.dtype == np.uint16
    assert 0 < win.reservoir_dim < full.reservoir_dim
    assert np.array_equal(win.rank(win.basis), np.arange(win.reservoir_dim))
    kept = full.rank(win.basis)
    assert np.all(np.abs(full.occupation_energy[kept]) <= 100.0)
    for j in range(2):
        assert _same_entries(full.creation_matrix(j)[kept][:, kept],
                             win.creation_matrix(j))
    with pytest.raises(ValidationError, match="energy window"):
        win.rank([128, 0])


def test_uint16_keys_are_big_endian():
    # 256 is the bytes (1, 0) big-endian but (0, 1) little-endian, which
    # would sort before 1 = (1, 0) and break the order check and the rank
    one = lv.ReservoirDiscretization(np.array([1.0]), np.ones(1), np.ones(1),
                                     beta=1.0)
    space = lv.TruncatedFock(one, n_tot_max=300)
    assert space.basis.dtype == np.uint16
    assert np.array_equal(space.basis[:, 0], np.arange(301))
    assert np.array_equal(space.rank(space.basis), np.arange(301))
    a_dag = space.creation_matrix(0)
    assert np.array_equal(a_dag.diagonal(-1), np.sqrt(np.arange(1.0, 301)))
    assert a_dag.nnz == 300


def test_fock_space_peak_stays_near_what_it_holds():
    # The enumeration holds at most three basis-sized uint8 arrays (the
    # previous rows, the widened pieces, their concatenation) and two int64
    # row-total arrays, the energies one float64 array.  The energy sum
    # then takes one block of rows at a time; 10 bytes an entry of the
    # block cover the float64 cast inside block @ s (8).  The order check
    # reads the uint8 rows as byte strings in place and makes one boolean
    # a row.  An unblocked sum or an int64 copy of the whole basis (8 bytes
    # an entry, 23 MB here) breaks the bound.
    shell = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    tracemalloc.start()
    try:
        space = lv.TruncatedFock(shell, n_tot_max=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = space.reservoir_dim
    block = lv._FOCK_BLOCK * shell.n_modes
    assert rows == 118755 > lv._FOCK_BLOCK
    assert peak <= 3 * space.basis.nbytes + 3 * 8 * rows + 10 * block
    assert np.array_equal(space.occupation_energy, space.basis @ shell.s)


def test_free_operator_has_no_coupling_to_rescale():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L0 = lv.assemble_L0(space, 1.0)
    with pytest.raises(ValidationError, match="lacks an interaction part"):
        L0.with_lambda(0.5)


# ---------------------------------------------------------------------------
# modular conjugation

def test_conjugation_involution_and_fixed_vector():
    _, space = _small_paired()
    J = lv.ModularConjugation(space)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    assert np.max(np.abs(J.apply(J.apply(psi)) - psi)) < 1e-14 * np.max(np.abs(psi))
    omega = lv.gns_vacuum(space, 1.0, 1.0)
    assert np.max(np.abs(J.apply(omega) - omega)) < 1e-14


def test_conjugation_flips_generator_sign():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        J = lv.ModularConjugation(space)
        for lam in (0.0, 0.3):
            L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)
            M = L.matrix.toarray()
            flipped = J.conjugate_matrix(L.matrix).toarray()
            scale = np.max(np.abs(M))
            assert np.max(np.abs(flipped + M)) < 1e-12 * scale


def test_conjugation_needs_paired_modes():
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    with pytest.raises(StructuralError):
        lv.ModularConjugation(space)


# ---------------------------------------------------------------------------
# perturbed equilibrium vector

def test_perturbed_vector_at_zero_coupling():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L0 = lv.assemble_L0(space, 1.0)
    I_mat, _ = lv.assemble_coupling(space, OFFDIAG)
    omega0 = lv.gns_vacuum(space, 1.0, 1.0)
    omega = lv.perturbed_kms_vector(L0, I_mat, 0.0, 1.0)
    assert np.max(np.abs(omega - omega0)) < 1e-14


def test_perturbed_vector_is_normalized_and_close():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L0 = lv.assemble_L0(space, 1.0)
    I_mat, _ = lv.assemble_coupling(space, OFFDIAG)
    omega0 = lv.gns_vacuum(space, 1.0, 1.0)
    omega = lv.perturbed_kms_vector(L0, I_mat, 0.05, 1.0)
    assert np.linalg.norm(omega) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(omega - omega0) < 0.2
    for beta in (math.inf, 0.0):
        with pytest.raises(ValidationError, match="positive and finite"):
            lv.perturbed_kms_vector(L0, I_mat, 0.05, beta)


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
def test_perturbed_vector_matches_dense_exponential(zeta):
    space, L = _dense_check_operator(zeta)
    L0 = L.with_lambda(0.0)
    omega = lv.perturbed_kms_vector(L0, L.I, 0.3, 1.0)
    A = (L0.matrix + 0.3 * L.I).toarray()
    exact = sla.expm(-0.5 * A) @ lv.gns_vacuum(space, 1.0, 1.0)
    exact /= np.linalg.norm(exact)
    assert np.max(np.abs(omega - exact)) < 1e-12
    with pytest.raises(NumericalError, match="half-step residual"):
        lv.perturbed_kms_vector(L0, L.I, 0.3, 1.0,
                                consistency_tol=0.0)


@pytest.mark.parametrize("beta", [4.0, 8.0])
def test_perturbed_vector_accurate_at_large_beta(beta):
    # x = beta * half / 2 of 20 and 40: one expansion of e^{-x t} would
    # lose about e^x to cancellation
    disc = lv.paired_modes(beta, n_side=4, amplitude=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        space = lv.TruncatedFock(disc, n_tot_max=2)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    L0 = L.with_lambda(0.0)
    A = (L0.matrix + 0.3 * L.I).tocsc()
    omega0 = lv.gns_vacuum(space, 1.0, beta)
    rows = lv._sector_rows(space, lv._detector_factors(L.G)[0].toarray() != 0,
                           omega0)
    half = lv._scaled(A.tocsr()[rows][:, rows])[2]
    assert beta * half / 2.0 > 20.0
    omega = lv.perturbed_kms_vector(L0, L.I, 0.3, beta,
                                    consistency_tol=1e-13)
    # scipy's Taylor action in short steps, exact here to 2e-16
    exact = spla.expm_multiply(-(beta / 2.0) * A, omega0)
    exact /= np.linalg.norm(exact)
    assert np.max(np.abs(omega - exact)) < 1e-13


# ---------------------------------------------------------------------------
# spectra

def test_dense_spectrum_symmetric_about_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.1)
    report = lv.spectrum_scan(L, method="dense")
    assert report.method == "dense"
    full = np.sort(np.linalg.eigvalsh(L.matrix.toarray()))
    assert np.max(np.abs(full + full[::-1])) < 1e-10 * max(1.0, abs(full[-1]))
    assert report.kernel_dim >= 1


def test_free_kernel_dimension_two():
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.0)
    report = lv.spectrum_scan(L)
    assert report.kernel_dim == 2


def test_ambiguous_threshold_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=4, n_tot=2)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.0)
    floor = lv.resonance_floor(space, 1.0)
    with pytest.warns(AmbiguousThresholdWarning):
        lv.spectrum_scan(L, theta=floor)


def test_shift_invert_residual_bound_enforced(monkeypatch):
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=3)
    L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.04)
    report = lv.spectrum_scan(L)
    assert report.method == "shift-invert"
    assert report.residual_max <= 1e-9 * max(report.norm_estimate, 1.0)
    # the seeded start vector makes reruns bit-identical
    assert np.array_equal(lv.spectrum_scan(L).eigenvalues, report.eigenvalues)

    eigsh = lv.spla.eigsh

    def perturbed(*args, **kw):
        vals, vecs = eigsh(*args, **kw)
        return vals, vecs + 1e-6 * np.ones_like(vecs)

    monkeypatch.setattr(lv.spla, "eigsh", perturbed)
    with pytest.raises(NumericalError, match="residual bound"):
        lv.spectrum_scan(L)


def test_shift_invert_saturated_kernel_raises():
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=3)
    L0 = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.0)
    assert lv.spectrum_scan(L0).kernel_dim == 2
    with pytest.raises(NumericalError, match="all 2 shift-invert"):
        lv.spectrum_scan(L0, k=2)


def test_shift_invert_matches_dense_oracle():
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.1)
    dense = lv.spectrum_scan(L, method="dense")
    report = lv.spectrum_scan(L)
    assert report.method == "shift-invert"
    assert len(report.eigenvalues) == 12 < len(dense.eigenvalues)
    # the k eigenvalues nearest zero, each equal to a dense one
    dist = np.abs(dense.eigenvalues[:, None] - report.eigenvalues[None, :])
    assert np.max(np.min(dist, axis=0)) < 1e-10
    assert np.max(np.abs(report.eigenvalues)) \
        <= np.abs(dense.eigenvalues[11]) + 1e-10
    assert report.kernel_dim == dense.kernel_dim
    assert report.eigenvectors.shape == (L.dim, 12)
    assert report.lu_nnz > 0 and report.solves > 0
    assert dense.lu_nnz == dense.solves == 0


def test_shift_invert_rejects_tiny_operator():
    tiny = lv.LiouvilleanOperator(
        matrix=sp.csr_matrix(np.diag([0.0, 1.0])), lam=0.0, gap=1.0,
        space=None)
    with pytest.raises(ValidationError, match="shift-invert"):
        lv.spectrum_scan(tiny)
    assert lv.spectrum_scan(tiny, method="dense").kernel_dim == 1
    with pytest.raises(ValidationError, match="unknown spectrum method"):
        lv.spectrum_scan(tiny, method="lanczos")


def _criterion_8_space(seed=0):
    disc = lv.jittered_modes(1.0, seed=seed, amplitude=0.03)
    return lv.TruncatedFock(disc, n_tot_max=3)


def test_shift_invert_fill_guard():
    # the default column ordering fills L+U with 19.9 M entries here
    L = lv.assemble_liouvillean(_criterion_8_space(), 1.0, OFFDIAG, 0.02)
    report = lv.spectrum_scan(L)
    assert L.dim == 11700
    assert report.lu_nnz < 2_000_000
    again = lv.spectrum_scan(L)
    assert (again.lu_nnz, again.solves) == (report.lu_nnz, report.solves)


def test_shift_invert_reads_its_fill_after_the_eigensolve(monkeypatch):
    # SuperLU caches the L and U it builds on first access (8.1 MB at dim
    # 11 700): read before eigsh they stay alive beside the factors through
    # the whole eigensolve.  The factors go before the residual norms.
    space = lv.TruncatedFock(lv.jittered_modes(1.0, seed=0, n_side=4),
                             n_tot_max=2)
    L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.1)
    events = []
    splu, eigsh, norm = spla.splu, spla.eigsh, np.linalg.norm

    class Recording:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            if name in ("L", "U"):
                events.append(name)
            return getattr(self.lu, name)

        def solve(self, b):
            return self.lu.solve(b)

        def __del__(self):
            events.append("freed")

    def solving(*args, **kwargs):
        out = eigsh(*args, **kwargs)
        events.append("eigsh")
        return out

    def norming(*args, **kwargs):
        events.append("norm")
        return norm(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", lambda A, **kw: Recording(splu(A, **kw)))
    monkeypatch.setattr(spla, "eigsh", solving)
    monkeypatch.setattr(np.linalg, "norm", norming)
    report = lv.spectrum_scan(L)
    monkeypatch.undo()
    assert events[events.index("eigsh"):] == ["eigsh", "L", "U", "freed",
                                              "norm"]
    assert report.lu_nnz == lv.spectrum_scan(L).lu_nnz > 0


@pytest.fixture(scope="module")
def criterion_8_sweeps():
    return {seed: lv.kernel_splitting_sweep(_criterion_8_space(seed), 1.0,
                                            OFFDIAG, [0.0, 0.02, 0.04, 0.08])
            for seed in (0, 11, 15, 18)}


def test_split_pair_tracked_past_reservoir_levels(criterion_8_sweeps):
    # on these grids a reservoir eigenvalue lies nearer zero than the split
    # partner, and the second-smallest |eigenvalue| gave exponents 1.37,
    # -0.11 and 1.44
    for seed in (11, 15, 18):
        rep = criterion_8_sweeps[seed]
        assert rep.kernel_dims.tolist() == [2, 1, 1, 1]
        assert 1.8 <= rep.fit_exponent <= 2.2, (seed, rep.fit_exponent)


def test_level_shift_predicts_splitting(criterion_8_sweeps):
    for seed in (0, 11, 15, 18):
        rep = criterion_8_sweeps[seed]
        predicted = rep.predicted_prefactor * 0.02 ** 2
        assert abs(predicted / rep.gaps[1] - 1.0) < 0.01, seed


def _splitting_warnings(space, lambdas):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = lv.kernel_splitting_sweep(space, 1.0, OFFDIAG, lambdas)
    return rep, [str(w.message) for w in caught
                 if issubclass(w.category, AmbiguousThresholdWarning)
                 and "predicted splitting" in str(w.message)]


def test_splitting_below_theta_warns():
    # theta = 1.27e-7 here; at lambda = 0.005 the split pair is 1.39e-8
    # apart, below theta / 3, so spectrum_scan alone says nothing and
    # the kernel count reads 2; at lambda = 0.02 it is 1.75 theta apart
    disc = lv.jittered_modes(1.0, seed=5, amplitude=0.03)
    rep, msgs = _splitting_warnings(lv.TruncatedFock(disc, n_tot_max=2),
                                    [0.0, 0.005, 0.02])
    assert rep.kernel_dims.tolist()[1] == 2
    named = [lam for lam in (0.0, 0.005, 0.02)
             if any("lambda=%s " % fmt17(lam) in m for m in msgs)]
    assert named == [0.005, 0.02], msgs


def test_sweep_builds_its_coupling_once(monkeypatch):
    space = lv.TruncatedFock(lv.jittered_modes(1.0, seed=5, amplitude=0.03),
                             n_tot_max=2)
    lambdas = [0.0, 0.005, 0.02]
    base = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.0)
    expected = [base.with_lambda(lam).matrix for lam in lambdas]
    built, scanned = [], []
    difference, scan = lv._difference, lv.spectrum_scan

    def building(*args):
        built.append(None)
        return difference(*args)

    def scanning(L, *args, **kwargs):
        scanned.append(L.matrix)
        return scan(L, *args, **kwargs)

    monkeypatch.setattr(lv, "_difference", building)
    monkeypatch.setattr(lv, "spectrum_scan", scanning)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousThresholdWarning)
        lv.kernel_splitting_sweep(space, 1.0, OFFDIAG, lambdas)
    # V once, and each scan of the generator with_lambda gives
    assert len(built) == 1
    assert len(scanned) == len(expected)
    assert all(_same_csr(a, b) for a, b in zip(scanned, expected))


def _sweep_and_its_scans(monkeypatch, space, lambdas, independent=False):
    """The sweep's report, its scans' reports and the permc_spec of each
    splu call.  With independent=True every scan runs in an empty context,
    where no column order of the sweep is known: the separate
    spectrum_scan calls of the same operators."""
    scan, splu = lv.spectrum_scan, spla.splu
    reports, specs = [], []

    def scanning(L, *args, **kwargs):
        if independent:
            rep = contextvars.Context().run(scan, L, *args, **kwargs)
        else:
            rep = scan(L, *args, **kwargs)
        reports.append(rep)
        return rep

    def factorizing(A, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(A, **kwargs)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousThresholdWarning)
        warnings.simplefilter("ignore", ResonanceWarning)
        patch.setattr(lv, "spectrum_scan", scanning)
        patch.setattr(spla, "splu", factorizing)
        sweep = lv.kernel_splitting_sweep(space, 1.0, OFFDIAG, lambdas)
    assert lv._column_orders.get() is None
    return sweep, reports, specs


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("space", ["criterion 8", "paired"])
@pytest.mark.parametrize("lambdas, mmd", [([0.0, 0.02, 0.04, 0.08], 2),
                                          ([0.02, 0.0, 0.04], 2)])
def test_sweep_scans_of_one_pattern_share_a_column_order(monkeypatch, space,
                                                         lambdas, mmd):
    space = (_criterion_8_space(0) if space == "criterion 8"
             else _small_paired(n_side=4, n_tot=3)[1])
    shared, reports, specs = _sweep_and_its_scans(monkeypatch, space, lambdas)
    alone, separate, alone_specs = _sweep_and_its_scans(
        monkeypatch, space, lambdas, independent=True)
    # the diagonal lambda = 0 and the first positive coupling are ordered
    assert specs.count("MMD_AT_PLUS_A") == mmd
    assert specs.count("NATURAL") == len(lambdas) - mmd
    assert alone_specs == ["MMD_AT_PLUS_A"] * len(lambdas)
    for a, b in zip(reports, separate):
        assert _same_bits(a.eigenvalues, b.eigenvalues)
        assert _same_bits(a.eigenvectors, b.eigenvectors)
        assert (a.kernel_dim, a.lu_nnz, a.solves) == (b.kernel_dim, b.lu_nnz,
                                                      b.solves)
    for name in ("lambdas", "gaps", "kernel_dims", "fit_exponent",
                 "predicted_prefactor", "theta", "lu_nnz", "solves"):
        assert _same_bits(getattr(shared, name), getattr(alone, name)), name


def test_each_sweep_orders_its_own_columns(monkeypatch):
    space = _small_paired(n_side=4, n_tot=3)[1]
    lambdas = [0.0, 0.02, 0.04, 0.08]
    first, _, specs = _sweep_and_its_scans(monkeypatch, space, lambdas)
    second, _, again = _sweep_and_its_scans(monkeypatch, space, lambdas)
    assert specs == again == ["MMD_AT_PLUS_A"] * 2 + ["NATURAL"] * 2
    assert _same_bits(first.gaps, second.gaps)


def test_a_failed_sweep_drops_its_column_orders(monkeypatch):
    space = _small_paired(n_side=4, n_tot=3)[1]
    scan, scanned = lv.spectrum_scan, []

    def failing(L, *args, **kwargs):
        scanned.append(lv._column_orders.get())
        if len(scanned) == 3:
            raise NumericalError("scan failed")
        return scan(L, *args, **kwargs)

    monkeypatch.setattr(lv, "spectrum_scan", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        with pytest.raises(NumericalError, match="scan failed"):
            lv.kernel_splitting_sweep(space, 1.0, OFFDIAG,
                                      [0.0, 0.02, 0.04, 0.08])
    # one list for the sweep, holding the two patterns ordered so far
    assert scanned[0] is scanned[1] is scanned[2] and len(scanned[2]) == 2
    assert lv._column_orders.get() is None


def test_sweep_needs_two_positive_couplings(monkeypatch):
    # the exponent is fitted over the positive couplings; NaN is not one
    _, space = _small_paired()

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the coupling check")

    monkeypatch.setattr(lv, "spectrum_scan", no_scan)
    for lambdas, count in (([0.0], 0), ([0.0, 0.1], 1),
                           ([math.nan, -0.1, 0.2], 1)):
        with pytest.raises(ValidationError,
                           match="need at least two, got %d" % count):
            lv.kernel_splitting_sweep(space, 1.0, OFFDIAG, lambdas)


def test_splitting_well_above_theta_is_quiet():
    # criterion-8 grid, seed 0: lambda^2 * prefactor is about 300 theta
    rep, msgs = _splitting_warnings(_criterion_8_space(0), [0.0, 0.02, 0.04])
    assert rep.predicted_prefactor * 0.02 ** 2 > 100 * rep.theta
    assert msgs == []


# ---------------------------------------------------------------------------
# time evolution and distance series

def test_evolution_conserves_norm_and_energy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.2)
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi0 /= np.linalg.norm(psi0)
    result = lv.evolve(L, psi0, np.linspace(0.5, 8.0, 16))
    norms = np.linalg.norm(result.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    assert result.norm_drift < 1e-10
    assert result.energy_drift < 1e-10


def test_equilibrium_vector_is_stationary():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L0 = lv.assemble_L0(space, 1.0)
    omega = lv.gns_vacuum(space, 1.0, 1.0)
    result = lv.evolve(L0, omega.astype(complex), [1.0, 3.0])
    for state in result.states:
        assert np.max(np.abs(state - omega)) < 1e-12


def _excited_run():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.2)
    return L, lv.product_initial(space, np.diag([1.0, 0.0]))


def test_evolve_rejects_a_nonfinite_initial_vector():
    L, _ = _excited_run()
    with pytest.raises(ValidationError, match="finite and normalized"):
        lv.evolve(L, np.full(L.dim, math.nan), [1.0])


def _shell_run():
    """The criterion-10 operator on its n_tot_max = 2 truncation (the
    650-row block of the excited start) and that start."""
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    lam = lv.fgr_window(disc, 1.0, disc.recurrence_time())[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)
    return L, lv.INITIAL_STATES["excited"](L)


@pytest.mark.parametrize("tgrid", [
    [], [1.0, 1.0], [2.0, 1.0], [0.5, math.nan], [math.nan], [math.inf],
    [0.5, math.inf], [-math.inf, 0.5]])
def test_evolve_refuses_a_time_grid_that_is_not_finite_and_increasing(tgrid):
    L, psi0 = _excited_run()
    message = "time grid must be nonempty, finite and increasing"
    with pytest.raises(ValidationError, match=message):
        lv.evolve(L, psi0, tgrid)
    with pytest.raises(ValidationError, match=message):
        lv.rte_distance_series(L, psi0, tgrid)


def test_evolve_refuses_an_initial_vector_of_the_wrong_shape():
    L, psi0 = _shell_run()
    R = L.space.reservoir_dim
    assert psi0[-1] == 0.0
    # one trailing zero used to be dropped, a short vector to raise
    # IndexError, and a (4, R) array to fail inside an einsum
    for bad in (np.append(psi0, 0.0), psi0[:-1], psi0.reshape(4, R)):
        with pytest.raises(ValidationError,
                           match=r"shape \(%d,\), got \(" % L.dim):
            lv.evolve(L, bad, [0.5])


def test_evolve_rejects_a_nonfinite_block():
    L, psi0 = _excited_run()
    broken = L.matrix.copy()
    broken.data[0] = math.nan    # in row 0, the excited ++ vacuum
    with pytest.raises(NumericalError, match="non-finite entry"):
        lv.evolve(dataclasses.replace(L, matrix=broken), psi0, [1.0])


def test_evolve_drift_gates_fail_on_a_nonfinite_state(monkeypatch):
    L, psi0 = _excited_run()
    window = lv._chebyshev_window

    def poisoned(H2, v, *rest):
        # the steps read the window's outputs as they complete, so the
        # series itself must go non-finite
        return window(H2, np.full_like(v, math.nan), *rest)

    monkeypatch.setattr(lv, "_chebyshev_window", poisoned)
    with pytest.raises(NumericalError, match="norm drift nan"):
        lv.evolve(L, psi0, [1.0])


class _Dense:
    """A dense matrix that hashes and compares by its bytes."""

    def __init__(self, M):
        self.M = M
        self.key = (M.shape, M.dtype.str,
                    hashlib.sha256(np.ascontiguousarray(M).tobytes()).digest())

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=128)
def _propagator(op, t):
    return sla.expm(-1j * t * op.M)


def _dense_propagator(M, t):
    """The dense reference sla.expm(-1j t M), the same bits as a call in
    place, computed once per (operator, t) across the tests: they share
    operators and grid times.  A reference of the 180-row check operator
    takes 0.5 MB, and the 128 used last are kept."""
    return _propagator(_Dense(M), t)


def _block(L, psi0):
    """evolve's block for psi0 and its scaling: the rows of psi0's sector
    under the links of L's factors, then (rows, H2, center, half)."""
    links = np.zeros((4, 4), dtype=bool)
    if L.G is not None:
        links = np.any([f.toarray() != 0 for f in lv._detector_factors(L.G)],
                       axis=0)
    rows = lv._sector_rows(L.space, links, psi0)
    B = L.matrix[rows][:, rows] if L.dim else lv._generator(L, L.lam, rows)
    return (rows,) + lv._scaled(B)


def _dense_check_operator(zeta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        disc = lv.paired_modes(1.0, n_side=4, amplitude=0.5, zeta=zeta)
        space = lv.TruncatedFock(disc, n_tot_max=2)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    assert np.iscomplexobj(L.matrix.data) == (zeta != math.pi)
    return space, L


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
def test_evolution_matches_dense_exponential(zeta):
    space, L = _dense_check_operator(zeta)
    rng = np.random.default_rng(7)
    spread = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    _, _, _, half = _block(L, spread)
    # 3.5 windows of full output count, then one point three spans away
    n_uniform = 7 * lv._WINDOW_OUTPUTS // 2
    dt = 0.8 * lv._WINDOW_SPAN / (lv._WINDOW_OUTPUTS * half)
    windowed = np.append(dt * np.arange(1, n_uniform + 1),
                         n_uniform * dt + 3.0 * lv._WINDOW_SPAN / half)
    # a shifted spectrum puts the Gershgorin center far from zero
    shifted = dataclasses.replace(
        L, matrix=(L.matrix + 2.5 * sp.identity(space.dim)).tocsr())
    for op, tgrid in ((L, np.array([0.3, 0.5, 1.7, 2.0, 4.6, 60.0])),
                      (L, windowed), (shifted, windowed)):
        M = op.matrix.toarray()   # 60 above is reached in sub-steps
        runs = [(psi0, lv.evolve(op, psi0, tgrid).states)
                for psi0 in (spread / np.linalg.norm(spread),
                             lv.product_initial(space, np.diag([1.0, 0.0])))]
        for i, t in enumerate(tgrid):
            U = _dense_propagator(M, t)
            for psi0, states in runs:
                assert np.max(np.abs(states[i] - U @ psi0)) < 1e-12


def test_leapfrog_windows_match_the_dense_exponential(monkeypatch):
    space, L = _dense_check_operator(math.pi)
    shifted = dataclasses.replace(
        L, matrix=(L.matrix + 10.0 * sp.identity(space.dim)).tocsr())
    caller = threading.get_ident()
    threads, folders = [], set()
    recurrence, fold = lv._recurrence, lv._fold

    def recording(*args):
        threads.append(threading.get_ident())
        return recurrence(*args)

    def folding(*args):
        folders.add(threading.get_ident())
        return fold(*args)

    monkeypatch.setattr(lv, "_recurrence", recording)
    monkeypatch.setattr(lv, "_fold", folding)
    # the two-thread schedule, which a block this small would not take
    monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", 0)
    # four full windows of a dyadic uniform grid
    tgrid = 0.5 * np.arange(1, 4 * lv._WINDOW_OUTPUTS + 1)
    for op, shift in ((L, 0.0), (shifted, 10.0)):
        M = op.matrix.toarray()
        for psi0, series in ((lv.product_initial(space, np.diag([1.0, 0.0])),
                              1), (_spread_state(space), 2)):
            _, _, center, half = _block(op, psi0)
            assert half * tgrid[lv._WINDOW_OUTPUTS - 1] <= lv._WINDOW_SPAN
            assert abs(center - shift) < 1.0
            threads.clear()
            folders.clear()
            before = threading.active_count()
            result = lv.evolve(op, psi0, tgrid)
            assert threading.active_count() == before
            # the products on the caller, the folds on one worker
            assert set(threads) == {caller}
            assert len(folders) == 1 and caller not in folders
            # a real start leapfrogs, one real recurrence a window (taking
            # W(tau) chi(s) directly would run two in every window but the
            # first); a complex one runs two, on its real and imaginary parts
            assert len(threads) == 4 * series
            terms = lv._chebyshev_rows(half * tgrid[:lv._WINDOW_OUTPUTS])
            drift_checks = 2 * (len(tgrid) + 1)
            assert result.matvecs == (drift_checks
                                      + 4 * series * (terms.shape[1] - 1))
            for t, state in zip(tgrid, result.states):
                exact = _dense_propagator(M, t) @ psi0
                assert np.max(np.abs(state - exact)) < 1e-12


def _shell_windows(count):
    """The 650-row shell run, its start with equal real and imaginary
    parts, and a grid of count full windows."""
    L, psi0 = _shell_run()
    tgrid = 0.5 * np.arange(1, count * lv._WINDOW_OUTPUTS + 1)
    return L, (1.0 + 1.0j) / math.sqrt(2.0) * psi0, tgrid


def test_evolve_gives_the_same_bits_under_any_thread_interleaving(
        monkeypatch):
    monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", 0)     # two threads a call
    L, psi0, tgrid = _shell_windows(5)
    _, _, _, half = _block(L, psi0)
    # each window's series is several chunks long
    terms = lv._chebyshev_rows(half * tgrid[:lv._WINDOW_OUTPUTS]).shape[1]
    assert terms > 4 * lv._CHEBYSHEV_CHUNK
    checks = 2 * (len(tgrid) + 1)
    # a complex start runs two real series a window, a real one leapfrogs
    for start, series in ((psi0, 2 * 5), (_shell_run()[1], 5)):
        runs = [lv.evolve(L, start, tgrid)]
        assert runs[0].matvecs == checks + series * (terms - 1)

        def run():
            runs.append(lv.evolve(L, start, tgrid))

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            run()
            # three calls at once: six threads on the host's cores
            callers = [threading.Thread(target=run) for _ in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(runs) == 5
        first = runs[0]
        assert first.norm_drift > 0.0 and first.energy_drift > 0.0
        for other in runs[1:]:
            assert np.array_equal(first.states, other.states)
            for name in ("norm_drift", "energy_drift", "matvecs"):
                assert getattr(first, name) == getattr(other, name)


def test_evolve_reports_the_first_failing_step_and_joins_its_thread(
        monkeypatch):
    L, psi0, tgrid = _shell_windows(6)
    assert lv._WINDOW_OUTPUTS == 14
    window = lv._chebyshev_window
    calls = []

    def poisoned(H2, v, *rest):
        calls.append(None)
        if len(calls) == 3:     # the third window's series
            v = np.full_like(v, math.nan)
        return window(H2, v, *rest)

    def counting(psi):
        counting.calls += 1
        return 0.0

    before = threading.active_count()
    monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", 0)     # two threads a call
    with monkeypatch.context() as m:
        m.setattr(lv, "_chebyshev_window", poisoned)
        for observe in (None, counting):
            calls.clear()
            counting.calls = 0
            with pytest.raises(
                    NumericalError,
                    match=r"norm drift nan at step 28 \(t=14.5\)$"):
                lv.evolve(L, psi0, tgrid, observe=observe)
            # the failure stops the run in the failing window
            assert len(calls) == 3
            assert threading.active_count() == before
    # steps 0 to 27 were recorded, and none at or after the failing one
    assert counting.calls == 28

    class Refused(Exception):
        pass

    def observe(psi):
        observe.calls += 1
        if observe.calls == 12:
            raise Refused("no record at step 11")
        return lv.reduce_detector(psi, L.space)

    observe.calls = 0
    with pytest.raises(Refused) as caught:
        lv.evolve(L, psi0, tgrid, observe=observe)
    assert caught.type is Refused
    assert str(caught.value) == "no record at step 11"
    # the steps queued after the failing one return at once
    assert observe.calls == 12
    assert threading.active_count() == before


def test_evolve_raises_from_the_last_step_after_its_last_fold(monkeypatch):
    # the last grid time's step is queued after the last window's last
    # fold: its exception comes out of evolve all the same
    L, psi0, tgrid = _shell_windows(2)

    class Refused(Exception):
        pass

    def observe(psi):
        observe.calls += 1
        if observe.calls == len(tgrid):
            raise Refused("no record at the last step")
        return 0.0

    before = threading.active_count()
    for threshold in (lv._WORKER_MIN_ROWS, 0):  # inline, then two threads
        monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", threshold)
        observe.calls = 0
        with pytest.raises(Refused) as caught:
            lv.evolve(L, psi0, tgrid, observe=observe)
        assert caught.type is Refused
        assert str(caught.value) == "no record at the last step"
        assert observe.calls == len(tgrid)
        assert threading.active_count() == before


def test_small_blocks_run_inline_with_the_same_bits(monkeypatch):
    # the 650-row shell block lies below the worker threshold; the
    # reference is the worker schedule, taken with the threshold at 0
    L, psi0, tgrid = _shell_windows(2)
    block, _, _, _ = _block(L, psi0)
    assert len(block) < lv._WORKER_MIN_ROWS
    starts = (psi0, _shell_run()[1])    # a complex start, and a real one

    class Refused(Exception):
        pass

    def refusing(psi):
        refusing.calls += 1
        if refusing.calls == 12:
            raise Refused("no record at step 11")
        return 0.0

    def outputs():
        runs = [lv.evolve(L, start, tgrid) for start in starts]
        kms = lv.perturbed_kms_vector(L, L.I, L.lam, L.space.disc.beta)
        refusing.calls = 0
        with pytest.raises(Refused):
            lv.evolve(L, psi0, tgrid, observe=refusing)
        return runs, kms, refusing.calls

    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was started")

    before = threading.active_count()
    with monkeypatch.context() as m:
        m.setattr(lv, "ThreadPoolExecutor", no_thread)
        inline = outputs()
    assert threading.active_count() == before
    monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", 0)
    worker = outputs()
    for a, b in zip(inline[0], worker[0]):
        assert np.array_equal(a.states, b.states)
        for name in ("norm_drift", "energy_drift", "matvecs"):
            assert getattr(a, name) == getattr(b, name)
    assert np.array_equal(inline[1], worker[1])
    # a failing step stops both schedules at the same step
    assert inline[2] == worker[2] == 12


def test_evolve_hands_each_step_to_the_worker_between_two_folds(
        monkeypatch):
    # the two-thread schedule, which a block this small would not take
    monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", 0)
    space, L = _dense_check_operator(math.pi)
    real = lv.product_initial(space, np.diag([1.0, 0.0]))
    _, _, _, half = _block(L, real)
    # three full windows, a gap of over two spans reached in sub-steps,
    # then 28 more grid times
    assert lv._WINDOW_OUTPUTS == 14
    gap = 0.5 * math.ceil(2.5 * lv._WINDOW_SPAN / (0.5 * half))
    tgrid = np.append(0.5 * np.arange(1, 43),
                      21.0 + gap + 0.5 * np.arange(28))
    assert [len(times) for _, times, _ in lv._windows(tgrid, half)] == [
        14, 14, 14, 1, 1, 3, 14, 11]
    M = L.matrix.toarray()
    for psi0 in (real, _spread_state(space)):
        plain = lv.evolve(L, psi0, tgrid)
        for t, state in zip(tgrid, plain.states):
            assert np.max(np.abs(state - _dense_propagator(M, t) @ psi0)) < 1e-12
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            switched = lv.evolve(L, psi0, tgrid)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(switched.states, plain.states)

        # the worker's jobs, in the order it runs them: each window's slot
        # writes, each fold with its terms k0 to k1 (k0 = 0 starts a series)
        # and each step with its state
        jobs, workers = [], set()
        prepare, fold_chunk = lv._prepare, lv._fold_chunk

        def preparing(*args):
            jobs.append(("write",))
            return prepare(*args)

        def folding(folds, lengths, k0, chunk, scratch):
            workers.add(threading.get_ident())
            jobs.append(("fold", k0, k0 + len(chunk)))
            return fold_chunk(folds, lengths, k0, chunk, scratch)

        def observe(psi):
            workers.add(threading.get_ident())
            jobs.append(("step", psi.copy()))
            return 0.0

        with monkeypatch.context() as m:
            m.setattr(lv, "_prepare", preparing)
            m.setattr(lv, "_fold_chunk", folding)
            lv.evolve(L, psi0, tgrid, observe=observe)
        assert len(workers) == 1 and threading.get_ident() not in workers
        # each grid step once, in grid order
        steps = [job[1] for job in jobs if job[0] == "step"]
        assert np.array_equal(np.array(steps), plain.states)
        # the window and the term count at which each grid time's row is
        # complete: row j at the longest of the window's rows 0 to j
        _, _, _, half = _block(L, psi0)
        complete = []
        for w, (start, times, on_grid) in enumerate(lv._windows(tgrid, half)):
            if on_grid:
                rows = lv._chebyshev_rows(half * (times - start))
                lengths = [np.nonzero(row)[0][-1] + 1 for row in rows]
                complete += [(w, n) for n in np.maximum.accumulate(lengths)]
        # the fold each step follows, with only steps between them, as
        # (window, series, k0, k1); a window's slot writes come before it
        last = {}   # the last series of each window
        w, fold, after = -1, None, []
        for job in jobs:
            if job[0] == "write":
                w, series, fold = w + 1, 0, None
            elif job[0] == "fold":
                series += job[1] == 0
                fold = last[w] = w, series, job[1], job[2]
            else:
                after.append(fold)
        assert len(after) == len(complete)
        # each step right after the fold of its window's last series that
        # completes its row
        for (w, n), fold in zip(complete, after):
            assert fold is not None and fold[:2] == (w, last[w][1])
            assert fold[2] < n <= fold[3]
        # and some fold completes more than one row
        assert len(set(after)) < len(after)


def test_evolve_reuses_its_slots_on_uneven_windows(monkeypatch):
    # the two-thread schedule, which a block this small would not take
    monkeypatch.setattr(lv, "_WORKER_MIN_ROWS", 0)
    # two windows of the dyadic step 0.5, a gap reached in sub-steps, a
    # non-dyadic stretch of step 1.1 in shorter windows, a second gap, then
    # the dyadic step again, ending in a short window
    tgrid = np.concatenate([0.5 * np.arange(1, 29),
                            34.0 + 1.1 * np.arange(17),
                            64.0 + 0.5 * np.arange(31)])
    prepare, fold_chunk = lv._prepare, lv._fold_chunk
    window = lv._chebyshev_window
    kinds = set()   # the slot writes of every run

    def address(row):
        return row.__array_interface__["data"][0]

    for zeta in (math.pi, math.pi / 2):
        space, L = _dense_check_operator(zeta)
        M = L.matrix.toarray()
        exact = [_dense_propagator(M, t) for t in tgrid]
        for psi0 in (lv.product_initial(space, np.diag([1.0, 0.0])),
                     _spread_state(space)):
            _, _, _, half = _block(L, psi0)
            shape = [(len(times), on_grid)
                     for _, times, on_grid in lv._windows(tgrid, half)]
            assert sum(not on_grid for _, on_grid in shape) >= 3
            assert len({m for m, _ in shape}) >= 4
            assert shape[-1][0] < lv._WINDOW_OUTPUTS
            plain = lv.evolve(L, psi0, tgrid)
            for U, state in zip(exact, plain.states):
                assert np.max(np.abs(state - U @ psi0)) < 1e-12
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)     # switch threads often
            try:
                switched = lv.evolve(L, psi0, tgrid)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(switched.states, plain.states)

            # the worker's jobs in the order it runs them, each with the
            # slots it writes or, for a step, the grid time it reads
            log, slot_of = [], []
            run = set()

            def preparing(out, negate, to=None, source=None):
                run.add("leapfrog" if negate else "zero")
                written = {address(row) for row in out}
                if to is not None:
                    run.add("move")
                    written.add(address(to))
                log.append(("write", written))
                return prepare(out, negate, to, source)

            def folding(folds, lengths, k0, chunk, scratch):
                # row j takes terms below lengths[j] only
                log.append(("fold", {address(row) for _, _, target in folds
                                     for row, n in zip(target, lengths)
                                     if n > k0}))
                return fold_chunk(folds, lengths, k0, chunk, scratch)

            def windowing(H2, v, rows, odd_factor, pool, out, done):
                if done is not None:  # grid time i reads slot slot_of[i]
                    slot_of.extend(address(row) for row in out)
                return window(H2, v, rows, odd_factor, pool, out, done)

            def observe(psi):
                log.append(("step", sum(kind == "step" for kind, _ in log)))
                return psi.copy()

            with monkeypatch.context() as m:
                m.setattr(lv, "_prepare", preparing)
                m.setattr(lv, "_fold_chunk", folding)
                m.setattr(lv, "_chebyshev_window", windowing)
                logged = lv.evolve(L, psi0, tgrid, observe=observe)
            assert np.array_equal(logged.states, plain.states)
            # a real start on the real block leapfrogs where it can
            assert ("leapfrog" in run) == (zeta == math.pi
                                           and not psi0.imag.any())
            kinds |= run
            slots = set(slot_of)
            # a fold into the imaginary parts writes 8 bytes into a slot
            events = [(kind, {slot_of[arg]} if kind == "step" else
                       {a if a in slots else a - 8 for a in arg})
                      for kind, arg in log]
            assert [arg for kind, arg in log if kind == "step"] == list(
                range(len(tgrid)))
            for slot in slots:
                touched = [kind for kind, written in events
                           if slot in written]
                for j, kind in enumerate(touched):
                    if kind == "step":
                        # after the fold that completes its output, and
                        # before any later write to its slot
                        assert j > 0 and touched[j - 1] == "fold"
                        assert touched[j + 1:j + 2] in ([], ["write"])
    assert kinds == {"leapfrog", "zero", "move"}


def test_leapfrog_keeps_a_long_run_within_its_drift():
    # t = 2000 is 500 windows, each one real recurrence off the last two
    L, psi0 = _shell_run()
    result = lv.evolve(L, psi0, 0.5 * np.arange(1, 4001),
                       observe=lambda psi: 0.0)
    assert result.norm_drift < 1e-12
    assert result.energy_drift < 1e-12


def test_evolution_windows_stay_within_span(monkeypatch):
    space, L = _dense_check_operator(math.pi)
    psi0 = lv.product_initial(space, np.diag([1.0, 0.0]))
    _, _, _, half = _block(L, psi0)
    spans = []
    rows = lv._chebyshev_rows

    def recording(xs, decay=False):
        spans.append(float(np.max(np.abs(xs))))
        return rows(xs, decay)

    monkeypatch.setattr(lv, "_chebyshev_rows", recording)
    # a grid that starts before 0 is reached backwards in sub-steps
    tgrid = np.array([-60.0, -59.5, 1.0, 60.0])
    assert half * 60.0 > 2.0 * lv._WINDOW_SPAN
    states = lv.evolve(L, psi0, tgrid).states
    assert max(spans) <= lv._WINDOW_SPAN
    M = L.matrix.toarray()
    for t, state in zip(tgrid, states):
        assert np.max(np.abs(state - _dense_propagator(M, t) @ psi0)) < 1e-12


def _exact_row(x, count, decay):
    """The first count coefficients of a _chebyshev_rows row, from Bessel
    values to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        if decay:   # 2 (-1)^k I_k(x)
            vals = [(-1) ** k * mpmath.besseli(k, x) for k in range(count)]
        else:       # 2 (-i)^k J_k(x) with the odd terms multiplied by i
            vals = [(-1) ** (k // 2) * mpmath.besselj(k, x)
                    for k in range(count)]
        row = np.array([float(2 * v) for v in vals])
    row[0] /= 2.0
    return row


def test_chebyshev_rows_match_bessel_expansions():
    # scipy's jv misses J_82(80.5) by 1.6e-15, so the reference is mpmath
    from scipy.special import iv, jv
    xs = np.array([-3.0, 0.0, 0.5, 10.0, 80.5, 90.0])
    for decay in (False, True):
        rows = lv._chebyshev_rows(xs, decay=decay)
        lengths = [int(np.nonzero(row)[0][-1]) + 1 for row in rows]
        assert rows.shape[1] == max(lengths)
        for x, row, n in zip(xs, rows, lengths):
            scale = math.exp(abs(x)) if decay else 1.0
            # the a-priori bound covers every term from this one on
            bound = lv._a_priori_length(abs(x), decay)
            exact = _exact_row(x, max(bound, rows.shape[1]), decay)
            assert np.max(np.abs(row - exact[:len(row)])) < 1e-15 * scale
            # cut after the last coefficient above 1e-16, exactly
            assert abs(row[n - 1]) >= 1e-16 * scale
            assert np.max(np.abs(exact[n:]), initial=0.0) < 1e-16 * scale
            k = np.arange(n)    # and scipy agrees to 1e-13 relative to scale
            ref = iv(k, x) * (-1.0) ** k if decay else \
                jv(k, x) * np.where((k // 2) % 2, -1.0, 1.0)
            ref[1:] *= 2.0
            assert np.max(np.abs(row[:n] - ref)) < 1e-13 * scale


def test_window_folds_each_row_to_its_own_cut(monkeypatch):
    space, L = _dense_check_operator(math.pi)
    psi0 = _spread_state(space)
    block, H2, center, half = _block(L, psi0)
    offsets = np.array([0.5, 2.0, 9.0, 4.0, 30.0])
    rows = lv._chebyshev_rows(offsets)
    lengths = [int(np.nonzero(row)[0][-1]) + 1 for row in rows]
    assert len(set(lengths)) == 5 and rows.shape[1] == max(lengths)
    folded = []
    fold = lv._fold

    def recording(coef, vectors, target, scratch):
        folded.append(coef.copy())
        return fold(coef, vectors, target, scratch)

    monkeypatch.setattr(lv, "_fold", recording)
    v = psi0[block]
    # row j is e^{-i x_j H} applied to x, H = (B - center) / half
    B = L.matrix.toarray()[np.ix_(block, block)] - center * np.eye(len(v))
    for x, parts in ((v.real.astype(complex), 1), (v, 2)):
        folded.clear()
        with ThreadPoolExecutor(max_workers=1) as pool:
            out, products = lv._chebyshev_window(H2, x, rows, -1j, pool)
        # one product fewer than the longest row for each nonzero part
        assert products == parts * (max(lengths) - 1)
        # every row-term once, and none with a zero coefficient
        assert sum(c.size for c in folded) == parts * sum(lengths)
        assert all(np.all(c != 0.0) for c in folded)
        for dt, state in zip(offsets / half, out):
            exact = _dense_propagator(B, dt) @ x
            assert np.max(np.abs(state - exact)) < 1e-12


def test_evolution_counts_its_products():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.2)
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi0 /= np.linalg.norm(psi0)
    tgrid = np.linspace(0.5, 8.0, 16)
    _, H, _, half = _block(L, psi0)
    assert not np.iscomplexobj(H.data)
    # one step at a time: two real series and two drift-check products each
    terms = lv._chebyshev_rows([half * 0.5]).shape[1]
    one_step_at_a_time = 16 * (2 * (terms - 1) + 2)
    first = lv.evolve(L, psi0, tgrid)
    # at least the drift checks (with the initial energy) and one window
    assert 2 * 17 + 2 * (terms - 1) < first.matvecs < one_step_at_a_time
    assert lv.evolve(L, psi0, tgrid).matvecs == first.matvecs


def test_evolution_skips_an_all_zero_part():
    space, L = _dense_check_operator(math.pi)
    real = lv.product_initial(space, np.diag([1.0, 0.0]))
    _, _, _, half = _block(L, real)
    series = lv._chebyshev_rows([half * 0.5]).shape[1] - 1
    # the initial energy and the one drift check take two products each
    runs = {}
    for name, psi0 in (("real", real), ("imaginary", 1j * real),
                       ("both", (1.0 + 1.0j) / math.sqrt(2.0) * real)):
        runs[name] = lv.evolve(L, psi0, [0.5])
        assert runs[name].matvecs == 4 + (2 if name == "both" else 1) * series
    assert np.array_equal(runs["imaginary"].states, 1j * runs["real"].states)


def _spread_state(space):
    rng = np.random.default_rng(7)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return psi / np.linalg.norm(psi)


def test_window_memory_stays_within_its_vector_count():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=8, n_tot=3)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    block, H, _, half = _block(L, _spread_state(space))
    v = _spread_state(space)[block]
    assert 2000 < len(v) < lv._FOLD_COLUMNS
    rows = lv._chebyshev_rows(np.linspace(0.1, 1.0, lv._WINDOW_OUTPUTS)
                              * lv._WINDOW_SPAN)
    # both parts of a complex v run one after the other: one ring of two
    # chunks, the output's 2 * _WINDOW_OUTPUTS real vectors, a product in
    # flight and under two more for the folds' temporaries (45.5 measured)
    vectors = 2 * lv._CHEBYSHEV_CHUNK + 2 * lv._WINDOW_OUTPUTS + 3
    scratch = lv._WINDOW_OUTPUTS * min(len(v), lv._FOLD_COLUMNS)
    # each part folds its even and its odd terms with coefficients of rows'
    # shape, which grow as outputs times terms, not with the block
    coefficients = 4 * rows.nbytes
    with ThreadPoolExecutor(max_workers=1) as pool:
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            lv._chebyshev_window(H, v, rows, -1j, pool)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
    assert peak < 8 * (vectors * len(v) + scratch) + coefficients


def test_evolve_memory_stays_within_its_vector_count():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=8, n_tot=3)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    spread = _spread_state(space)
    real = spread.real / np.linalg.norm(spread.real)
    tgrid = 0.5 * np.arange(1, 5 * lv._WINDOW_OUTPUTS + 1)
    lv.evolve(L, real, tgrid[:1])   # imports what the first call imports
    tracemalloc.start()
    try:    # the block's index and scaled matrix
        entry = tracemalloc.get_traced_memory()[0]
        block, H2, _, _ = _block(L, spread)
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    n = len(block)
    assert n == L.dim and n < lv._FOLD_COLUMNS
    # what evolve's docstring counts, in real vectors of the block's length:
    # the propagation's 47 and the checks' 5, the full-space vector of
    # L.dim and the fold scratch; 5 more for the coefficients and the
    # jitter of thread timing: 66.5 measured against 73
    vectors = 47 + 5 + 2 * L.dim / n + lv._WINDOW_OUTPUTS + 5
    for psi0 in (spread, real):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            result = lv.evolve(L, psi0, tgrid, observe=lambda psi: 0.0)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert np.array_equal(_block(L, psi0)[0], block)
        assert result.norm_drift < 1e-10
        assert peak < held + 8 * vectors * n


def test_reached_block_holds_no_spare_capacity(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=8, n_tot=3)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    spread = _spread_state(space)
    scaled = lv._scaled

    def spare(B):
        """_scaled with H2 built as a plain difference, whose arrays keep
        one spare slot per row."""
        H2, center, half = scaled(B)
        n = B.shape[0]
        padded = (B - center * sp.identity(n, format="csr")).tocsr()
        padded.data /= half
        padded.data *= 2.0
        assert padded.data.base.size == padded.nnz + n
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(padded, name), getattr(H2, name))
        return padded, center, half

    block, H2, _, _ = _block(L, spread)
    assert len(block) == 3876
    for array in (H2.data, H2.indices):
        held = array if array.base is None else array.base
        assert held.size == H2.nnz
    tgrid = 0.5 * np.arange(1, 2 * lv._WINDOW_OUTPUTS + 1)
    exact = lv.evolve(L, spread, tgrid)
    monkeypatch.setattr(lv, "_scaled", spare)
    padded = lv.evolve(L, spread, tgrid)
    assert np.array_equal(exact.states, padded.states)
    assert exact.matvecs == padded.matvecs


def _component_block(M, v):
    """The reached block by undirected connected components: the oracle."""
    pattern = sp.csr_matrix((np.ones(M.nnz), M.indices, M.indptr),
                            shape=M.shape)
    _, labels = connected_components(pattern, directed=False)
    return np.nonzero(np.isin(labels, labels[np.nonzero(v)[0]]))[0]


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
@pytest.mark.parametrize("G", [OFFDIAG, np.diag([1.0, -1.0])],
                         ids=["offdiag", "diagonal"])
def test_reached_block_is_the_components_of_the_start(zeta, G,
                                                     monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        disc = lv.jittered_modes(1.0, seed=0, n_side=4, zeta=zeta)
        space = lv.TruncatedFock(disc, n_tot_max=3)
        L = lv.assemble_liouvillean(space, 1.0, G, 0.3)
        factors = lv.assemble_factors(space, 1.0, G, 0.3)
    found = []      # the rows of every sector search
    sector_rows = lv._sector_rows

    def recording(*args):
        found.append(sector_rows(*args))
        return found[-1]

    monkeypatch.setattr(lv, "_sector_rows", recording)
    sizes = set()
    for name, build in lv.INITIAL_STATES.items():
        psi0 = build(L)
        for op in (L, factors):     # the rows that evolve propagates
            lv.evolve(op, psi0, [0.5])
            assert np.array_equal(found[-1],
                                  _component_block(L.matrix, psi0)), name
        sizes.add(len(found[-1]))
    # the perturbed KMS vector's operator L0 + lam I, from Omega_0: its
    # I-sector from the factors, and from the full I's block pattern
    A = (sp.diags(space.free_energies(1.0)) + 0.3 * L.I).tocsr()
    block = _component_block(A, lv.gns_vacuum(space, 1.0, 1.0))
    for op, I_mat in ((factors, None), (L, L.I)):
        found.clear()
        lv.perturbed_kms_vector(op, I_mat, 0.3, 1.0)
        assert len(found) == 1 and np.array_equal(found[0], block)
    sizes.add(len(block))
    assert min(sizes) < space.dim    # a proper block is among them


def _old_shifted(B, center):
    """B - center * 1 as scipy's difference, copied to shed the spare slot
    per row that the difference keeps: the construction _shifted
    replaces."""
    return (B - center * sp.identity(B.shape[0], format="csr")).tocsr(
        copy=True)


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
def test_scaled_block_matches_the_old_construction(zeta):
    # the radii of abs(B) and the copied difference, against one new set of
    # arrays; the vacuum rows store no diagonal entry, so the shift inserts
    # one there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        disc = lv.jittered_modes(1.0, seed=0, n_side=4, zeta=zeta)
        space = lv.TruncatedFock(disc, n_tot_max=3)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    for psi0 in (lv.INITIAL_STATES["excited"](L), _spread_state(space)):
        block, H2, center, half = _block(L, psi0)
        B = L.matrix[block][:, block]
        diag = B.diagonal().real
        assert np.any(diag == 0.0)
        radius = np.asarray(abs(B).sum(axis=1)).ravel() - np.abs(diag)
        hi, lo = np.max(diag + radius), np.min(diag - radius)
        assert (center, half) == (0.5 * (hi + lo), 0.5 * (hi - lo))
        old = _old_shifted(B, center)
        old.data /= half
        old.data *= 2.0
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(H2, name), getattr(old, name))


@pytest.mark.parametrize("dtype", [float, complex])
def test_shift_fills_missing_and_drops_cancelled_diagonals(dtype):
    # row 0 cancels at center 2, row 1 stores no diagonal, row 3 is empty
    dense = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 5.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
                     dtype=dtype)
    if dtype is complex:
        dense[0, 1], dense[1, 0] = 1.0 + 0.5j, 1.0 - 0.5j
    B = sp.csr_matrix(dense)
    for center in (2.0, 0.0, -1.5, 5.0):
        shifted = lv._shifted(B, center)
        old = _old_shifted(B, center)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(shifted, name), getattr(old, name))
        assert shifted.data.dtype == old.data.dtype
        for array in (shifted.data, shifted.indices):
            held = array if array.base is None else array.base
            assert held.size == shifted.nnz
    assert lv._shifted(B, 2.0).nnz == B.nnz - 1 + 2


@pytest.mark.parametrize("zeta", [math.pi, math.pi / 2])
@pytest.mark.parametrize("G", [OFFDIAG, np.diag([1.0, -1.0])],
                         ids=["offdiag", "diagonal"])
def test_sector_is_the_reached_block_and_the_principal_submatrix(zeta, G):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        disc = lv.jittered_modes(1.0, seed=0, n_side=4, zeta=zeta)
        space = lv.TruncatedFock(disc, n_tot_max=3)
        L = lv.assemble_liouvillean(space, 1.0, G, 0.3)
        factors = lv.assemble_factors(space, 1.0, G, 0.3)
    assert factors.dim == 0
    tgrid = 0.5 * np.arange(1, 2 * lv._WINDOW_OUTPUTS + 1)
    sizes = set()
    for name, build in lv.INITIAL_STATES.items():
        psi0 = build(factors)
        assert np.array_equal(psi0, build(L)), name
        rows = _block(L, psi0)[0]
        assert np.array_equal(rows, _component_block(L.matrix, psi0)), name
        S = lv._generator(factors, factors.lam, rows)
        sub = L.matrix[rows][:, rows]
        assert S.dtype == L.matrix.dtype
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(S, attr),
                                  getattr(sub, attr)), name
        full, sector = lv.evolve(L, psi0, tgrid), lv.evolve(factors, psi0,
                                                            tgrid)
        assert np.array_equal(full.states, sector.states), name
        assert ((full.matvecs, full.norm_drift, full.energy_drift)
                == (sector.matvecs, sector.norm_drift, sector.energy_drift))
        sizes.add(len(rows))
    assert min(sizes) < space.dim    # a proper sector is among them
    # Omega_0's I-sector, from the factors, against the full I
    assert np.array_equal(
        lv.perturbed_kms_vector(factors, None, 0.3, 1.0),
        lv.perturbed_kms_vector(L.with_lambda(0.0), L.I, 0.3, 1.0))


def test_operator_on_no_rows_refuses_what_needs_rows():
    disc, space = _small_paired(n_tot=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        factors = lv.assemble_factors(space, 1.0, OFFDIAG, 0.3)
        free = lv.assemble_L0(space, 1.0)
    excited = lv.INITIAL_STATES["excited"](factors)
    assert np.count_nonzero(excited) == 1
    with pytest.raises(ValidationError, match="must have shape"):
        lv.evolve(factors, excited[:-1], [0.5])
    # a rowless operator without factors has nothing to assemble
    rowless = dataclasses.replace(factors, G=None, phi=None, phi_conj=None)
    with pytest.raises(ValidationError, match="lacks an interaction part"):
        lv.evolve(rowless, excited, [0.5])
    with pytest.raises(ValidationError, match="pass I_mat"):
        lv.perturbed_kms_vector(free, None, 0.3, 1.0)
    # numpy's zero-size reduction error, before the norm was refused
    for call in (factors.norm_estimate, lambda: lv.spectrum_scan(factors),
                 lambda: lv.spectrum_scan(factors, method="dense")):
        with pytest.raises(ValidationError, match="on no rows"):
            call()


def test_perturbed_vector_refuses_an_interaction_of_the_wrong_shape():
    space, L = _dense_check_operator(math.pi)
    assert space.dim == 180
    I_full = L.I
    # 179 x 179 and 184 x 184 returned a vector, 179 x 180 raised scipy's
    # ValueError and 3 x 3 an IndexError
    for bad in (I_full[:179, :179], sp.block_diag([I_full, sp.eye(4)]),
                I_full[:179], np.eye(3)):
        with pytest.raises(ValidationError, match=r"I_mat must have shape "
                           r"\(180, 180\), got \(%d, %d\)" % bad.shape):
            lv.perturbed_kms_vector(L, bad, 0.3, 1.0)
    assert lv.perturbed_kms_vector(L, I_full, 0.3, 1.0).shape == (180,)


def _traced_peak(fn):
    """fn's return value and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_sector_operator_halves_the_generator_and_the_run_peak(
        monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=8, n_tot=3)

        def assemble(lam):
            return lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)

        def factors(lam):
            return lv.assemble_factors(space, 1.0, OFFDIAG, lam)

        L, F = assemble(0.3), factors(0.3)
    psi0 = lv.INITIAL_STATES["excited"](L)
    rows = _block(L, psi0)[0]
    S = lv._generator(F, F.lam, rows)

    def held(M):
        return sum(array.nbytes for array in (M.data, M.indices, M.indptr))

    assert held(S) <= 0.55 * held(L.matrix)
    tgrid = 0.5 * np.arange(1, 2 * lv._WINDOW_OUTPUTS + 1)
    lv.rte_distance_series(F, psi0, tgrid[:1])   # the first call's imports
    full, part = [lv.rte_distance_series(op, psi0, tgrid) for op in (L, F)]
    assert np.array_equal(full.distances, part.distances)
    # the run on the factors drops the sector's matrix once it is scaled:
    # at the first window, what is live beside H2, the pool of states, the
    # steps' state, their full-space vector and the rows is under a
    # quarter of it (26 kB measured against 66 kB; the matrix is 266 kB)
    window, live = lv._chebyshev_window, []

    def recording(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return window(*args)

    with monkeypatch.context() as m:
        m.setattr(lv, "_chebyshev_window", recording)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            lv.evolve(F, psi0, tgrid, observe=lambda psi: 0.0)
        finally:
            tracemalloc.stop()
    n = len(rows)
    vectors = 16 * n * (lv._WINDOW_OUTPUTS + 2) + 16 * space.dim + 8 * n
    H2 = lv._scaled(S)[0]
    assert live[0] - entry < held(H2) + vectors + 0.25 * held(S)
    # a run, the operator it holds included (2.09 and 1.56 MB measured)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, full_run = _traced_peak(lambda: lv.rte_distance_series(
            assemble(0.25), psi0, tgrid))
        _, part_run = _traced_peak(lambda: lv.rte_distance_series(
            factors(0.25), psi0, tgrid))
    assert part_run < full_run - 0.4 * held(L.matrix)


def test_evolution_stays_in_its_component():
    disc = lv.jittered_modes(1.0, seed=0, n_side=4)
    space = lv.TruncatedFock(disc, n_tot_max=3)
    L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    n_comp, labels = connected_components(L.matrix, directed=False)
    assert n_comp == 2
    psi0 = lv.product_initial(space, np.diag([1.0, 0.0]))
    other = labels != labels[np.nonzero(psi0)[0][0]]
    assert np.all(psi0[other] == 0)
    result = lv.evolve(L, psi0, np.linspace(0.5, 8.0, 16))
    assert np.all(result.states[:, other] == 0)
    assert np.max(np.abs(result.states[-1] - psi0)) > 0.1


def test_evolution_observe_keeps_reduced_states():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired()
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.2)
    psi0 = lv.product_initial(space, np.diag([1.0, 0.0]))
    tgrid = np.linspace(0.5, 8.0, 16)
    full = lv.evolve(L, psi0, tgrid)
    reduced = lv.evolve(L, psi0, tgrid,
                        observe=lambda psi: lv.reduce_detector(psi, space))
    assert reduced.states.shape == (16, 2, 2)
    for state, rho in zip(full.states, reduced.states):
        assert np.array_equal(lv.reduce_detector(state, space), rho)
    assert reduced.norm_drift == full.norm_drift
    assert reduced.energy_drift == full.energy_drift
    report = lv.rte_distance_series(L, psi0, tgrid)
    assert report.norm_drift == full.norm_drift
    assert report.energy_drift == full.energy_drift


def test_reduce_detector_recovers_product_state():
    _, space = _small_paired()
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    psi = lv.product_initial(space, rho)
    back = lv.reduce_detector(psi, space)
    assert np.max(np.abs(back - rho)) < 1e-13
    assert np.trace(back).real == pytest.approx(1.0, abs=1e-13)


def test_trace_distance_extremes():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    assert lv.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert lv.trace_distance(rho, sig) == pytest.approx(1.0, abs=1e-14)


def test_distance_series_constant_at_zero_coupling():
    _, space = _small_paired()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.0)
    psi = lv.product_initial(space, np.diag([1.0, 0.0]))
    report = lv.rte_distance_series(L, psi, np.linspace(1.0, 5.0, 5))
    assert np.max(report.distances) - np.min(report.distances) < 1e-10
    assert not report.reached


@pytest.mark.parametrize("reference, match", [
    (np.array([[math.nan, 0.0], [0.0, 0.5]]), "finite"),
    (np.diag([1.0, 1.0]), "unit trace"),
    (np.array([[0.5, 0.4], [0.1, 0.5]]), "Hermitian"),
    (np.diag([1.0, 0.0, 0.0]), "2x2"),
], ids=["nan", "trace_2", "non_hermitian", "3x3"])
def test_distance_series_rejects_a_bad_reference(reference, match):
    L, psi = _excited_run()
    with pytest.raises(ValidationError, match="reference must.*" + match):
        lv.rte_distance_series(L, psi, [1.0, 2.0], reference=reference)


def test_product_initial_and_distance_series_share_the_state_checks():
    _, space = _small_paired()
    negative = np.diag([1.5, -0.5])
    with pytest.raises(ValidationError, match="detector density matrix must be PSD"):
        lv.product_initial(space, negative)
    L, psi = _excited_run()
    with pytest.raises(ValidationError, match="reference must be PSD"):
        lv.rte_distance_series(L, psi, [1.0, 2.0], reference=negative)


def test_initial_state_table_matches_criterion_10():
    # the construction of tests/test_acceptance.py, criterion 10, on a
    # smaller truncation of the same grid
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    space = lv.TruncatedFock(disc, n_tot_max=2)
    lam = lv.fgr_window(disc, 1.0, disc.recurrence_time())[0]
    L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, lam)
    packet = np.exp(-(((disc.s - 1.0) / 0.3) ** 2)) * (disc.s > 0)
    ground = np.array([0.0, 0.0, 0.0, 1.0])
    expected = {"excited": lv.product_initial(space, np.diag([1.0, 0.0])),
                "one-boson": lv.one_boson_initial(space, ground, packet)}
    psi = np.zeros(space.dim, dtype=complex)
    psi[space.vacuum] = 1.0 / math.sqrt(2.0)
    psi += lv.one_boson_initial(space, ground, packet) / math.sqrt(2.0)
    expected["entangled"] = psi / np.linalg.norm(psi)
    omega = lv.perturbed_kms_vector(L.with_lambda(0.0), L.I, lam, 1.0)
    expected["stationary"] = lv.product_initial(
        space, lv.reduce_detector(omega, space))
    assert list(lv.INITIAL_STATES) == list(expected)
    for name, build in lv.INITIAL_STATES.items():
        assert np.array_equal(build(L), expected[name]), name


def test_one_boson_initial_rejects_nonfinite_input():
    disc, space = _small_paired()
    ground = np.array([0.0, 0.0, 0.0, 1.0])
    profile = np.full(disc.n_modes, math.nan)
    with pytest.raises(ValidationError, match="must be finite"):
        lv.one_boson_initial(space, ground, profile)
    with pytest.raises(ValidationError, match="must be finite"):
        lv.one_boson_initial(space, ground * math.nan, np.ones(disc.n_modes))


def test_one_boson_initial_rejects_a_zero_vector():
    # a zero detector vector gave NaN entries from the 0/0 normalisation
    disc, space = _small_paired()
    for dv, profile in ((np.zeros(4), np.ones(disc.n_modes)),
                        (np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(disc.n_modes))):
        with pytest.raises(ValidationError, match="detector vector and mode "
                                                  "profile must be nonzero"):
            lv.one_boson_initial(space, dv, profile)


def test_one_boson_initial_normalized():
    disc, space = _small_paired()
    profile = np.exp(-((disc.s - 1.0) ** 2)) * (disc.s > 0)
    psi = lv.one_boson_initial(space, np.array([0.0, 0.0, 0.0, 1.0]), profile)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        lv.one_boson_initial(space, np.array([1.0, 0.0]), profile)


def _default_rte_distances(energy_max):
    """Trace distances of the default rte-evolve set-up (shell grid, seed 0,
    n_tot_max 4, the lower FGR edge, excited start, dt 0.5) up to t = 30."""
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    space = lv.TruncatedFock(disc, n_tot_max=4, energy_max=energy_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG,
                                    lv.fgr_window(disc, 1.0)[0])
    return lv.rte_distance_series(L, lv.INITIAL_STATES["excited"](L),
                                  np.arange(0.5, 30.25, 0.5)).distances


def test_energy_window_ladder_on_the_default_rte_evolve():
    # the window one step wider, and no window, move the series by 1.7e-15
    # and 1.3e-15
    window = _top_band_window(lv.resonant_shell_modes(1.0, 1.0, seed=0))
    at = _default_rte_distances(window)
    for other in (window + 2.0, None):
        assert np.max(np.abs(_default_rte_distances(other) - at)) < 1e-12


def _dephasing_run(n_tot, energy_max=None):
    """The 2x2 detector states under G = diag(1, -1) from |+><+|, on the
    criterion-10 shell grid and coupling, dt 0.5 up to t = 30, and the
    closed-form 0.5 exp(-Gamma(t)) of |rho_+-(t)|."""
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    lam = lv.fgr_window(disc, 1.0)[0]
    space = lv.TruncatedFock(disc, n_tot_max=n_tot, energy_max=energy_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        L = lv.assemble_liouvillean(space, 1.0, np.diag([1.0, -1.0]), lam)
    tgrid = np.arange(0.5, 30.25, 0.5)
    rho = lv.evolve(L, lv.product_initial(space, np.full((2, 2), 0.5)), tgrid,
                    observe=lambda psi: lv.reduce_detector(psi, space)).states
    w = np.abs(disc.f) ** 2 / disc.s ** 2
    gamma = 4.0 * lam ** 2 * (np.sum(w)
                              - _phase_sum(w, 0.0, disc.s, tgrid).real)
    return rho, 0.5 * np.exp(-gamma)


# measured max errors: 3.57e-2, 1.12e-2 and 3.01e-3
@pytest.mark.parametrize("n_tot, bound", [(2, 3.6e-2), (3, 1.13e-2),
                                          (4, 3.02e-3)])
def test_diagonal_coupling_dephases_in_closed_form(n_tot, bound):
    # Under G = diag(1, -1) the detector populations are conserved and the
    # coherence decays as |rho_+-(t)| = 0.5 exp(-Gamma(t)), Gamma(t) =
    # 4 lam^2 sum_j |f_j|^2 (1 - cos s_j t) / s_j^2 (Breuer & Petruccione,
    # The Theory of Open Quantum Systems, OUP 2002, sec. 4.2); the error is
    # the truncation's.  rte-evolve's window moves |rho_+-| by 8.3e-16 at
    # n_tot_max 4.
    rho, exact = _dephasing_run(n_tot)
    assert np.max(np.abs(np.abs(rho[:, 0, 1]) - exact)) < bound
    assert np.max(np.abs(rho[:, 0, 0] - 0.5)) < 1e-12
    assert np.max(np.abs(rho[:, 1, 1] - 0.5)) < 1e-12
    windowed, _ = _dephasing_run(
        n_tot, _top_band_window(lv.resonant_shell_modes(1.0, 1.0, seed=0)))
    assert np.max(np.abs(np.abs(windowed[:, 0, 1])
                         - np.abs(rho[:, 0, 1]))) < 1e-12


# ---------------------------------------------------------------------------
# modular relation at zero coupling

def test_tomita_identity_and_detector_observables():
    _, space = _small_paired()
    # the raising matrix is not Hermitian, and need not be
    report = lv.tomita_residual(space, 1.0, 1.0,
                                observables=[("identity",),
                                             ("detector", OFFDIAG),
                                             ("detector", np.diag([1.0, 0.0])),
                                             ("detector", [[0.0, 1.0],
                                                           [0.0, 0.0]])])
    assert report.max_residual < 1e-8


@pytest.mark.parametrize("desc, message", [
    (("detector", np.eye(3)), r"observable 1 \(detector\) must be 2x2"),
    (("detector", [[1.0, math.nan], [0.0, 1.0]]),
     r"observable 1 \(detector\) must have finite entries"),
    (("weyl", 99, 0.5), r"observable 1 \(weyl\) needs an integer pair mode "
                        r"in \[0, 8\) and a finite alpha, got \(99, 0.5\)"),
    (("weyl", -1, 0.5), r"observable 1 \(weyl\) needs"),
    (("weyl", 1.5, 0.5), r"observable 1 \(weyl\) needs"),
    (("weyl", 0, math.nan), r"observable 1 \(weyl\) needs"),
    (("weyl", 0, "abc"), r"observable 1 \(weyl\) needs"),
    ((), r"observable 1 must be \('identity',\), \('detector', M\) or "
         r"\('weyl', pair_mode, alpha\), got \(\)"),
    (("detector",), r"observable 1 must be .*, got \('detector',\)"),
    (("weyl", 0), r"observable 1 must be .*, got \('weyl', 0\)"),
    (("weyl", 0, 1.0, 2), r"observable 1 must be"),
    (None, r"observable 1 must be .*, got None"),
], ids=["detector-3x3", "detector-nan", "weyl-99", "weyl-negative",
        "weyl-fractional", "weyl-nan", "weyl-text", "empty", "detector-short",
        "weyl-short", "weyl-long", "none"])
def test_tomita_residual_names_a_malformed_descriptor(desc, message):
    _, space = _small_paired()
    with pytest.raises(ValidationError, match=message):
        lv.tomita_residual(space, 1.0, 1.0, [("identity",), desc])


# ---------------------------------------------------------------------------
# misc exports

def test_fgr_window_ordering():
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    lo, hi = lv.fgr_window(disc, 1.0)
    assert 0 < lo < hi


def test_fgr_window_refuses_an_empty_window():
    # lam_lo <= lam_hi holds exactly where T_rec * E >= 25
    disc = lv.jittered_modes(1.0, seed=0)
    t_rec = disc.recurrence_time()
    lo, hi = lv.fgr_window(disc, 26.0 / t_rec, t_rec)
    assert 0 < lo < hi
    with pytest.raises(ValidationError,
                       match=r"^gap %s: T_rec \* E = 24 is below 25"
                             % (24.0 / t_rec)):
        lv.fgr_window(disc, 24.0 / t_rec, t_rec)


@pytest.mark.parametrize("gap", [19.0, 20.0])
def test_fgr_window_refuses_a_gap_where_the_density_underflows(gap):
    # rho(E) is subnormal at 19 and 0 at 20: a bound would be inf
    disc = lv.jittered_modes(1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"^gap %s: .* too small for a finite "
                                 r"coupling window$" % gap):
            lv.fgr_window(disc, gap)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_occupation_roundtrip_random(idx):
    _, space = _small_paired(n_side=4, n_tot=3)
    idx = idx % space.reservoir_dim
    assert space.rank(space.basis[idx]) == idx
