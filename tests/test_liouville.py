"""Doubled detector-reservoir generator: assembly, symmetry, evolution."""

import dataclasses
import itertools
import math
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
                           ResonanceWarning, StructuralError,
                           TruncationWarning, ValidationError)
from kmslab.oneparticle import default_coupling, kms_glue, MomentumFunction
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


@pytest.mark.parametrize("n_side", [1, 0, -3])
def test_mode_grids_reject_fewer_than_two_modes_a_side(n_side):
    with pytest.raises(ValidationError, match="n_side must be >= 2, got %d"
                                              % n_side):
        lv.paired_modes(1.0, n_side=n_side)
    with pytest.raises(ValidationError, match="n_side must be >= 2, got %d"
                                              % n_side):
        lv.jittered_modes(1.0, seed=0, n_side=n_side)


def test_discretization_norm_defect():
    assert lv.paired_modes(1.0).norm_defect() < 5e-3
    assert lv.jittered_modes(1.0, seed=0).norm_defect() < 5e-3
    assert lv.resonant_shell_modes(1.0, 1.0, seed=0).norm_defect() < 0.1


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
                     (space, [2, 2, 0, 0, 0, 0, 0, 0])]:      # above budget
        with pytest.raises(ValidationError):
            sp_.rank(occ)


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
    built = []

    def perturbed(amplitudes):
        phi = lv.TruncatedFock.field_matrix(space, amplitudes)
        if len(built) == call:
            phi.data[np.argmax(np.abs(phi.data))] *= defect
        built.append(phi)
        return phi

    monkeypatch.setattr(space, "field_matrix", perturbed)
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
    raising = lambda amplitudes: sum(
        a * space.creation_matrix(j) for j, a in enumerate(amplitudes))
    monkeypatch.setattr(space, "field_matrix", raising)
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
            lv.kernel_splitting_sweep(space, 1.0, OFFDIAG, [0.1, math.nan])


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
    # basis, plus a slack: the occupation energies (8 bytes a row), the
    # rank counts C, and 64 KiB for Python objects and first-call caches
    # (about 35 KB measured).  I and V would add 2.3 MB here.
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
    slack = space.occupation_energy.nbytes + space._counts.nbytes + 65536
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


def test_fock_space_peak_stays_near_what_it_holds():
    # The enumeration holds at most three basis-sized uint8 arrays (the
    # previous rows, the widened pieces, their concatenation) and two int64
    # row-total arrays, the energies one float64 array.  The rank check and
    # the energy sum then take one block of rows at a time; 10 bytes an
    # entry of the block cover the larger of its int64 copy with the two
    # boolean masks (8 + 1 + 1) and the float64 cast inside block @ s (8).
    # An unblocked check converts the whole basis to int64 (8 bytes an
    # entry, 23 MB here: a 32 MB peak).
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
    _, _, _, half = lv._reached_block(A.tocsr(), omega0)
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
        matrix=sp.csr_matrix(np.diag([0.0, 1.0])), lam=0.0,
        beta=1.0, gap=1.0, space=None)
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


def test_splitting_well_above_theta_is_quiet():
    # criterion-8 grid, seed 0: lambda^2 * prefactor is about 300 theta
    rep, msgs = _splitting_warnings(_criterion_8_space(0), [0.0, 0.02])
    assert rep.predicted_prefactor * 0.02 ** 2 > 100 * rep.theta
    assert msgs == []


def test_spectrum_report_serialization(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=2, n_tot=1)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.0)
    report = lv.spectrum_scan(L)
    path = tmp_path / "spectrum.csv"
    report.save(str(path))
    assert path.read_text().splitlines()[0] == "index,eigenvalue"


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


def test_evolve_rejects_a_nonfinite_block():
    L, psi0 = _excited_run()
    broken = L.matrix.copy()
    broken.data[0] = math.nan    # in row 0, the excited ++ vacuum
    with pytest.raises(NumericalError, match="non-finite entry"):
        lv.evolve(dataclasses.replace(L, matrix=broken), psi0, [1.0])


def test_evolve_drift_gates_fail_on_a_nonfinite_state(monkeypatch):
    L, psi0 = _excited_run()
    window = lv._chebyshev_window

    def poisoned(*args):
        out, products = window(*args)
        return np.full_like(out, math.nan), products

    monkeypatch.setattr(lv, "_chebyshev_window", poisoned)
    with pytest.raises(NumericalError, match="norm drift nan"):
        lv.evolve(L, psi0, [1.0])


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
    _, _, _, half = lv._reached_block(L.matrix, spread)
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
            U = sla.expm(-1j * t * M)
            for psi0, states in runs:
                assert np.max(np.abs(states[i] - U @ psi0)) < 1e-12


def test_evolution_windows_stay_within_span(monkeypatch):
    space, L = _dense_check_operator(math.pi)
    psi0 = lv.product_initial(space, np.diag([1.0, 0.0]))
    _, _, _, half = lv._reached_block(L.matrix, psi0)
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
        assert np.max(np.abs(state - sla.expm(-1j * t * M) @ psi0)) < 1e-12


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
    block, H2, center, half = lv._reached_block(L.matrix, psi0)
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
        out, products = lv._chebyshev_window(H2, x, rows, -1j)
        # one product fewer than the longest row for each nonzero part
        assert products == parts * (max(lengths) - 1)
        # every row-term once, and none with a zero coefficient
        assert sum(c.size for c in folded) == parts * sum(lengths)
        assert all(np.all(c != 0.0) for c in folded)
        for dt, state in zip(offsets / half, out):
            exact = sla.expm(-1j * dt * B) @ x
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
    _, H, _, half = lv._reached_block(L.matrix, psi0)
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
    _, _, _, half = lv._reached_block(L.matrix, real)
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


def test_evolution_worker_changes_no_bit(monkeypatch):
    space, L = _dense_check_operator(math.pi)
    psi0 = _spread_state(space)
    tgrid = np.append(np.linspace(0.5, 20.0, 24), 60.0)
    recurrence = lv._recurrence
    runs = []
    for allowed in (False, True):
        threads = set()

        def recording(*args):
            threads.add(threading.get_ident())
            return recurrence(*args)

        monkeypatch.setattr(lv, "_worker_allowed", lambda rows: allowed)
        monkeypatch.setattr(lv, "_recurrence", recording)
        before = threading.active_count()
        runs.append(lv.evolve(L, psi0, tgrid))
        assert threading.active_count() == before
        assert len(threads) == (2 if allowed else 1)
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[0].matvecs == runs[1].matvecs


def test_evolution_worker_error_reaches_the_caller(monkeypatch):
    space, L = _dense_check_operator(math.pi)
    recurrence = lv._recurrence

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("recurrence failed on the worker")
        return recurrence(*args)

    monkeypatch.setattr(lv, "_worker_allowed", lambda rows: True)
    monkeypatch.setattr(lv, "_recurrence", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="on the worker"):
        lv.evolve(L, _spread_state(space), [0.5, 1.0])
    assert threading.active_count() == before


def test_worker_follows_block_size_affinity_and_thread_cap(monkeypatch):
    monkeypatch.setattr(lv.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    large = lv._WORKER_ROWS
    assert lv._worker_allowed(large)
    assert not lv._worker_allowed(large - 1)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert not lv._worker_allowed(large)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert lv._worker_allowed(large)
    monkeypatch.setattr(lv.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert not lv._worker_allowed(large)


def test_window_memory_stays_within_its_vector_count():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceWarning)
        _, space = _small_paired(n_side=8, n_tot=3)
        L = lv.assemble_liouvillean(space, 1.0, OFFDIAG, 0.3)
    block, H, _, half = lv._reached_block(L.matrix, _spread_state(space))
    v = _spread_state(space)[block]
    assert 2000 < len(v) < lv._FOLD_COLUMNS
    rows = lv._chebyshev_rows(np.linspace(0.1, 1.0, lv._WINDOW_OUTPUTS)
                              * lv._WINDOW_SPAN)
    vectors = 2 * lv._CHEBYSHEV_CHUNK + 4 * lv._WINDOW_OUTPUTS + 3
    scratch = 2 * lv._WINDOW_OUTPUTS * min(len(v), lv._FOLD_COLUMNS)
    with ThreadPoolExecutor(max_workers=1) as worker:
        worker.submit(int).result()     # start the thread before tracing
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            lv._chebyshev_window(H, v, rows, -1j, worker)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
    assert peak < 8 * (vectors * len(v) + scratch)


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


@pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, 5.0])
def test_distance_series_rejects_a_threshold_outside_the_unit_interval(
        threshold):
    L, psi = _excited_run()
    with pytest.raises(ValidationError, match=r"threshold must be in \(0, 1\)"):
        lv.rte_distance_series(L, psi, [1.0, 2.0], threshold=threshold)


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


def test_one_boson_initial_normalized():
    disc, space = _small_paired()
    profile = np.exp(-((disc.s - 1.0) ** 2)) * (disc.s > 0)
    psi = lv.one_boson_initial(space, np.array([0.0, 0.0, 0.0, 1.0]), profile)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        lv.one_boson_initial(space, np.array([1.0, 0.0]), profile)


# ---------------------------------------------------------------------------
# modular relation at zero coupling

def test_tomita_identity_and_detector_observables():
    _, space = _small_paired()
    report = lv.tomita_residual(space, 1.0, 1.0,
                                observables=[("identity",),
                                             ("detector", OFFDIAG),
                                             ("detector", np.diag([1.0, 0.0]))])
    assert report.max_residual < 1e-8


def test_tomita_field_power_beyond_budget_warns():
    _, space = _small_paired(n_side=2, n_tot=2)
    with pytest.warns(TruncationWarning):
        lv.tomita_residual(space, 1.0, 1.0,
                           observables=[("field_power", 0, 5)])


# ---------------------------------------------------------------------------
# misc exports

def test_fgr_window_ordering():
    disc = lv.resonant_shell_modes(1.0, 1.0, seed=0)
    lo, hi = lv.fgr_window(disc, 1.0)
    assert 0 < lo < hi


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_occupation_roundtrip_random(idx):
    _, space = _small_paired(n_side=4, n_tot=3)
    idx = idx % space.reservoir_dim
    assert space.rank(space.basis[idx]) == idx
