"""Restricted-state fidelity decay and the thermal overlap controls."""

import math

import numpy as np
import pytest

from kmslab import disjointness as dj
from kmslab.errors import NumericalError, ValidationError
from kmslab.oneparticle import BoostSpec, MomentumFunction, planck_occupation
from kmslab.quasifree import QuasiFreeState, doubled_gram
from kmslab.textio import fmt17


# ---------------------------------------------------------------------------
# the density-matrix route: the reference the closed forms are checked on

_MOMENT_TOL = 1e-8
_TAIL_TOL = 1e-6
_MAX_CUTOFF = 4096


def _single_frequency_family(frequencies):
    """Point modes at explicitly chosen, distinct frequencies."""
    freqs = np.asarray(frequencies, dtype=float).reshape(-1)
    return dj.ModeFamily(
        freqs, descriptor="single:%s" % ",".join(fmt17(x) for x in freqs))


def _thermal_diagonal(nbar, cutoff):
    """Normalized truncated geometric weights for occupation nbar.

    Raises the cutoff until the tail is below 1e-6 and the realized
    number expectation matches nbar within 1e-8.
    """
    dj._check_occupation(nbar)
    if nbar == 0.0:
        return np.concatenate([[1.0], np.zeros(cutoff)])
    x = nbar / (nbar + 1.0)
    c = int(cutoff)
    while True:
        n = np.arange(c + 1)
        p = (1.0 - x) * x ** n
        tail = x ** (c + 1)
        probs = p / p.sum()
        got = float(np.sum(n * probs))
        if tail < _TAIL_TOL and abs(got - nbar) < _MOMENT_TOL:
            return probs
        if c >= _MAX_CUTOFF:
            raise NumericalError(
                "cutoff %d cannot reach moment tolerance for occupation %s"
                % (c, fmt17(nbar)))
        c = min(2 * c, _MAX_CUTOFF)


def _restrict_state(state, family, cutoff=12):
    """Density matrix of the restriction: the product of one single-mode
    thermal state per mode, at the occupations of mode_occupations.

    Each factor starts at `cutoff` and is raised by _thermal_diagonal
    until its truncated tail and realized number expectation meet
    tolerance.
    """
    cutoff = int(cutoff)
    if cutoff < 2:
        raise ValidationError("occupation cutoff must be >= 2")
    full = np.ones(1)
    for nbar in dj.mode_occupations(state, family):
        full = np.kron(full, _thermal_diagonal(nbar, cutoff))
    return np.diag(full)


def _fidelity(rho, sigma):
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)).

    Computed by eigendecomposition of Hermitian PSD inputs; symmetric in
    its arguments to numerical precision.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape or rho.ndim != 2:
        raise ValidationError("states must be square matrices on one space")
    for name, M in (("rho", rho), ("sigma", sigma)):
        if np.max(np.abs(M - M.conj().T)) > 1e-10:
            raise ValidationError("%s is not Hermitian" % name)
        evals = np.linalg.eigvalsh(M)
        if float(np.min(evals)) < -1e-10:
            raise ValidationError(
                "%s is not PSD: eigenvalue %s" % (name, fmt17(float(np.min(evals)))))
        if abs(float(np.sum(evals)) - 1.0) > 1e-8:
            raise ValidationError("%s does not have unit trace" % name)
    evals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    inner = root @ sigma @ root
    vals = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))


def _thermal_fidelity_spectral(n1, n2, cutoff=None):
    """Brute-force spectral route: sum of sqrt(p_n q_n) over the spectrum.

    Independent of the closed form; the cutoff is raised until both
    truncated tails are negligible. An explicit cutoff whose truncated
    tail exceeds 1e-6 is rejected.
    """
    dj._check_occupation(n1)
    dj._check_occupation(n2)
    x = n1 / (n1 + 1.0)
    y = n2 / (n2 + 1.0)
    if cutoff is None:
        d1 = _thermal_diagonal(n1, 12)
        d2 = _thermal_diagonal(n2, 12)
        c = max(len(d1), len(d2)) - 1
    else:
        c = int(cutoff)
        tail = max(x, y) ** (c + 1)
        if tail > _TAIL_TOL:
            raise ValidationError(
                "cutoff %d leaves a truncated tail of %s" % (c, fmt17(tail)))
    n = np.arange(c + 1)
    p = (1.0 - x) * x ** n
    q = (1.0 - y) * y ** n
    return float(np.sum(np.sqrt(p * q)))


def _random_density(seed, dim=4):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def _point_mode(node):
    """Unit-norm one-point radial mode at a node (any positive weight)."""
    w_dq = 0.5 * node
    amp = 1.0 / math.sqrt(4.0 * math.pi * w_dq * node * node)
    return MomentumFunction.from_radial(np.array([node]), np.array([w_dq]),
                                        np.array([amp]))


# ---------------------------------------------------------------------------
# mode families

def test_adapted_family_is_orthonormal():
    fam = dj.adapted_family(24)
    # distinct nodes: cross inner products of point modes vanish in any frame
    assert np.array_equal(fam.nodes, np.linspace(0.1, 5.0, 24))
    assert len(np.unique(fam.nodes)) == 24
    assert len(fam) == 24
    assert fam.descriptor.startswith("adapted:")


def test_family_prefix_nesting():
    # the curve over the first k modes is the head of the full curve
    fam = dj.adapted_family(12)
    s1, s2 = QuasiFreeState(beta=1.0), QuasiFreeState(beta=2.0)
    full = dj.overlap_decay(s1, s2, fam).values
    head = dj.overlap_decay(s1, s2, dj.ModeFamily(fam.nodes[:5])).values
    assert np.array_equal(head, full[:5])


def test_family_validation():
    with pytest.raises(ValidationError):
        dj.adapted_family(0)
    with pytest.raises(ValidationError):
        dj.adapted_family(5, s_lo=2.0, s_hi=1.0)
    with pytest.raises(ValidationError):
        _single_frequency_family([1.0, 1.0])


def test_family_rejects_modes_that_are_not_unit_point_modes():
    node = dj.adapted_family(1).nodes[0]
    with pytest.raises(ValidationError, match="distinct nodes"):
        dj.ModeFamily([node, node])
    with pytest.raises(ValidationError, match="1-d array"):
        dj.ModeFamily([[1.0, 2.0]])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_family_rejects_a_node_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValidationError, match="positive and finite, got %s$"
                       % fmt17(bad)):
        _single_frequency_family([1.0, bad])


def test_family_accepts_extreme_nodes():
    # 1e-105 and 1e103 are positive and finite; the occupation at 1e103
    # underflows to exactly 0
    nodes = [1e-105, 1.0, 1e103]
    fam = _single_frequency_family(nodes)
    state = QuasiFreeState(beta=1.0)
    occ = dj.mode_occupations(state, fam)
    assert np.all(np.isfinite(occ))
    assert np.array_equal(occ, planck_occupation(np.array(nodes), 1.0))
    assert occ[2] == 0.0
    for other in (QuasiFreeState(beta=2.0), state,
                  QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5))):
        values = dj.overlap_decay(state, other, fam).values
        assert np.all(np.isfinite(values))
        assert np.all((values > 0.0) & (values <= 1.0 + 1e-15))


def test_occupations_name_each_node_whose_occupation_overflows():
    # 1/expm1(beta s) overflows to inf for subnormal beta s, at rest and in
    # the boosted average alike; 1e-305 overflows only at the small beta
    nodes = [1e-310, 1.0, 1e-309, 1e-305]
    fam = _single_frequency_family(nodes)
    for beta, bad in ((1.0, [0, 2]), (1e-5, [0, 2, 3])):
        named = ", ".join(fmt17(nodes[i]) for i in bad)
        for frame in (BoostSpec(), BoostSpec.from_velocity(0.5)):
            state = QuasiFreeState(beta=beta, frame=frame)
            with pytest.raises(ValidationError) as err:
                dj.mode_occupations(state, fam)
            assert str(err.value) == ("bath occupation is not finite at "
                                      "mode nodes " + named)
    # overlap_decay fails at the family, not inside thermal_fidelity
    with pytest.raises(ValidationError, match="bath occupation is not finite"):
        dj.overlap_decay(QuasiFreeState(beta=1.0), QuasiFreeState(beta=2.0),
                         fam)


def test_occupations_need_a_massless_state():
    with pytest.raises(ValidationError, match="mass 0.5"):
        dj.mode_occupations(QuasiFreeState(beta=1.0, mass=0.5),
                            dj.adapted_family(3))


def test_empty_single_frequency_family_is_rejected_by_name():
    with pytest.raises(ValidationError, match="mode family must be nonempty"):
        _single_frequency_family([])


def test_single_frequency_occupation_closed_form():
    fam = _single_frequency_family([1.0])
    occ = dj.mode_occupations(QuasiFreeState(beta=1.0), fam)
    assert abs(occ[0] - 1.0 / (math.e - 1.0)) < 1e-8


@pytest.mark.parametrize("v", [0.5, -0.5, 0.99])
def test_boosted_occupations_match_quadrature_of_direction_average(v):
    from scipy.integrate import quad
    freqs = [0.2, 1.0, 3.0]
    state = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(v))
    occ = dj.mode_occupations(state, _single_frequency_family(freqs))
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    for q, got in zip(freqs, occ):
        ref, _ = quad(lambda c: 0.5 / math.expm1(q * gamma * (1.0 - v * c)),
                      -1.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_nearly_resting_boost_keeps_rest_occupations():
    fam = _single_frequency_family([0.2, 1.0, 3.0])
    rest = dj.mode_occupations(QuasiFreeState(beta=1.0), fam)
    slow = dj.mode_occupations(
        QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(1e-9)), fam)
    np.testing.assert_allclose(slow, rest, rtol=1e-12, atol=0.0)


def test_vacuum_occupations_vanish():
    fam = dj.adapted_family(6)
    occ = dj.mode_occupations(QuasiFreeState(), fam)
    assert np.max(occ) < 1e-10


@pytest.mark.parametrize("v", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("beta", [1.0, 2.0, math.inf])
def test_occupations_match_the_thermal_gram_route(beta, v):
    # reference: a unit-norm point mode per node of the default disjoint
    # family, read through the doubled Gram diagonal <kappa e, kappa e> =
    # 1 + 2 <n>, which cancels in 1 + 2 <n> - 1 and so is only good to
    # about eps / <n> relative
    state = QuasiFreeState(beta=beta, frame=BoostSpec.from_velocity(v))
    fam = dj.adapted_family(200)
    occ = dj.mode_occupations(state, fam)
    if state.is_vacuum:
        assert np.array_equal(occ, np.zeros(len(fam)))
        return
    gram = np.array([doubled_gram(state, _point_mode(x), _point_mode(x))
                     for x in fam.nodes])
    np.testing.assert_allclose(occ, (gram.real - 1.0) / 2.0,
                               rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# restricted states

def _number_expectation(rho):
    diag = np.real(np.diag(rho))
    return float(np.sum(np.arange(len(diag)) * diag))


def test_restrict_state_rejects_a_cutoff_below_two():
    fam = _single_frequency_family([1.0])
    with pytest.raises(ValidationError, match="cutoff must be >= 2"):
        _restrict_state(QuasiFreeState(beta=1.0), fam, cutoff=1)


def test_density_matrix_reproduces_moments():
    fam = _single_frequency_family([1.0, 2.0])
    state = QuasiFreeState(beta=1.0)
    rho = _restrict_state(state, fam)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    singles = [_restrict_state(state, dj.ModeFamily([x]))
               for x in fam.nodes]
    assert np.array_equal(rho, np.kron(*singles))
    occ = dj.mode_occupations(state, fam)
    for single, nbar in zip(singles, occ):
        assert abs(_number_expectation(single) - nbar) < 1e-8


def test_boosted_restriction_is_diagonal_occupation_gram():
    fam = _single_frequency_family([1.0, 2.0, 4.0])
    state = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5))
    rho = _restrict_state(state, fam)
    assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0
    for x in fam.nodes:
        single = _restrict_state(state, dj.ModeFamily([x]))
        m = _point_mode(x)
        direct = (doubled_gram(state, m, m).real - 1.0) / 2.0
        assert abs(_number_expectation(single) - direct) < 1e-8


def test_restrict_state_single_mode_thermal():
    rho = _restrict_state(QuasiFreeState(beta=1.0),
                            _single_frequency_family([1.0]))
    diag = np.real(np.diag(rho))
    nbar = float(np.sum(np.arange(len(diag)) * diag))
    assert abs(nbar - 1.0 / (math.e - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# fidelity routes

def test_fidelity_validation():
    rho = _random_density(0)
    bad = rho.copy()
    bad[0, 1] += 0.2
    with pytest.raises(ValidationError):
        _fidelity(rho, bad)
    neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        _fidelity(rho, neg)
    with pytest.raises(ValidationError):
        _fidelity(rho, 2.0 * rho)


def test_fidelity_extremes_and_symmetry():
    rho = _random_density(1)
    sig = _random_density(2)
    assert _fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert abs(_fidelity(rho, sig) - _fidelity(sig, rho)) < 1e-10
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    assert _fidelity(up, down) == pytest.approx(0.0, abs=1e-10)


def test_thermal_fidelity_does_not_cancel_at_large_occupations():
    # n + 1 rounds to n here; the difference form divided by zero
    assert dj.thermal_fidelity(1e17, 1e17) == pytest.approx(1.0, rel=1e-15)
    assert dj.thermal_fidelity(1e105, 5e104) == pytest.approx(
        2.0 * math.sqrt(0.5) / 1.5, rel=1e-15)


def test_thermal_fidelity_closed_vs_spectral():
    pairs = [(0.0, 0.0), (0.7, 0.7), (0.3, 1.7),
             (1.0 / (math.e - 1.0), 1.0 / (math.e ** 2 - 1.0))]
    for n1, n2 in pairs:
        a = dj.thermal_fidelity(n1, n2)
        b = _thermal_fidelity_spectral(n1, n2)
        assert abs(a - b) < 1e-8
    with pytest.raises(ValidationError):
        dj.thermal_fidelity(-0.1, 0.5)


@pytest.mark.parametrize("fn", [dj.thermal_fidelity,
                                _thermal_fidelity_spectral],
                         ids=["thermal_fidelity", "thermal_fidelity_spectral"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_thermal_fidelity_rejects_a_bad_occupation(fn, bad):
    for n1, n2 in ((bad, 0.3), (0.3, bad)):
        with pytest.raises(ValidationError, match="occupation"):
            fn(n1, n2)


def test_spectral_fidelity_rejects_a_cutoff_that_truncates():
    # at n = 0.3 the geometric tail beyond n = 1 is (0.3/1.3)^2 = 0.053
    with pytest.raises(ValidationError, match="cutoff 1"):
        _thermal_fidelity_spectral(0.2, 0.3, cutoff=1)
    got = _thermal_fidelity_spectral(0.2, 0.3, cutoff=40)
    assert got == pytest.approx(dj.thermal_fidelity(0.2, 0.3), rel=1e-14)
    assert _thermal_fidelity_spectral(0.0, 0.0, cutoff=0) == 1.0


def test_thermal_fidelity_matches_uhlmann():
    # at frequency 1 the occupation 1/(e^beta - 1) is n for beta = ln(1 + 1/n)
    fam = _single_frequency_family([1.0])
    states = [QuasiFreeState(beta=math.log(1.0 + 1.0 / n)) for n in (0.4, 1.3)]
    n1, n2 = (dj.mode_occupations(st, fam)[0] for st in states)
    rho1, rho2 = (_restrict_state(st, fam, cutoff=80) for st in states)
    dim = max(rho1.shape[0], rho2.shape[0])

    def pad(m):
        out = np.zeros((dim, dim), dtype=complex)
        out[:m.shape[0], :m.shape[1]] = m
        return out

    got = _fidelity(pad(rho1), pad(rho2))
    assert abs(got - dj.thermal_fidelity(n1, n2)) < 1e-5


@pytest.mark.parametrize("state2", [
    QuasiFreeState(beta=2.0),
    QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5)),
], ids=["beta2", "boosted"])
def test_restriction_fidelity_matches_overlap_decay(state2):
    fam = _single_frequency_family([2.0, 4.0])
    state1 = QuasiFreeState(beta=1.0)
    rho1 = _restrict_state(state1, fam, 16)
    rho2 = _restrict_state(state2, fam, 16)
    assert rho1.shape == rho2.shape == (289, 289)
    got = _fidelity(rho1, rho2)
    want = dj.overlap_decay(state1, state2, fam).values[-1]
    assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# overlap decay

def test_overlap_identical_states_is_flat():
    fam = dj.adapted_family(12)
    state = QuasiFreeState(beta=1.0)
    curve = dj.overlap_decay(state, state, fam)
    assert np.max(np.abs(curve.values - 1.0)) < 1e-6
    assert curve.n_star is None


def test_overlap_trivial_boost_is_flat():
    fam = dj.adapted_family(12)
    curve = dj.overlap_decay(
        QuasiFreeState(beta=1.0),
        QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.0)), fam)
    assert np.max(np.abs(curve.values - 1.0)) < 1e-6


def test_overlap_two_temperatures_monotone():
    fam = dj.adapted_family(40)
    curve = dj.overlap_decay(QuasiFreeState(beta=1.0),
                             QuasiFreeState(beta=2.0), fam)
    assert np.all(np.diff(curve.values) <= 1e-10)
    assert curve.values[0] < 1.0
    assert curve.slope < 0


def test_overlap_two_temperatures_crossing_point():
    fam = dj.adapted_family(200)
    curve = dj.overlap_decay(QuasiFreeState(beta=1.0),
                             QuasiFreeState(beta=2.0), fam)
    assert curve.n_star == 118
    assert curve.slope == pytest.approx(-0.024612, rel=1e-3)


def test_overlap_boosted_state_decays_slowly():
    fam = dj.adapted_family(60)
    state = QuasiFreeState(beta=1.0)
    boosted = QuasiFreeState(beta=1.0, frame=BoostSpec.from_velocity(0.5))
    curve = dj.overlap_decay(state, boosted, fam)
    assert curve.slope < 0
    assert curve.values[-1] > 0.9


def test_overlap_threshold_validation():
    fam = dj.adapted_family(4)
    state = QuasiFreeState(beta=1.0)
    with pytest.raises(ValidationError):
        dj.overlap_decay(state, state, fam, threshold=0.0)
    with pytest.raises(ValidationError):
        dj.overlap_decay(state, state, fam, threshold=1.0)


def test_fidelity_curve_serialization(tmp_path):
    fam = dj.adapted_family(6)
    curve = dj.overlap_decay(QuasiFreeState(beta=1.0),
                             QuasiFreeState(beta=2.0), fam)
    path = tmp_path / "curve.csv"
    curve.save(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "n,fidelity"
    assert len(lines) == 7
    meta = (tmp_path / "curve.csv.meta").read_text()
    assert "threshold" in meta and "log_slope" in meta
