"""Quadrature panels, thermal gluing, frequency conjugation, boosts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmslab.errors import StructuralError, ValidationError
from kmslab.oneparticle import (BoostSpec, GluedVector, MomentumFunction,
                                default_coupling, default_qgrid, gl_panels,
                                jf_conjugate, kms_glue, load_glued,
                                planck_occupation, save_glued, time_translate)


def _default_vector(beta=1.0, n=512):
    q, w = default_qgrid(beta, n=n)
    return MomentumFunction.from_radial(q, w, default_coupling(q))


# ---------------------------------------------------------------------------
# occupation function

def test_occupation_log2_value():
    assert planck_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, abs=1e-14)


def test_occupation_monotone_decay():
    x = np.linspace(0.1, 30.0, 200)
    mu = planck_occupation(x, 1.0)
    assert np.all(np.diff(mu) < 0)
    assert mu[-1] < 1e-12


def test_occupation_domain_errors():
    with pytest.raises(ValidationError):
        planck_occupation(-1.0, 1.0)
    with pytest.raises(ValidationError):
        planck_occupation(0.0, 1.0)
    with pytest.raises(ValidationError):
        planck_occupation(1.0, -2.0)


def test_occupation_coth_identity():
    # 1 + 2 mu_beta(x) against coth evaluated independently via exponentials
    x = np.geomspace(1e-3, 30.0, 400)
    lhs = 1.0 + 2.0 * planck_occupation(x, 1.0)
    coth = 1.0 / np.tanh(x / 2.0)
    assert np.max(np.abs(lhs - coth)) < 1e-12


@given(beta=st.floats(0.2, 5.0), x=st.floats(1e-3, 30.0))
@settings(max_examples=200, deadline=None)
def test_occupation_balance_identity(beta, x):
    mu = planck_occupation(x, beta)
    assert abs(mu - math.exp(-beta * x) * (1.0 + mu)) <= 1e-14 * (1.0 + mu)


# ---------------------------------------------------------------------------
# quadrature panels

@pytest.mark.parametrize("n", [0, -3, (2, 0), (1, -1)])
def test_gl_panels_rejects_a_node_count_below_one(n):
    with pytest.raises(ValidationError, match="panel node counts must be >= 1"):
        gl_panels((0.0, 1.0, 2.0), n)
    q, w = gl_panels((0.0, 1.0, 2.0), 1)      # the smallest rule: midpoints
    assert np.array_equal(q, [0.5, 1.5]) and np.array_equal(w, [1.0, 1.0])


# ---------------------------------------------------------------------------
# thermal gluing

def test_glue_pointwise_values_flat_coupling():
    q = np.array([0.5, 1.0, 2.0])
    w = np.full(3, 0.1)
    u = MomentumFunction.from_radial(q, w, np.ones(3))
    g = kms_glue(u, 1.0)
    i_pos = int(np.searchsorted(g.s, 1.0))
    i_neg = int(np.searchsorted(g.s, -1.0))
    assert g.s[i_pos] == 1.0 and g.s[i_neg] == -1.0
    assert abs(g.values[i_pos]) ** 2 == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-13)
    assert abs(g.values[i_neg]) ** 2 == pytest.approx(1.0 / (math.e - 1.0), rel=1e-13)


def test_glue_negative_branch_vanishes_at_low_temperature():
    # pointwise limit on a fixed grid away from s = 0
    q = np.array([0.5, 1.0, 2.0])
    u = MomentumFunction.from_radial(q, np.full(3, 0.1), np.ones(3))
    cold = np.abs(kms_glue(u, 150.0).values[:3])
    cooler = np.abs(kms_glue(u, 300.0).values[:3])
    assert np.max(cold) < 1e-12
    assert np.all(cooler <= cold)


def test_glue_norm_identity_two_quadrature_paths():
    for beta in (0.5, 1.0, 2.0):
        u = _default_vector(beta)
        g = kms_glue(u, beta)
        coth_norm = u.weighted_inner(
            u, lambda qq: 1.0 / np.tanh(beta * qq / 2.0)).real
        assert abs(g.norm2() - coth_norm) < 1e-10 * coth_norm


def test_glue_rejects_bad_inputs():
    u = _default_vector()
    with pytest.raises(ValidationError):
        kms_glue(u, -1.0)
    massive = MomentumFunction.from_radial(u.q, u.wtot / (4 * math.pi),
                                           u.values, mass=1.0)
    with pytest.raises(ValidationError):
        kms_glue(massive, 1.0)


# ---------------------------------------------------------------------------
# frequency conjugation

def test_conjugation_fixes_form_factor():
    for beta in (0.5, 1.0, 2.0):
        g = kms_glue(_default_vector(beta), beta)
        target = np.exp(-beta * g.s / 2.0) * g.values
        err = np.max(np.abs(jf_conjugate(g).values - target))
        assert err < 1e-12 * np.max(np.abs(g.values))


def test_conjugation_involution_exact():
    rng = np.random.default_rng(7)
    q = np.sort(rng.uniform(0.05, 5.0, 40))
    s, w = np.concatenate([-q[::-1], q]), np.full(80, 0.05)
    vals = rng.normal(size=80) + 1j * rng.normal(size=80)
    g = GluedVector(s, w, vals, zeta=2.1)
    back = jf_conjugate(jf_conjugate(g))
    assert np.array_equal(back.values, g.values) or \
        np.max(np.abs(back.values - g.values)) < 1e-15 * np.max(np.abs(vals))


def test_conjugation_antiunitary():
    rng = np.random.default_rng(11)
    q = np.sort(rng.uniform(0.05, 5.0, 64))
    s = np.concatenate([-q[::-1], q])
    w = np.full(128, 0.03)
    u = GluedVector(s, w, rng.normal(size=128) + 1j * rng.normal(size=128))
    v = GluedVector(s, w, rng.normal(size=128) + 1j * rng.normal(size=128))
    lhs = jf_conjugate(u).inner(jf_conjugate(v))
    rhs = np.conj(u.inner(v))
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_conjugation_requires_symmetric_grid():
    s = np.array([-2.0, -1.0, 1.0, 1.5])
    g = GluedVector(s, np.full(4, 0.1), np.ones(4))
    with pytest.raises(StructuralError):
        jf_conjugate(g)


# ---------------------------------------------------------------------------
# time translation

def test_time_translate_zero_is_identity():
    g = kms_glue(_default_vector(), 1.0)
    assert np.array_equal(time_translate(g, 0.0).values, g.values)


def test_time_translate_norm_and_composition():
    g = kms_glue(_default_vector(), 1.0)
    n0 = g.norm()
    for t in (0.5, 7.3):
        assert abs(time_translate(g, t).norm() - n0) < 1e-13 * n0
    ab = time_translate(time_translate(g, 0.7), 1.6)
    once = time_translate(g, 2.3)
    assert np.max(np.abs(ab.values - once.values)) < 1e-13 * np.max(np.abs(g.values))


@given(t=st.floats(-20.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_time_translate_norm_preserving(t):
    g = kms_glue(_default_vector(n=64), 1.0)
    assert abs(time_translate(g, t).norm() - g.norm()) <= 1e-12 * g.norm()


# ---------------------------------------------------------------------------
# boosts

def test_boost_rejects_superluminal():
    with pytest.raises(ValidationError):
        BoostSpec.from_velocity(1.0)
    with pytest.raises(ValidationError):
        BoostSpec(float("inf"))


# ---------------------------------------------------------------------------
# structure checks and serialization

def test_momentum_function_validation():
    with pytest.raises(ValidationError):
        MomentumFunction.from_radial(np.array([1.0, 0.5]), np.array([0.1, 0.1]),
                                     np.ones(2))
    with pytest.raises(ValidationError):
        MomentumFunction.from_radial(np.array([-1.0, 0.5]), np.array([0.1, 0.1]),
                                     np.ones(2))
    with pytest.raises(ValidationError):
        MomentumFunction.from_radial(np.array([0.5, 1.0]), np.array([0.1, 0.1]),
                                     np.array([1.0, np.nan]))


def test_same_points_of_itself_skips_the_comparison(monkeypatch):
    u = _default_vector(n=64)
    monkeypatch.setattr(np, "allclose", None)  # any comparison would fail
    assert u.same_points(u)
    monkeypatch.undo()
    assert u.same_points(u.copy_with(2.0 * u.values))
    assert not u.same_points(_default_vector(n=65))


def test_glued_vector_roundtrip(tmp_path):
    g = kms_glue(_default_vector(n=64), 1.0)
    path = tmp_path / "glued.csv"
    save_glued(str(path), g, extra_meta=[("note", "roundtrip")])
    back = load_glued(str(path))
    assert np.max(np.abs(back.s - g.s)) == 0.0
    assert np.max(np.abs(back.values - g.values)) < 1e-15 * np.max(np.abs(g.values))
    assert back.beta_tag == g.beta_tag
    header = path.read_text().splitlines()[0]
    assert header == "s,re,im"
