"""Tests for sparse polynomial arithmetic and calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsipp.indexset import raster
from fsipp.poly import (ZERO_DEGREE, BivariatePoly, Polynomial, grlex_key,
                        monomials_up_to)


def P(nvars, *terms):
    return Polynomial(nvars, {tuple(e): c for e, c in terms})


# ---------------------------------------------------------------- ordering

def test_grlex_order_two_vars():
    mons = monomials_up_to(2, 2)
    assert mons == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert sorted(mons, key=grlex_key) == mons


def test_monomial_counts():
    for m, d in [(1, 3), (2, 4), (3, 5)]:
        assert len(monomials_up_to(m, d)) == math.comb(m + d, d)
    assert monomials_up_to(2, -1) == []


# ---------------------------------------------------------------- evaluation

def test_eval_zero_polynomial():
    z = Polynomial.zero(3)
    assert z(np.zeros(3)) == 0.0
    assert z((1.5, -2.0, 7.0)) == 0.0
    assert z.degree == ZERO_DEGREE
    assert z.degree == float("-inf")
    assert z.is_zero()


def test_eval_denominator_fixture_point():
    g = P(2, ((2, 0), -1.0), ((0, 2), -1.0), ((0, 0), 4.0))
    val = g((0.7377, 0.6033))
    # oracle: 4 - 0.7377^2 - 0.6033^2 = 3.09182782 exactly in decimal
    assert val == pytest.approx(3.09182782, abs=1e-10)


def test_eval_single_monomial():
    assert P(2, ((1, 1), 1.0))((2.0, 3.0)) == 6.0


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        P(2, ((1, 0), 1.0))((1.0,))


def test_eval_many_matches_scalar_eval():
    f = P(2, ((2, 0), 1.0), ((1, 1), -2.0), ((0, 0), 0.5))
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.25]])
    np.testing.assert_allclose(f.eval_many(pts), [f(p) for p in pts])


@pytest.mark.parametrize("e", range(2, 7))
def test_eval_and_eval_many_agree_bit_for_bit(e):
    # Python's float ** e and numpy's array ** e differ in the last bit on
    # some points; both evaluations raise coordinates one way.
    pts = np.random.default_rng(e).normal(size=(100_000, 1)) * 3.0
    f = P(1, ((e,), 0.7), ((1,), -1.3))
    np.testing.assert_array_equal(f.eval_many(pts), [f.eval(p) for p in pts])


# ---------------------------------------------------------------- arithmetic

def test_difference_of_squares():
    x1p1 = P(1, ((1,), 1.0), ((0,), 1.0))
    x1m1 = P(1, ((1,), 1.0), ((0,), -1.0))
    assert x1p1 * x1m1 == P(1, ((2,), 1.0), ((0,), -1.0))


def test_scale_zero_gives_zero_polynomial():
    f = P(2, ((2, 0), 3.0), ((0, 1), -1.0))
    assert f.scale(0.0).is_zero()


def test_cancellation_prunes_terms():
    a = P(2, ((2, 0), 1.0))
    b = P(2, ((2, 0), -1.0))
    s = a + b
    assert s.terms == {}
    assert s.degree == ZERO_DEGREE


def test_mixed_nvars_rejected():
    with pytest.raises(ValueError):
        P(1, ((1,), 1.0)) + P(2, ((1, 0), 1.0))


def test_power():
    f = P(2, ((1, 0), 1.0), ((0, 1), 1.0))
    assert f.power(2) == P(2, ((2, 0), 1.0), ((1, 1), 2.0), ((0, 2), 1.0))
    assert f.power(0) == Polynomial.constant(2, 1.0)


def test_compose_affine_shift():
    # h(x) = x^2 composed with x+1 -> x^2+2x+1
    h = P(1, ((2,), 1.0))
    shift = P(1, ((1,), 1.0), ((0,), 1.0))
    assert h.compose([shift]) == P(1, ((2,), 1.0), ((1,), 2.0), ((0,), 1.0))


# ---------------------------------------------------------------- calculus

def test_gradient_quadratic():
    f = P(2, ((2, 0), 1.0), ((0, 2), 1.0))
    gx, gy = f.gradient()
    assert gx == P(2, ((1, 0), 2.0))
    assert gy == P(2, ((0, 1), 2.0))


def test_gradient_constant_is_zero_vector():
    c = Polynomial.constant(3, 42.0)
    assert all(g.is_zero() for g in c.gradient())


def test_gradient_at_constraint_fixture_point():
    psi = P(2, ((2, 0), 0.5), ((0, 2), 2.0), ((0, 0), -1.0))
    np.testing.assert_allclose(psi.gradient_at((0.7377, 0.6033)),
                               [0.7377, 2.4132], atol=1e-12)


def test_hessian_examples():
    f = P(2, ((2, 0), 1.0), ((0, 2), 1.0))
    H = f.hessian_at((0.3, -0.7))
    np.testing.assert_allclose(H, np.diag([2.0, 2.0]))
    aff = P(2, ((1, 0), 2.0), ((0, 1), -3.0), ((0, 0), 1.0))
    np.testing.assert_allclose(aff.hessian_at((0.0, 0.0)), np.zeros((2, 2)))
    cube = P(1, ((3,), 1.0))
    hc = cube.hessian()
    assert hc[0][0] == P(1, ((1,), 6.0))


# ------------------------------------------------------- two-variable-group

def case1_p():
    # p(x, y) = x1^2 + y^2 x2^2 + 2 y x1 x2 + x1 + x2, one index variable
    joint = P(3, ((2, 0, 0), 1.0), ((0, 2, 2), 1.0), ((1, 1, 1), 2.0),
              ((1, 0, 0), 1.0), ((0, 1, 0), 1.0))
    return BivariatePoly.from_joint(joint, 2, 1)


def test_substitute_y_interval_endpoints():
    p = case1_p()
    # at y=1: (x1+x2)(x1+x2+1)
    s = P(2, ((1, 0), 1.0), ((0, 1), 1.0))
    expect = s * (s + Polynomial.constant(2, 1.0))
    assert p.substitute_y([1.0]) == expect
    # at y=-1: (x1-x2)^2 + x1 + x2
    d = P(2, ((1, 0), 1.0), ((0, 1), -1.0))
    expect = d * d + s
    assert p.substitute_y([-1.0]) == expect


def test_substitute_y_constant_in_y():
    px = P(2, ((2, 0), 1.0), ((0, 0), -1.0))
    p = BivariatePoly(2, 2, {(0, 0): px})
    assert p.d_y == 0
    for y in ([0.0, 0.0], [1.0, -1.0], [0.3, 0.4]):
        assert p.substitute_y(y) == px


def test_substitute_x_examples():
    p = BivariatePoly.from_joint(P(2, ((1, 1), 1.0)), 1, 1)  # y*x1
    assert p.substitute_x([0.0]).is_zero()
    q = BivariatePoly.from_joint(P(2, ((1, 0), 1.0), ((0, 2), 1.0)), 1, 1)
    assert q.substitute_x([2.0]) == P(1, ((2,), 1.0), ((0,), 2.0))


def test_degree_caches():
    p = case1_p()
    assert p.d_x == 2 and p.d_y == 2
    assert p.substitute_y([0.3]).degree <= p.d_x
    assert p.substitute_x([0.1, 0.2]).degree <= p.d_y


def test_joint_round_trip():
    p = case1_p()
    assert BivariatePoly.from_joint(p.to_joint(), 2, 1).slices == p.slices


# ---------------------------------------------------------------- JSON pairs

def test_pairs_round_trip():
    f = P(2, ((2, 0), 1.5), ((0, 1), -2.0), ((0, 0), 3.0))
    assert Polynomial.from_pairs(2, f.to_pairs()) == f
    with pytest.raises(ValueError):
        Polynomial.from_pairs(2, [[[1], 1.0]])  # wrong exponent length


# ------------------------------------------------------------- immutability

def test_polynomial_is_immutable():
    f = P(2, ((1, 0), 1.0))
    with pytest.raises(AttributeError):
        f.nvars = 3
    assert hash(f) == hash(P(2, ((1, 0), 1.0)))


# ---------------------------------------------------------- property tests

coef = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def poly_strategy(nvars, max_deg=3, max_terms=6):
    mons = monomials_up_to(nvars, max_deg)
    return st.dictionaries(st.sampled_from(mons), coef, min_size=1,
                           max_size=max_terms).map(lambda t: Polynomial(nvars, t))


points2 = st.tuples(st.floats(-2, 2, allow_nan=False),
                    st.floats(-2, 2, allow_nan=False))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_eval_raster_equals_eval_many_on_the_raster(nvars, data):
    # negative and non-integral coefficients, a constant term placed
    # anywhere in the term order, and boxes of either orientation
    terms = dict(data.draw(poly_strategy(nvars, max_deg=4)).terms)
    terms[(0,) * nvars] = data.draw(coef.filter(bool))
    order = data.draw(st.permutations(list(terms)))
    f = Polynomial(nvars, {e: terms[e] for e in order})
    end = st.floats(-3, 3, allow_nan=False)
    box = [data.draw(st.tuples(end, end)) for _ in range(nvars)]
    n = data.draw(st.sampled_from([1, 2, 7, 30]))
    got = f.eval_raster([np.linspace(lo, hi, n) for lo, hi in box])
    want = f.eval_many(raster(box, n))
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(poly_strategy(2), poly_strategy(2), points2)
def test_product_eval_homomorphism(a, b, u):
    lhs = (a * b)(u)
    rhs = a(u) * b(u)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2, max_deg=3), points2)
def test_gradient_matches_central_differences(f, u):
    u = np.asarray(u)
    h = 1e-5
    g = f.gradient_at(u)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (f(u + e) - f(u - e)) / (2 * h)
        assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(g[i]), abs(fd))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2, max_deg=3), points2)
def test_hessian_matches_central_differences(f, u):
    u = np.asarray(u)
    h = 1e-4
    H = f.hessian_at(u)
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2); ei[i] = h
            ej = np.zeros(2); ej[j] = h
            fd = (f(u + ei + ej) - f(u + ei - ej)
                  - f(u - ei + ej) + f(u - ei - ej)) / (4 * h * h)
            assert abs(H[i, j] - fd) <= 1e-4 * max(1.0, abs(H[i, j]), abs(fd))
    np.testing.assert_allclose(H, H.T)


@settings(max_examples=50, deadline=None)
@given(poly_strategy(3, max_deg=3),
       st.tuples(st.floats(-2, 2, allow_nan=False)),
       st.tuples(st.floats(-2, 2, allow_nan=False),
                 st.floats(-2, 2, allow_nan=False)))
def test_substitution_commutes(joint, xpt, ypt):
    p = BivariatePoly.from_joint(joint, 1, 2)
    via_y = p.substitute_y(ypt)(xpt)
    via_x = p.substitute_x(xpt)(ypt)
    direct = p.eval(xpt, ypt)
    assert abs(via_y - via_x) <= 1e-9 * max(1.0, abs(via_y))
    assert abs(via_y - direct) <= 1e-9 * max(1.0, abs(direct))
