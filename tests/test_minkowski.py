from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from hypedal.minkowski import (
    CausalClass, GeometryError, MVec3, boost_to_origin, causal_class, det3,
    inner, on_desitter, on_hyperboloid, on_upper_hyperboloid, wedge,
)

unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def vec(a, b, c):
    return MVec3(float(a), float(b), float(c))


def test_inner_examples():
    assert inner(vec(1, 0, 0), vec(1, 0, 0)) == -1.0
    assert inner(vec(0, 1, 0), vec(0, 1, 0)) == 1.0
    assert inner(vec(1, 1, 0), vec(1, 1, 0)) == 0.0


@given(unit_floats, unit_floats, unit_floats, unit_floats, unit_floats, unit_floats)
def test_inner_symmetric_exactly(a, b, c, d, e, f):
    u, w = vec(a, b, c), vec(d, e, f)
    assert inner(u, w) == inner(w, u)


def test_inner_bilinear():
    rng = random.Random(11)
    for _ in range(50):
        u = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        w = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        z = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        lam = rng.uniform(-3, 3)
        lhs = inner(u + lam * w, z)
        rhs = inner(u, z) + lam * inner(w, z)
        assert abs(lhs - rhs) < 1e-12


def test_wedge_basis():
    assert wedge(vec(0, 1, 0), vec(0, 0, 1)) == vec(-1, 0, 0)
    assert wedge(vec(1, 0, 0), vec(1, 0, 0)) == vec(0, 0, 0)
    assert wedge(vec(1, 0, 0), vec(0, 1, 0)) == vec(0, 0, 1)


def test_wedge_antisymmetric():
    rng = random.Random(3)
    for _ in range(25):
        u = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        w = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        a = wedge(u, w)
        b = wedge(w, u)
        assert max(abs(x + y) for x, y in zip(a.components(), b.components())) < 1e-14


@given(unit_floats, unit_floats, unit_floats, unit_floats, unit_floats, unit_floats)
def test_wedge_orthogonal_to_factors(a, b, c, d, e, f):
    u, w = vec(a, b, c), vec(d, e, f)
    p = wedge(u, w)
    assert abs(inner(p, u)) <= 1e-12
    assert abs(inner(p, w)) <= 1e-12


def test_det3_is_inner_with_wedge():
    rng = random.Random(5)
    for _ in range(25):
        u = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        w = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        z = vec(*(rng.uniform(-2, 2) for _ in range(3)))
        assert abs(det3(z, u, w) - inner(wedge(u, w), z)) < 1e-12


def test_causal_class_examples():
    assert causal_class(vec(2, 1, 0)) is CausalClass.TIMELIKE
    assert causal_class(vec(0, 3, 4)) is CausalClass.SPACELIKE
    assert causal_class(vec(5, 3, 4)) is CausalClass.LIGHTLIKE


def test_causal_class_scale_free():
    # relative zero test: a large near-null vector still classifies lightlike
    big = vec(5e8, 3e8, 4e8 + 1e-4)
    assert causal_class(big) is CausalClass.LIGHTLIKE


def test_causal_class_rejects_zero():
    with pytest.raises(GeometryError, match="null input"):
        causal_class(vec(0, 0, 0))


def test_pseudo_sphere_membership():
    assert on_hyperboloid(vec(1, 0, 0))
    assert on_hyperboloid(vec(math.sqrt(2), 1, 0))
    assert on_upper_hyperboloid(vec(math.sqrt(2), 1, 0))
    assert not on_hyperboloid(vec(0, 1, 0))
    assert on_desitter(vec(0, 1, 0))
    assert not on_upper_hyperboloid(vec(-1, 0, 0))


def test_sheet_membership_is_relative_to_x1_squared():
    # at x1 = cosh 10, <p,p> + 1 of the nearest doubles rounds to -3e-8
    far = vec(math.cosh(10.0), math.sinh(10.0), 0.0)
    assert abs(inner(far, far) + 1.0) > 1e-9
    assert on_upper_hyperboloid(far)
    boost_to_origin(far)
    assert not on_hyperboloid(vec(math.cosh(10.0), math.sinh(10.0) * (1.0 + 1e-7), 0.0))
    # beyond the floats <p,p> decides nothing, even where its tolerance is infinite
    assert not on_hyperboloid(vec(1e300, 0.0, 0.0))
    assert not on_hyperboloid(vec(1e300, 1e300, 0.0))


def test_boost_on_base_point_is_identity():
    L = boost_to_origin(vec(1, 0, 0))
    p = L.apply(vec(0.3, -0.7, 1.9))
    assert p == vec(0.3, -0.7, 1.9)


def test_boost_moves_point_to_origin():
    p = vec(math.sqrt(2), 1, 0)
    L = boost_to_origin(p)
    q = L.apply(p)
    assert abs(q.x1 - 1.0) < 1e-12 and abs(q.x2) < 1e-12 and abs(q.x3) < 1e-12


def test_boost_is_isometry():
    rng = random.Random(23)
    for _ in range(30):
        rho, phi = rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)
        p = vec(math.cosh(rho), math.sinh(rho) * math.cos(phi), math.sinh(rho) * math.sin(phi))
        L = boost_to_origin(p)
        u = vec(*(rng.uniform(-1, 1) for _ in range(3)))
        w = vec(*(rng.uniform(-1, 1) for _ in range(3)))
        assert abs(inner(L.apply(u), L.apply(w)) - inner(u, w)) < 1e-12


def test_boost_inverse_roundtrip():
    rng = random.Random(29)
    for _ in range(30):
        rho, phi = rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)
        p = vec(math.cosh(rho), math.sinh(rho) * math.cos(phi), math.sinh(rho) * math.sin(phi))
        L = boost_to_origin(p)
        Linv = L.inverse()
        u = vec(*(rng.uniform(-1, 1) for _ in range(3)))
        back = Linv.apply(L.apply(u))
        assert max(abs(a - b) for a, b in zip(back.components(), u.components())) < 1e-10


def test_boost_rejects_off_sheet_points():
    with pytest.raises(GeometryError, match="upper hyperboloid"):
        boost_to_origin(vec(0, 1, 0))
    with pytest.raises(GeometryError, match="upper hyperboloid"):
        boost_to_origin(vec(-1, 0, 0))


def test_vector_finiteness_guard():
    with pytest.raises(ValueError, match="non-finite"):
        MVec3(float("nan"), 0.0, 0.0)
    big = vec(1.5e308, -1.5e308, 0.5)
    for overflow in (lambda: big * 1e10, lambda: 1e10 * big, lambda: big / 1e-10,
                     lambda: big + big, lambda: big - (-big), lambda: big.map(lambda x: x * 2.0),
                     lambda: wedge(big, vec(0.5, 1e300, 1e300))):
        with pytest.raises(ValueError, match="non-finite vector component"):
            overflow()
