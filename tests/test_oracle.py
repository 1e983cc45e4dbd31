"""Jets of the shipped curves against a 50-digit mpmath oracle.

The oracle takes the Taylor coefficients of each curve's expression trees
by 50-digit Taylor arithmetic (`mpseries`), which `mpmath.taylor` of the
trees walked in mpmath checks at one s0 per curve; the curvature pair is
combined from those series in mpmath, as ell = <r', r ^ v> and
m = <v', r ^ v>.  No jet arithmetic, tape or Minkowski helper of the
library is used on the oracle side.

An error is measured per series, as the largest coefficient difference
divided by the largest oracle coefficient of that series, because a
coefficient that vanishes exactly in the oracle comes out as rounding
noise of the series' scale in floats.
"""

from __future__ import annotations

import math
import random

import pytest

from conftest import CURVES
from hypedal.expr import BinOp, Call, Neg, Num, Pi, Pow, Var
from hypedal.frontal import LegendrePair
from hypedal.io import load_curve

mpmath = pytest.importorskip("mpmath")
import mpseries  # noqa: E402  (needs mpmath)

ORDERS = (3, 17, 22)
TOP = max(ORDERS) + 1  # curvature_jets at order K reads the r and v jets at K + 1

# The largest errors measured over the series checked here, on cusp37: 2.1e-12
# for a component (v2 at the seeded draw s0 = 1.445, order 22) and 3.1e-10 for
# the curvature pair (ell at the domain ends s0 = +-2, where r and v are ~128
# and <r', mu> cancels).  A 90-digit oracle agrees with the 50-digit one to
# 1e-51 there, so these are the float jets' own errors.  The bounds sit about
# five times above them.
COMPONENT_BOUND = 1e-11
CURVATURE_BOUND = 1.5e-9

CUSPS = {
    "astroid": (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi),
    "cusp23": (0.0,),
    "cusp37": (0.0,),
    "circle": (),
}

_CALLS = {
    "sqrt": lambda x: mpmath.sqrt(x), "sin": lambda x: mpmath.sin(x),
    "cos": lambda x: mpmath.cos(x), "sinh": lambda x: mpmath.sinh(x),
    "cosh": lambda x: mpmath.cosh(x), "tanh": lambda x: mpmath.tanh(x),
    "abs": lambda x: mpmath.fabs(x),
}


def _walk(node, s):
    """The value of an expression tree at s, in mpmath."""
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return s
    if isinstance(node, Pi):
        return mpmath.mpf(math.pi)  # the parser's pi is the float
    if isinstance(node, Neg):
        return -_walk(node.arg, s)
    if isinstance(node, BinOp):
        a, b = _walk(node.left, s), _walk(node.right, s)
        return {"+": a + b, "-": a - b, "*": a * b}[node.op] if node.op != "/" else a / b
    if isinstance(node, Pow):
        return _walk(node.base, s) ** node.exponent
    if isinstance(node, Call):
        return _CALLS[node.name](_walk(node.arg, s))
    raise TypeError(node)


def _taylor(tree, s0: float):
    """The series of `mpmath.taylor`, which differentiates numerically."""
    return mpmath.taylor(lambda s: _walk(tree, s), mpmath.mpf(s0), TOP)


def _d(a):
    return [k * a[k] for k in range(1, len(a))]


def _mul(a, b):
    n = min(len(a), len(b))
    return [mpmath.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _add(*terms):
    return [mpmath.fsum(c) for c in zip(*terms)]


def _neg(a):
    return [-c for c in a]


def _inner(u, w):
    return _add(_neg(_mul(u[0], w[0])), _mul(u[1], w[1]), _mul(u[2], w[2]))


def _wedge(u, w):
    return [
        _add(_neg(_mul(u[1], w[2])), _mul(u[2], w[1])),
        _add(_mul(u[2], w[0]), _neg(_mul(u[0], w[2]))),
        _add(_neg(_mul(u[1], w[0])), _mul(u[0], w[1])),
    ]


def _error(coeffs, exact) -> float:
    """Largest coefficient error over the largest |coefficient| of the whole
    oracle series (absolute where the series vanishes identically)."""
    diff = max(abs(mpmath.mpf(c) - e) for c, e in zip(coeffs, exact))
    scale = max(abs(c) for c in exact)
    return float(diff / scale if scale else diff)


def _points(name, curve):
    a, b = curve.domain
    rng = random.Random(f"oracle-{name}")
    return sorted({a, b, *CUSPS[name], *(rng.uniform(a, b) for _ in range(3))})


@pytest.fixture(scope="module")
def oracle():
    """(curve name, s0) -> (pair, r series, v series), at 50 digits."""
    table = {}
    with mpmath.workdps(50):
        for name in CUSPS:
            curve = load_curve(CURVES / f"{name}.json")
            pair = LegendrePair.from_curve(curve)
            for s0 in _points(name, curve):
                r = [mpseries.series(t, s0, TOP) for t in curve.components]
                v = [mpseries.series(t, s0, TOP) for t in curve.dual_components]
                table[name, s0] = (curve, pair, r, v)
    return table


def test_component_jets_match_the_oracle(oracle):
    for (name, s0), (curve, _, r, v) in oracle.items():
        for order in ORDERS:
            got = curve.point_jet(s0, order).components() + curve.dual_jet(s0, order).components()
            for jet, exact in zip(got, r + v):
                err = _error(jet.coeffs, exact)
                assert err <= COMPONENT_BOUND, (name, s0, order, err)


def test_curvature_jets_match_the_oracle(oracle):
    with mpmath.workdps(50):
        for (name, s0), (_, pair, r, v) in oracle.items():
            for order in ORDERS:
                rs = [c[: order + 2] for c in r]
                vs = [c[: order + 2] for c in v]
                mu = [c[: order + 1] for c in _wedge(rs, vs)]
                ell = _inner([_d(c) for c in rs], mu)
                m = _inner([_d(c) for c in vs], mu)
                for jet, exact in zip(pair.curvature_jets(s0, order), (ell, m)):
                    err = _error(jet.coeffs, exact)
                    assert err <= CURVATURE_BOUND, (name, s0, order, err)


# The largest relative difference measured between the two at 50 digits is
# 6.6e-48 (the four curves' six components at their first seeded draw); a
# wrong recurrence is off in its first digits.
SERIES_BOUND = 1e-40


@pytest.mark.parametrize("name", list(CUSPS))
def test_series_arithmetic_is_mpmath_taylor(oracle, name):
    # the oracle's Taylor arithmetic against numerical differentiation, at
    # one s0 of each curve: its first seeded draw (`_points`)
    curve = load_curve(CURVES / f"{name}.json")
    s0 = random.Random(f"oracle-{name}").uniform(*curve.domain)
    _, _, r, v = oracle[name, s0]
    with mpmath.workdps(50):
        for tree, got in zip(curve.components + curve.dual_components, r + v):
            exact = _taylor(tree, s0)
            scale = max(abs(c) for c in exact)
            diff = max(abs(a - b) for a, b in zip(got, exact))
            assert diff <= SERIES_BOUND * scale, (name, s0, float(diff / scale))
