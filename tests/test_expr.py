from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CURVES
from hypedal.expr import (
    JET_MEMO_SIZE, BinOp, Call, EvalDomainError, Neg, Num, ParametricCurve, ParseError, Pi,
    Pow, Var, _eval, _Tape, eval_jet, eval_scalar, parse, to_text,
)
from hypedal.io import load_curve
from hypedal.jets import Jet


def test_parse_and_eval_golden():
    e = parse("sqrt(1+s^4+s^6)")
    assert abs(eval_scalar(e, 1.0) - math.sqrt(3.0)) < 1e-12
    assert eval_scalar(parse("2*s + 3"), 2.0) == 7.0


def test_parse_error_position_and_description():
    with pytest.raises(ParseError) as err:
        parse("s +")
    assert err.value.position == 3
    assert err.value.message == "expected operand"


def test_eval_scalar_golden():
    assert eval_scalar(parse("cos(s)^3"), 0.0) == 1.0
    assert eval_scalar(parse("sin(s)^3"), math.pi / 2) == 1.0
    got = eval_scalar(parse("sqrt(1+cos(s)^6+sin(s)^6)"), math.pi / 4)
    assert abs(got - math.sqrt(5.0) / 2.0) < 1e-12


def test_precedence_and_associativity():
    assert eval_scalar(parse("-s^2"), 2.0) == -4.0
    assert eval_scalar(parse("2-3-4"), 0.0) == -5.0
    assert eval_scalar(parse("12/3/2"), 0.0) == 2.0
    assert eval_scalar(parse("2+3*4"), 0.0) == 14.0
    assert eval_scalar(parse("2*s^3"), 2.0) == 16.0
    assert eval_scalar(parse("(-s)^2"), 3.0) == 9.0
    assert eval_scalar(parse("2^-2"), 0.0) == 0.25
    assert eval_scalar(parse("pi"), 0.0) == math.pi


def test_whitespace_insensitive():
    assert parse("  1 +  s *2 ") == parse("1+s*2")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError, match="unexpected token"):
        parse("2s")


def test_unknown_identifier_and_function():
    with pytest.raises(ParseError, match="unknown identifier 't'"):
        parse("t + 1")
    with pytest.raises(ParseError, match="unknown function 'exp'"):
        parse("exp(s)")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError, match="integer literal"):
        parse("s^2.5")
    with pytest.raises(ParseError, match="integer literal"):
        parse("s^(2)")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse("sin(s")


def test_eval_jet_golden():
    assert eval_jet(parse("s^2"), 0.0, 3).coeffs == (0.0, 0.0, 1.0, 0.0)
    assert eval_jet(parse("s^3"), 0.0, 4).coeffs == (0.0, 0.0, 0.0, 1.0, 0.0)
    got = eval_jet(parse("sqrt(1+s^4+s^6)"), 0.0, 4).coeffs
    assert max(abs(a - b) for a, b in zip(got, (1.0, 0.0, 0.0, 0.0, 0.5))) < 1e-15


def test_eval_jet_of_constant_expression():
    j = eval_jet(parse("cosh(1)"), 0.5, 3)
    assert j.order == 3 and abs(j.coeffs[0] - math.cosh(1.0)) < 1e-15
    assert j.coeffs[1:] == (0.0, 0.0, 0.0)


def test_eval_jet_order_zero():
    j = eval_jet(parse("sin(s)"), 0.3, 0)
    assert j.order == 0 and abs(j.coeffs[0] - math.sin(0.3)) < 1e-15


def test_abs_value_level_only():
    e = parse("abs(s - 1)")
    assert eval_scalar(e, 0.0) == 1.0
    with pytest.raises(EvalDomainError, match="abs is not differentiable"):
        eval_jet(e, 0.0, 2)


def test_domain_errors_name_the_function():
    with pytest.raises(EvalDomainError, match="sqrt"):
        eval_scalar(parse("sqrt(s)"), -1.0)
    with pytest.raises(EvalDomainError, match="sqrt"):
        eval_jet(parse("sqrt(s)"), -1.0, 2)
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_scalar(parse("1/s"), 0.0)


def test_jet_order_limit():
    with pytest.raises(ValueError, match="maximum"):
        eval_jet(parse("s"), 0.0, 1000)


# -- random expression properties -----------------------------------------

def _exprs(jet_ops=False):
    """Random trees.  `jet_ops` adds /, sqrt, cos, sinh, tanh, negative
    exponents and the constants 0 and 1e200, which reach every node kind of
    the jet tape and most of the ways jet evaluation fails; the tolerance
    tests below keep the smooth subset."""
    numbers = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
    if jet_ops:
        numbers = numbers | st.sampled_from([0.0, 1e200])
    variables = [st.just(Var())] * (3 if jet_ops else 1)
    leaves = st.one_of(st.builds(Num, numbers), *variables, st.just(Pi()))

    def extend(children):
        options = [
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*"]), children, children),
            st.builds(Pow, children, st.integers(min_value=0, max_value=4)),
            st.builds(Call, st.just("sin"), children),
            st.builds(Call, st.just("cosh"), children),
        ]
        if jet_ops:
            options += [
                st.builds(BinOp, st.just("/"), children, children),
                st.builds(Pow, children, st.integers(min_value=-3, max_value=-1)),
                st.builds(Call, st.sampled_from(["sqrt", "cos", "sinh", "tanh"]), children),
            ]
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(_exprs())
def test_print_parse_roundtrip(e):
    assert parse(to_text(e)) == e


@settings(max_examples=500, deadline=None)
@given(_exprs(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_jet_constant_coefficient_is_scalar_value(e, s0):
    try:
        plain = eval_scalar(e, s0)
        j = eval_jet(e, s0, 3)
    except (OverflowError, ValueError):
        assume(False)
        return
    assume(abs(plain) < 1e12)
    assert abs(j.coeffs[0] - plain) <= 1e-12 * max(1.0, abs(plain))


@settings(max_examples=200, deadline=None)
@given(_exprs(), st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_jet_slope_matches_central_difference(e, s0):
    h = 1e-5
    try:
        j = eval_jet(e, s0, 2)
        fd = (eval_scalar(e, s0 + h) - eval_scalar(e, s0 - h)) / (2 * h)
    except (OverflowError, ValueError):
        assume(False)
        return
    assume(max(abs(c) for c in j.coeffs) < 1e9)
    scale = max(1.0, abs(fd), max(abs(c) for c in j.coeffs))
    assert abs(j.coeffs[1] - fd) <= 1e-5 * scale


# -- the jet tape against the tree walk ---------------------------------------


def _walked(e, s0, order):
    """The tree walked on `Jet` objects: the reference for the tape."""
    width = max(order, 1)
    result = _eval(e, Jet.variable(s0, width))
    if not isinstance(result, Jet):
        result = Jet.constant(result, s0, width)
    return result.truncate(order)


def _outcome(fn):
    """Each coefficient by repr, so the sign of zero counts, or the exception."""
    try:
        j = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return repr(j.base), [repr(c) for c in j.coeffs]


@settings(max_examples=400, deadline=None)
@given(_exprs(jet_ops=True),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False) | st.sampled_from([0.0, -0.0]),
       st.sampled_from([0, 1, 2, 3, 17, 22, 23]))
def test_tape_is_bit_identical_to_tree_walk(e, s0, order):
    assert _outcome(lambda: eval_jet(e, s0, order)) == _outcome(lambda: _walked(e, s0, order))


# a constant operand is lifted to (c, 0.0, ...): the zeros it adds or
# subtracts, and the Cauchy product with it, fix the sign of zero coefficients
@pytest.mark.parametrize("text", [
    "1 - s", "s - 1", "1 + s", "s + 1", "2*s", "s*2", "0*s", "s*(-0.0)", "(-0.0) - s",
    "s - (-0.0)", "1/(1 + s)", "(s - s)/2", "s^0", "s^1", "(-s)^2", "s^-1", "-s", "sin(s)^2",
    "s*s - s^2", "2 - sqrt(1 + s*s)", "1/tanh(1 + s) - cosh(s)/sinh(2 + s)",
])
def test_tape_lifts_constants_like_jet(text):
    e = parse(text)
    for s0 in (0.0, -0.0, 0.5, -1.25):
        for order in (0, 1, 3):
            assert _outcome(lambda: eval_jet(e, s0, order)) == _outcome(lambda: _walked(e, s0, order))


def test_first_non_finite_intermediate_raises():
    # (s*1e200)^2 overflows.  Checked only at the output, the quotient would
    # see an infinite divisor and refuse it as a vanishing germ instead.
    e = parse("1/((s*1e200)*(s*1e200))")
    for order in (0, 2):
        assert _outcome(lambda: eval_jet(e, 0.5, order)) == (ValueError, "non-finite jet coefficient")
    curve = ParametricCurve("overflow", (e, parse("s"), parse("s")), (0.0, 1.0))
    with pytest.raises(ValueError, match="non-finite jet coefficient") as err:
        curve.point_jet(0.5, 2)
    assert type(err.value) is ValueError


def test_tape_shares_equal_subtrees_and_sin_cos():
    tape = _Tape(((parse("sin(s)*cos(s) + sin(s)*cos(s)"),),))
    # s, the sin/cos recurrence, sin, cos, the product and the sum
    assert len(tape.steps) == 6


def _bare_curve():
    return ParametricCurve("bare", (parse("s"), parse("sin(s)"), parse("1")), (-1.0, 1.0),
                           dual_components=(parse("sin(s)"), parse("s"), parse("-0.0")))


@pytest.mark.parametrize("name", ["astroid", "circle", "cusp23", "cusp37", "bare"])
def test_curve_jet_memo_matches_fresh_evaluation(name):
    curve = _bare_curve() if name == "bare" else load_curve(CURVES / f"{name}.json")
    # 0.0 == -0.0 and both hash alike, but s has coefficient 0 = -0.0 at -0.0;
    # the order counts too, since a quotient is refused on all its coefficients
    keys = [(s0, order) for order in (22, 23, 22) for s0 in (0.0, -0.0)] + [(0.7, 1), (0.7, 0)]
    for i, (s0, order) in enumerate(keys + keys[::-1]):
        methods = [("point_jet", curve.components), ("dual_jet", curve.dual_components)]
        for method, trees in methods[i % 2:] + methods[:i % 2]:
            got = getattr(curve, method)(s0, order)
            assert [_outcome(lambda: j) for j in got.components()] == \
                [_outcome(lambda: _walked(t, s0, order)) for t in trees]
            assert len(curve._memo) <= JET_MEMO_SIZE


# -- parametric curves -------------------------------------------------------


def _curve(domain=(0.0, 1.0), samples=100):
    comps = (parse("sqrt(1+s^2)"), parse("s"), parse("0"))
    return ParametricCurve(name="line", components=comps, domain=domain, samples=samples)


def test_curve_point_and_jet():
    c = _curve()
    p = c.point(0.5)
    assert abs(p.x1 - math.sqrt(1.25)) < 1e-15 and p.x2 == 0.5 and p.x3 == 0.0
    j = c.point_jet(0.5, 2)
    assert abs(j.x2.coeffs[1] - 1.0) < 1e-15


def test_curve_rejects_degenerate_domain():
    with pytest.raises(ValueError, match="degenerate domain"):
        _curve(domain=(1.0, 1.0))


def test_curve_grid_hits_both_endpoints():
    g = _curve(domain=(0.0, 2.0), samples=5).grid()
    assert g[0] == 0.0 and g[-1] == 2.0 and len(g) == 5


def test_curve_without_dual_refuses_dual_eval():
    with pytest.raises(ValueError, match="no explicit dual"):
        _curve().dual_point(0.1)
