from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import CURVES, FIXTURES
from hypedal.expr import (
    MAX_DEPTH, BinOp, Call, EvalDomainError, Neg, Num, ParametricCurve, ParseError, Pi,
    Pow, Var, _eval, _Tape, _TapePoint, eval_jet, eval_scalar, parse, to_text,
)
from hypedal import expr, jets, program, recording
from hypedal.cli import main
from hypedal.program import _k_d, _k_trunc
from hypedal.io import load_curve
from hypedal.jets import Jet
from hypedal.minkowski import MVec3

try:
    import mpmath
    from test_oracle import _walk
except ImportError:  # the accuracy test below needs it
    mpmath = None


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


def test_only_decimal_digits_make_numbers():
    # "²" is a digit to str.isdigit, but float and int refuse it
    for text in ("²", "s^²", "1²", "s*²"):
        with pytest.raises(ParseError, match="unexpected character '²'"):
            parse(text)
    assert parse("٣.٥*s^٣") == parse("3.5*s^3")


def test_trees_deeper_than_the_bound_are_refused_at_parse():
    # n terms of a sum make a tree of depth n; a sum of about 1000 terms used
    # to overflow the compiler's recursion at its first evaluation
    for text in ("+".join(["s"] * MAX_DEPTH), "s" + "+1" * (MAX_DEPTH - 1),
                 "-" * (MAX_DEPTH - 1) + "s", "*".join(["cos(s)"] * (MAX_DEPTH - 1))):
        e = parse(text)
        assert eval_scalar(e, 0.3) == _eval(e, 0.3)
        assert eval_jet(e, 0.3, 3) == _eval(e, Jet.variable(0.3, 3))
    for text in ("+".join(["s"] * (MAX_DEPTH + 1)), "-" * MAX_DEPTH + "s",
                 "+".join(["s"] * 1000)):
        with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(text)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("(" * 1000 + "s" + ")" * 1000)


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

def _exprs(jet_ops=False, abs_calls=False):
    """Random trees.  `jet_ops` adds /, sqrt, cos, sinh, tanh, negative
    exponents and the constants 0 and 1e200, which reach every node kind of
    the jet tape and most of the ways jet evaluation fails; the tolerance
    tests below keep the smooth subset.  `abs_calls` adds abs, which only
    floats evaluate."""
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
        if abs_calls:
            options.append(st.builds(Call, st.just("abs"), children))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(_exprs())
def test_print_parse_roundtrip(e):
    assert parse(to_text(e)) == e


# Unit roundoff, and the smallest normal float, below which rounding errors
# are absolute.
_U = 2.0 ** -53
_TINY = 2.2250738585072014e-308


def _rounding(value):
    return max(abs(value), mpmath.mpf(_TINY))


def _error_walk(node, s):
    """The value of a tree of `_exprs()` at s in mpmath, and a bound, in units
    of `_U`, on the error of evaluating it in floats or as a jet's constant
    coefficient: a running error bound (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., 2002, sec. 3.3).  Each operation rounds
    its result once, a `math` function to within one ulp and s^n up to |n|
    times (by repeated products), and an operand's error moves the result by
    at most the largest slope between the exact and the computed operand."""
    if isinstance(node, Neg):
        a, ea = _error_walk(node.arg, s)
        return -a, ea
    if isinstance(node, BinOp):
        (a, ea), (b, eb) = _error_walk(node.left, s), _error_walk(node.right, s)
        if node.op == "*":
            value, moved = a * b, abs(a) * eb + abs(b) * ea + _U * ea * eb
        else:
            value, moved = a + b if node.op == "+" else a - b, ea + eb
        return value, moved + _rounding(value)
    if isinstance(node, Pow):
        a, ea = _error_walk(node.base, s)
        n = node.exponent  # 0 to 4
        value = a ** n
        moved = n * (abs(a) + _U * ea) ** (n - 1) * ea if n else 0
        return value, moved + n * _rounding(value)
    if isinstance(node, Call):
        a, ea = _error_walk(node.arg, s)
        if node.name == "sin":
            value, slope = mpmath.sin(a), min(1, abs(mpmath.cos(a)) + _U * ea)
        else:
            value, slope = mpmath.cosh(a), mpmath.sinh(abs(a) + _U * ea)
        return value, slope * ea + 2 * _rounding(value)
    return _walk(node, s), 0  # a number, s or pi: exact


# Over 19,854 draws, the largest error of either side was 0.994 of its
# running bound, at one rounded subtraction, which can reach 1/(1 + _U) of
# it.  The bound leaves room for the second-order terms the running bound
# leaves out.  At sin(cosh(s^4)), s0 = 1.794343875995657, the float is
# 3.8e-12 off (0.10 of its bound) and the jet 9.6e-12 (0.26).
ERROR_RATIO = 1.5


@pytest.mark.skipif(mpmath is None, reason="needs mpmath")
@settings(max_examples=500, deadline=None)
@given(_exprs(), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@example(parse("sin(cosh(s^4))"), 1.794343875995657)
def test_jet_constant_coefficient_is_scalar_value(e, s0):
    # Both sides are compared with the 50-digit value.  Against each other
    # they may differ by far more than either rounds: s^4 is one `**` in
    # floats and two products in jets, and cosh amplifies the difference.
    try:
        plain = eval_scalar(e, s0)
        j = eval_jet(e, s0, 3)
    except (OverflowError, ValueError):
        assume(False)
        return
    assume(abs(plain) < 1e12)
    with mpmath.workdps(50):
        exact, bound = _error_walk(e, mpmath.mpf(s0))
        for got in (plain, j.coeffs[0]):
            assert abs(got - exact) <= ERROR_RATIO * _U * bound


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


def _recursive_program(tape, roots):
    """`_Tape._program` as a recursive walk: the reference of its post-order."""
    done = {0}
    order = []

    def visit(nodes):
        for node in nodes:
            if node not in done:
                done.add(node)
                visit(tape.deps[node])
                order.append(node)

    visit(roots)
    return tuple((node,) + tape.steps[node] for node in order if tape.steps[node][0])


@pytest.mark.parametrize("floats", [False, True])
@pytest.mark.parametrize("name", ["astroid", "circle", "cusp23", "cusp37"])
def test_tape_programs_are_the_recursive_walks(name, floats):
    curve = load_curve(CURVES / f"{name}.json")
    tape = _Tape((curve.components, curve.dual_components), floats=floats)
    r, v = tape.outputs
    assert tape.programs == [_recursive_program(tape, r), _recursive_program(tape, v)]


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


# -- the float tape and the curve's reads against the tree walk --------------


def _value_outcome(fn):
    """The result by repr, so the sign of zero counts, or the exception."""
    try:
        return repr(fn())
    except Exception as exc:
        return type(exc), str(exc)


# the domain ends of the shipped curves, and values whose powers overflow
_FLOAT_S = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 2.0, -2.0, 6.283185307179586, 1e154, -1e155, 1e300, -1e308, math.inf,
     -math.inf, math.nan])


@settings(max_examples=500, deadline=None)
@given(_exprs(jet_ops=True, abs_calls=True), _FLOAT_S)
@example(parse("s^3"), 0.3)  # ** and products round 0.3^3 differently
@example(parse("s^4"), 0.1)
def test_float_tape_is_bit_identical_to_tree_walk(e, s):
    assert _value_outcome(lambda: eval_scalar(e, s)) == _value_outcome(lambda: _eval(e, s))


@pytest.mark.parametrize("text, s, error", [
    ("1/s", 0.0, (EvalDomainError, "division by zero")),
    ("2/(s - s)", -1.5, (EvalDomainError, "division by zero")),
    ("(s - s)^-2", 1.0, (EvalDomainError, "zero raised to the negative power -2")),
    ("sqrt(s)", -1.0, (EvalDomainError, "domain error: sqrt(-1.0)")),
    ("1 + cos(s*1e308*10)", 1.0, (EvalDomainError, "domain error: cos(inf)")),
    ("sinh(s)", 1000.0, (OverflowError, "math range error")),
    ("1/(s^2)", 1e200, (OverflowError, "(34, 'Numerical result out of range')")),
    ("abs(s - 3)", 1.0, "2.0"),
])
def test_float_tape_raises_what_the_walk_raises(text, s, error):
    e = parse(text)
    assert _value_outcome(lambda: eval_scalar(e, s)) == _value_outcome(lambda: _eval(e, s)) == error


def _tape_outcome(e, s, degree):
    """e at s from the step loop of a fresh tape at `degree` (0: floats), by
    repr, or the exception."""
    tape = _Tape(((e,),), floats=not degree)
    return _value_outcome(lambda: _TapePoint(tape, s, degree).outputs(0)[0])


def _tapes(groups) -> tuple:
    """Fresh (float tape, jet tape, {}) of groups of trees, as a curve's."""
    return _Tape(groups, floats=True), _Tape(groups), {}


def _read_outcome(e, s, degree):
    """e at s from the generated read of the tapes (`program.tape_read`) at
    `degree` (0: floats), by repr, or "refused" where it gives no answer;
    None where there is none."""
    read = program.tape_read(_tapes(((e,),)), ((0, degree or None, 0),))
    if read is None:
        return None
    out = jets.answer(read[0], s, None)  # where it refuses, the callers run the step loop
    return "refused" if out is None else repr(out[0])


def _finite(value) -> bool:
    """A float, a jet's coefficient list or a pair of them, all finite."""
    if isinstance(value, tuple):  # a sin/cos or sinh/cosh pair
        return all(map(_finite, value))
    return all(map(math.isfinite, value if isinstance(value, list) else (value,)))


def _exact_outcome(e, s, degree):
    """What a generated read of e at s and `degree` must give: the step
    loop's output by repr where s and every value the loop computes are
    finite, and "refused" where one is not or a step raises."""
    if not math.isfinite(s):  # the read tests s, which a step may drop (tanh(inf) is 1.0)
        return "refused"
    tape = _Tape(((e,),), floats=not degree)
    point = _TapePoint(tape, s, degree)
    try:
        out = point.outputs(0)[0]
    except Exception:  # where a function is generated, the step raises a domain error
        return "refused"
    if not all(_finite(point.values[node]) for node, *_ in tape.programs[0]):
        return "refused"
    return repr(out)


@settings(max_examples=500, deadline=None)
@given(_exprs(jet_ops=True, abs_calls=True), _FLOAT_S, st.integers(min_value=0, max_value=3))
@example(parse("sin(s)*cos(s)/(1 + s^2)"), 0.3, 3)
@example(parse("1/(s - s)"), 0.5, 2)  # a vanishing divisor
@example(parse("sqrt(s - 1)"), 0.5, 2)  # the square root of a negative constant term
@example(parse("1/((s*1e200)*(s*1e200))"), 0.5, 2)  # an overflow
@example(parse("s^-2"), 1e154, 1)  # finite values whose sum overflows
# a value that is not finite and that the next step's result does not show:
# x/inf is 0.0, tanh(inf) is 1.0, inf^0 is 1.0 and inf^-1 is 0.0, and a lift
# keeps only the width of what it lifts
@example(parse("1/(s*1e308)"), 2.0, 0)
@example(parse("tanh(s*1e308)"), 2.0, 0)
@example(parse("(s+s)^0"), 1e308, 0)
@example(parse("(s+s)^-1"), -1e308, 0)
@example(parse("(s+s)^0"), 1e308, 1)
# an output that alone is not finite, and a cosine that alone is not
# (c_2 = -(1e200)^2/2) in a pair whose sine alone is read
@example(parse("s^2"), -1e155, 1)
@example(parse("sin(s*1e200)"), 0.0, 2)
def test_generated_tape_functions_are_the_step_loop(e, s, degree):
    # at most 4 coefficients a value, the generated read answers iff s and
    # every value the step loop computes are finite, and then with the loop's
    # bits; where it refuses, the callers run the loop, which raises what it
    # raises or, on floats, carries the infinity (1/(s*1e308) is 0.0 at 2)
    assert _read_outcome(e, s, degree) in (None, _exact_outcome(e, s, degree))


@settings(max_examples=200, deadline=None)
@given(_exprs(jet_ops=True, abs_calls=True), _FLOAT_S.filter(math.isfinite),
       st.sampled_from([5, 17, 23]))
@example(parse("sin(s)*s^2"), 0.3, 17)  # a sparse right operand
# a structural zero meets an overflow: coefficient 3 of the square is inf*0.0
@example(parse("((s*1e200)*(s*1e200))*s"), 0.5, 23)
# at s = +-0.0 the coefficients of one parity of sin(s), cos(s) and sin(s)^2
# vanish, so a left operand's degree found at run time can be below its
# bound: cos(s)'s at degree 5, sin(s)^2's at 17
@example(parse("sin(s)*sin(s)"), 0.0, 23)
@example(parse("(sin(s)*sin(s))*s"), -0.0, 17)
@example(parse("cos(s)*sin(s)"), -0.0, 5)
@example(parse("1/(s^-1)"), -1e308, 5)  # finite values whose sum overflows
def test_wide_generated_tape_functions_are_the_step_loop(e, s, degree):
    # above 4 coefficients a value, the generated read, its products'
    # kernels bound to the degrees of their operands, must give the step
    # loop's bits, or no answer where a step raises; its callers give it a
    # finite s alone, as `_tape_args` does the step loop
    loop = _tape_outcome(e, s, degree)
    assert _read_outcome(e, s, degree) in (None, loop if isinstance(loop, str) else "refused")


# one program per step kind, on input nodes 1 and 2, and s, node 0; "d" and
# "truncate" act on a product, so that a value they drop is one the program
# computed; "scale" multiplies by a lift of a constant, as every product
# with a scalar does; the next four multiply with a left operand that ends
# in zeros, whose degree is below the bound of its width: s, s^2, a lift of
# -0.0, and a sum of s and a lift; the last four read s alone, so their
# products call kernels bound to their operands' degrees: sin(s) (every
# degree) times s (degree 1), s^2 times s^3, and two whose bound product
# meets a value that is not finite, where the step loop's terms with a
# structural zero are inf*0.0 or nan*0.0: s scaled by 1e200 twice, which
# overflows, times s, and a lift of nan times s
_STEP_KINDS = {
    "neg": ([(3, expr._k_neg, 1, None)], (3,)),
    "add": ([(3, expr._k_add, 1, 2)], (3,)),
    "sub": ([(3, expr._k_sub, 1, 2)], (3,)),
    "mul": ([(3, expr._k_mul, 1, 2)], (3,)),
    "div": ([(3, expr._k_div, 1, 2)], (3,)),
    "lift": ([(3, expr._k_lift, 1, -0.0), (4, expr._k_add, 3, 2)], (4,)),
    "scale": ([(3, expr._k_lift, 1, -1.5), (4, expr._k_mul, 1, 3)], (4,)),
    "sqrt": ([(3, expr._k_sqrt, 1, None)], (3,)),
    "d": ([(3, expr._k_mul, 1, 2), (4, _k_d, 3, None)], (4,)),
    "truncate": ([(3, expr._k_mul, 1, 2), (4, _k_trunc, 3, 2)], (4,)),
    "sin of a sin/cos pair": ([(3, expr._k_pair, 1, jets.sin_cos_coeffs),
                               (4, expr._k_half, 3, 0)], (4,)),
    "tanh": ([(3, expr._k_pair, 1, jets.sinh_cosh_coeffs), (4, expr._k_tanh, 3, None)], (4,)),
    "s times": ([(3, expr._k_mul, 0, 1)], (3,)),
    "s^2 times": ([(3, expr._k_mul, 0, 0), (4, expr._k_mul, 3, 2)], (4,)),
    "a lift of -0.0 times": ([(3, expr._k_lift, 1, -0.0), (4, expr._k_mul, 3, 2)], (4,)),
    "s and a lift times": ([(3, expr._k_lift, 1, 0.5), (4, expr._k_add, 3, 0),
                            (5, expr._k_neg, 4, None), (6, expr._k_lift, 5, -1.5),
                            (7, expr._k_mul, 5, 6), (8, expr._k_mul, 7, 1)], (8,)),
    "times s": ([(3, expr._k_pair, 0, jets.sin_cos_coeffs), (4, expr._k_half, 3, 0),
                 (5, expr._k_mul, 4, 0)], (5,)),
    "s^2 times s^3": ([(3, expr._k_mul, 0, 0), (4, expr._k_mul, 3, 0), (5, expr._k_mul, 3, 4)],
                      (5,)),
    "s overflowed times s": ([(3, expr._k_lift, 0, 1e200), (4, expr._k_mul, 0, 3),
                              (5, expr._k_lift, 4, 1e200), (6, expr._k_mul, 4, 5),
                              (7, expr._k_mul, 6, 0)], (7,)),
    "a lift of nan times s": ([(3, expr._k_lift, 0, math.nan), (4, expr._k_mul, 3, 0)], (4,)),
    # the evolute's signs: the branch sign of (m^2, ell^2) = (node 1, node 2),
    # node 2 flipped by it, node 2 flipped to the upper sheet on the
    # hyperbolic branch, as x1 is; and the branch sign of a product, which is
    # computed first, so a degenerate branch must find it finite
    "branch sign": ([(3, program._f_branch, 1, 2)], (3,)),
    "flip by the branch sign": ([(3, program._f_branch, 1, 2), (4, program._k_flip, 2, 3)], (3, 4)),
    "flip to the upper sheet": ([(3, program._f_branch, 1, 2), (4, program._f_sheet, 3, 2),
                                 (5, program._k_flip, 2, 4)], (3, 5)),
    "branch sign of a product": ([(3, expr._k_mul, 1, 2), (4, program._f_branch, 3, 2),
                                  (5, program._k_flip, 3, 4)], (4, 5)),
}
_SIGN_KINDS = sorted(kind for kind, (steps, _) in _STEP_KINDS.items()
                     if any(fn is program._f_branch for _, fn, _, _ in steps))
_NOT_FINITE_FROM_S = {"s overflowed times s", "a lift of nan times s"}  # refused in every case
_FROM_S = {"times s", "s^2 times s^3", *_NOT_FINITE_FROM_S}


def _step_inputs(width: int, case: str):
    """The jet of s and two coefficient lists of `width`, with signed zeros, for one case."""
    s = [-0.0 if case == "signed zeros" else 0.5, 1.0] + [0.0] * (width - 2)
    rng = random.Random(f"{width} {case}")
    a, b = ([rng.choice((0.0, -0.0)) if i % 3 == 2 else rng.uniform(-1.0, 1.0)
             for i in range(width)] for _ in range(2))
    a[0], b[0] = 0.75, -1.25
    if case == "1e300 constant terms":  # a product's constant term overflows
        a[0] = b[0] = 1e300
    elif case == "1e300 in the middle":  # a product's tail overflows
        a[(width - 1) // 2] = b[(width - 1) // 2] = 1e300
    elif case == "nan constant term":
        a[0] = math.nan
    elif case == "refused":  # a vanishing divisor, the square root of a negative
        a[0], b[0] = -0.5, 1e-14
    elif case == "a cos overflows":  # c_4 = -a_2^2 / 2 overflows; at width 5, sin a stays finite
        a = [0.0, 0.0, -3.4595005287720934e+291] + [0.0] * (width - 3)
    return s, a, b


def _inline_steps(steps, outputs, width: int, final: bool = True):
    """(the input nodes read, function, constants) of `program.inline_program`
    for a step kind whose inputs, s and nodes 1 and 2, are jets of `width`;
    a recorded function's, whose refusals may be final, where `final`, and
    else a read's, the steps of a curve's tapes.  The function takes the
    float s at node 0 (`_given`), and a `_k_var` step makes its jet, as a
    read does."""
    read = sorted({node for _, fn, x, y in steps
                   for node in ((x, y) if fn in expr._TWO_OPERANDS else (x,)) if node < 3})
    if 0 in read:  # s's jet at a node after the others
        jet = max(node for node, *_ in steps) + 1
        steps = [(jet, program._k_var, 0, width - 1)] + [
            (node, fn, jet if x == 0 else x, jet if y == 0 and fn in expr._TWO_OPERANDS else y)
            for node, fn, x, y in steps]
    shapes = {node: 0 if node == 0 else width for node in read}
    return read, *program.inline_program(steps, shapes, outputs, final=final)


def _given(inputs, read):
    """What the function of `_inline_steps` takes of the `inputs` (s's jet,
    node 1, node 2) at the nodes it `read`s: the float s and lists."""
    return [inputs[0][0] if node == 0 else list(inputs[node]) for node in read]


def _reprs(values):
    """Floats and coefficient lists by repr, so the sign of zero counts."""
    return [[repr(c) for c in v] if isinstance(v, list) else repr(v) for v in values]


def _generated_outcome(function, inputs, consts):
    """What a generated function gives through `jets.answer`: its outputs by
    repr, "refused" where it gives no answer, or the class and message of
    the error of its final refusal, which `jets.answer` raises."""
    try:
        out = jets.answer(function, inputs, consts)
    except jets.JetDomainError as exc:
        return type(exc), str(exc)
    return "refused" if out is None else _reprs(out)


def _step_loop_outcome(steps, outputs, inputs, final: bool = True):
    """The outputs of the step loop by repr, or "refused" where a step raises or
    a value is not finite, as the `Jet` formula checks each (a pair, both halves);
    a branch sign of 0.0, degenerate, ends the program, whose output it is.  A
    refused divisor or square root of a recorded function's step (`final`),
    where the refused operand is finite too, is the class and message of its
    error, which the formula raises, every value before it being finite."""
    values = dict(enumerate(inputs))
    try:
        for node, fn, x, y in steps:
            values[node] = fn(values, x, y)
            if not _finite(values[node]):
                return "refused"
            if fn is program._f_branch and values[node] == 0.0:
                return _reprs([0.0])
    except jets.JetDomainError as exc:  # a refusal: the divisor, a tanh's cosh, a square root's
        operand = (values[y] if fn is expr._k_div else values[x][1] if fn is expr._k_tanh
                   else values[x])
        return (type(exc), str(exc)) if final and _finite(operand) else "refused"
    except jets.DOMAIN_ERRORS:
        return "refused"
    return _reprs(values[node] for node in outputs)


@pytest.mark.parametrize("case", ["signed zeros", "1e300 constant terms", "1e300 in the middle",
                                  "nan constant term", "refused", "a cos overflows"])
@pytest.mark.parametrize("width", [5, 17, 23, 64])
def test_wide_generated_steps_are_the_step_loop(width, case):
    # above 4 coefficients each step is one statement on whole lists, and
    # finiteness is tested once, on the outputs and on what d/ds and truncation
    # drop; each step kind must give the step loop's bits, or no answer where
    # a step refuses or a value is not finite; a product calls a kernel bound
    # to its operands' degrees, a given list's its width's.  Mutations: no test of the
    # dropped coefficients ("d" and "truncate" answer on an overflow), of
    # both halves of a pair ("sin" answers where cos overflows at width 5),
    # of a divisor's refusal ("div" answers on 1e-14 at width 5); a term
    # inside a bound left out, or the right operand's degree one too low
    # ("times s" and "s^2 times s^3" differ in their bits, and with the
    # term left out "s overflowed times s" answers at s = -0.0); no test of
    # the outputs of a program that reads s alone (the two kinds that are
    # not finite answer); a product of given lists left to `jets.mul_coeffs`,
    # the unbound `mul`
    inputs = _step_inputs(width, case)
    for kind, (steps, outputs) in _STEP_KINDS.items():
        read, function, consts = _inline_steps(steps, outputs, width)
        products = sum(fn is expr._k_mul for _, fn, _, _ in steps)
        kernels = [name for name in function.__code__.co_names if name.startswith("mul")]
        assert "mul" not in kernels and (products > 0) == bool(kernels), kind
        generated = _generated_outcome(function, _given(inputs, read), consts)
        expected = _step_loop_outcome(steps, outputs, inputs)
        assert generated == expected, (kind, case)
        # no answer: "refused", or a final refusal's error
        assert (not isinstance(expected, list)) == (kind in _REFUSED[case]), (kind, case)


@pytest.mark.parametrize("width", [5, 17])
def test_a_wide_value_that_only_a_lift_reads_is_tested(width):
    # a lift keeps nothing of its operand, so a product that only a lift
    # reads is tested, as the step loop checks each value; mutation: a lift
    # that counts as keeping its operand (the cases where the product
    # overflows answer)
    steps, outputs = _NARROW_KINDS["a lift of a product"]
    read, function, consts = _inline_steps(steps, outputs, width)
    for case in _REFUSED:
        inputs = _step_inputs(width, case)
        assert (_generated_outcome(function, _given(inputs, read), consts)
                == _step_loop_outcome(steps, outputs, inputs)), case


# the kinds that refuse, in each case; where a constant term overflows, d/ds
# drops it, and where the middle does, the truncation drops it
# (1e300 constant terms are a degenerate branch, which ends the program, and
# a nan one the de Sitter branch, where node 2 alone is flipped)
_REFUSED = {case: kinds | _NOT_FINITE_FROM_S for case, kinds in {
    "signed zeros": set(),
    "1e300 constant terms": {"mul", "d", "truncate", "tanh", "branch sign of a product"},
    "1e300 in the middle": {"mul", "div", "sqrt", "d", "truncate", "sin of a sin/cos pair", "tanh",
                            "branch sign of a product"},
    "nan constant term": set(_STEP_KINDS) - {"lift", "s^2 times", "a lift of -0.0 times",
                                             "branch sign", "flip by the branch sign",
                                             "flip to the upper sheet", *_FROM_S},
    "refused": {"div", "sqrt"},
    "a cos overflows": {"sqrt", "sin of a sin/cos pair", "tanh"},
}.items()}


# the refusals: a divisor after a product, which can overflow, and a tape
# step's divisor in a read (`_READS`), whose quotient the read truncates to
# degree 1
_REFUSAL_KINDS = {
    "a divisor after a product": ([(3, expr._k_mul, 1, 1), (4, expr._k_div, 2, 2)], (3, 4)),
    "a tape step's divisor, truncated": ([(3, expr._k_div, 1, 2), (4, _k_trunc, 3, 1)], (4,)),
}
_READS = {"a tape step's divisor, truncated"}  # the others are recorded functions
# the step kinds, two whose first step's value only a lift or a coefficient
# read takes, and the refusals
_NARROW_KINDS = {
    **_STEP_KINDS,
    "a lift of a product": ([(3, expr._k_mul, 1, 2), (4, expr._k_lift, 3, 0.5),
                             (5, expr._k_add, 4, 2)], (5,)),
    "coefficient 1 of a product": ([(3, expr._k_mul, 1, 2), (4, program._k_coeff, 3, 1)], (4,)),
    **_REFUSAL_KINDS,
}
_REFUSING = sorted(["div", "sqrt", "tanh", *_REFUSAL_KINDS])
_COEFFS = st.floats() | st.sampled_from([0.0, -0.0, 1e-14, 1e154, -1e200, 1e300, 1.5e308])
_OVERFLOW_AT_0 = [1e300, 0.0, 0.0, 0.0], [1e10, 0.0, 0.0, 0.0]  # the product's c_0 alone


# (kind, a, b) of the sign steps, each list padded with zeros to any width
_SIGN_EXAMPLES = [
    # degenerate: m^2 = ell^2, and after a product that overflows, found there
    ("branch sign of a product", [1.0, 2.0, 0.0], [1.0, -1.0, 0.5]),
    ("branch sign of a product", [1.0, 0.0, 0.0, 1.5e308], [1.0, 0.0, 0.0, 1.5e308]),
    ("flip by the branch sign", [0.0], [-0.0]),  # d2 = 0.0
    ("branch sign", [-0.0], [0.0]),  # d2 = -0.0
    ("flip by the branch sign", [math.nan], [1.0, -0.0, 0.0, 2.0]),  # the de Sitter branch
    ("flip by the branch sign", [1.0], [math.nan]),
    ("flip to the upper sheet", [1.0], [-0.5, -0.0, 0.0, 3.0]),  # an H2 point whose x1 < 0
]


# (kind, a, b) of refusals, each list padded with zeros to any width of 4 or more
_REFUSAL_EXAMPLES = [
    ("div", [1.0, 0.5], [1.0, 0.0, 0.0, 1e14]),  # 1 + 1e14 s^3 (_REFUSED_AT_3): final
    ("sqrt", [-0.0, 1.0], [0.0]),  # final, its message naming -0.0
    ("a divisor after a product", [1e200], [1e-14, 1.0]),  # after an overflow: plain
    ("div", [1.0], [math.nan, 1.0]),  # a nan divisor: plain
    # refused at degree 3, where the tape steps run, not at 1, where the formula reads
    ("a tape step's divisor, truncated", [1.0, 0.5], [1.0, 0.0, 0.0, 1e14]),
]


def _examples(cases, width: int, s: bool):
    """The (kind, a, b) `cases` as `example`s at `width`, with s = 0.5 if `s`."""
    def examples(test):
        for kind, a, b in cases:
            a, b = (c + [0.0] * (width - len(c)) for c in (a, b))
            test = example(kind, width, *([0.5] if s else []), a, b)(test)
        return test
    return examples


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_NARROW_KINDS)), st.integers(min_value=2, max_value=4), st.floats(),
       st.lists(_COEFFS, min_size=4, max_size=4), st.lists(_COEFFS, min_size=4, max_size=4))
@_examples(_SIGN_EXAMPLES, 4, s=True)
@_examples(_REFUSAL_EXAMPLES, 4, s=True)
# the only coefficient that is not finite is one that a step drops
@example("truncate", 4, 0.5, [1.0, 0.0, 0.0, 1e300], [1e10, 0.0, 0.0, 0.0])  # c_3
@example("d", 4, 0.5, *_OVERFLOW_AT_0)
@example("coefficient 1 of a product", 4, 0.5, *_OVERFLOW_AT_0)
@example("a lift of a product", 3, 0.5, *_OVERFLOW_AT_0)
# a pair whose cos half alone overflows, read by its sin half
@example("sin of a sin/cos pair", 3, 0.5, [0.0, 1e200, 0.0, 0.0], [0.0] * 4)
@example("s overflowed times s", 2, 0.5, [0.0] * 4, [0.0] * 4)
@example("div", 3, 0.5, [1.0] * 4, [1e-14, 1.0, 0.0, 0.0])  # a vanishing divisor
def test_narrow_generated_steps_are_the_step_loop(kind, width, s, a, b):
    # up to 4 coefficients a value, each step kind's generated function
    # answers iff every value the step loop computes is finite, and then with
    # the loop's bits, whatever the coefficients of the given lists; s's jet
    # is made from the float s by a `_k_var` step.  It tests only what no
    # later step keeps, if not finite, in a value it computes.  A recorded
    # step's refusal is final, the error the step loop raises, iff every
    # value before it and the refused operand are finite
    steps, outputs = _NARROW_KINDS[kind]
    final = kind not in _READS
    inputs = [s, 1.0] + [0.0] * (width - 2), a[:width], b[:width]
    read, function, consts = _inline_steps(steps, outputs, width, final)
    assert (_generated_outcome(function, _given(inputs, read), consts)
            == _step_loop_outcome(steps, outputs, inputs, final))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SIGN_KINDS), st.integers(min_value=5, max_value=23),
       st.lists(_COEFFS, min_size=23, max_size=23), st.lists(_COEFFS, min_size=23, max_size=23))
@_examples(_SIGN_EXAMPLES, 17, s=False)
def test_wide_generated_sign_steps_are_the_step_loop(kind, width, a, b):
    # as the narrow test, on coefficient lists: the branch sign ends the
    # program where it is degenerate, answering its 0.0 where every value
    # before it is finite (mutation: a degenerate end that tests nothing
    # answers on the product that overflows); a flip keeps each zero's sign
    # flipped (mutation: p*sign + 0.0, on the upper-sheet example)
    steps, outputs = _STEP_KINDS[kind]
    inputs = [0.5, 1.0] + [0.0] * (width - 2), a[:width], b[:width]
    read, function, consts = _inline_steps(steps, outputs, width)
    assert (_generated_outcome(function, _given(inputs, read), consts)
            == _step_loop_outcome(steps, outputs, inputs))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_REFUSING), st.integers(min_value=5, max_value=23),
       st.lists(_COEFFS, min_size=23, max_size=23), st.lists(_COEFFS, min_size=23, max_size=23))
@_examples(_REFUSAL_EXAMPLES, 17, s=False)
def test_wide_generated_refusals_are_the_step_loop(kind, width, a, b):
    # as the narrow test, on coefficient lists: a recorded step's refusal is
    # final, the error the step loop raises, iff every value before it and
    # the refused operand are finite, and plain, no answer, where one is not
    # or the step is a read's tape step.  Mutations: a final refusal
    # without the finiteness test (a divisor after an overflow), or for a
    # tape step
    steps, outputs = _NARROW_KINDS[kind]
    final = kind not in _READS
    inputs = [0.5, 1.0] + [0.0] * (width - 2), a[:width], b[:width]
    read, function, consts = _inline_steps(steps, outputs, width, final)
    assert (_generated_outcome(function, _given(inputs, read), consts)
            == _step_loop_outcome(steps, outputs, inputs, final))


@pytest.mark.parametrize("floats", [False, True])
@pytest.mark.parametrize("name", ["astroid", "circle", "cusp23", "cusp37"])
def test_tape_programs_are_generated_up_to_4_coefficients(name, floats):
    # each group of a shipped curve reads through its generated read
    # (`program.tape_read`), which answers with the step loop's bits: floats
    # and jets of up to 4 coefficients on local names, wider jets on lists,
    # order 0 truncated from degree 1
    curve = load_curve(CURVES / f"{name}.json")
    tapes = _tapes((curve.components, curve.dual_components))
    tape = tapes[not floats]
    for order in (None,) if floats else (0, 1, 2, 3, 4, 17, 22):
        for group in (0, 1):
            read, _ = program.tape_read(tapes, tuple((group, order, i) for i in range(3)))
            out = read(0.3, None)
            assert out is not None
            loop = _TapePoint(tape, 0.3, 0 if floats else max(order, 1)).outputs(group)
            if order == 0:
                loop = [c[:1] for c in loop]
            assert list(map(repr, out)) == list(map(repr, loop))


# astroid's r, sqrt(1 + cos(s)^6 + sin(s)^6), cos(s)^3, sin(s)^3, read at
# degree 17: later steps keep each lift's operand and each half of the pair
# of s, so the read tests its outputs alone
_ASTROID_READ_17 = [
    "x0, = i",
    "k0, = k",
    "x1 = [x0, 1.0] + [0.0] * 16",
    "x2 = sin_cos17(x1)",
    "x3 = x2[1]",
    "x4 = [k0] + [0.0] * 17",
    "x5 = mul17_17_17(x3, x3)",
    "x6 = mul17_0_17(x4, x5)",
    "x7 = mul17_17_17(x5, x5)",
    "x8 = mul17_17_17(x6, x7)",
    "x9 = [k0] + [0.0] * 17",
    "x10 = [p + q for p, q in zip(x9, x8)]",
    "x11 = x2[0]",
    "x12 = [k0] + [0.0] * 17",
    "x13 = mul17_17_17(x11, x11)",
    "x14 = mul17_0_17(x12, x13)",
    "x15 = mul17_17_17(x13, x13)",
    "x16 = mul17_17_17(x14, x15)",
    "x17 = [p + q for p, q in zip(x10, x16)]",
    "if not x17[0] > 0.0: return None",
    "x18 = sqrt17(x17)",
    "x19 = mul17_0_17(x4, x3)",
    "x20 = mul17_17_17(x19, x5)",
    "x21 = mul17_0_17(x12, x11)",
    "x22 = mul17_17_17(x21, x13)",
    "if not isfinite(sum(x18, 0.0) + sum(x20, 0.0) + sum(x22, 0.0)) and not all(isfinite(c) "
    "for v in (x18, x20, x22, ) for c in v): return None",
    "return (x18, x20, x22, )",
]


def test_a_wide_read_tests_only_what_no_step_carries(monkeypatch):
    # wide code tests what no later step keeps, if not finite, in a value it
    # computes, as narrow code does, and gives the step loop's bits; mutation:
    # both halves of each pair and each lift's operand tested as well
    programs = []
    compile_lines = jets.compile_lines

    def compiled(name, params, lines, bound=None):
        if name == "_program":
            programs.append(lines)
        return compile_lines(name, params, lines, bound)

    monkeypatch.setattr(jets, "compile_lines", compiled)
    monkeypatch.setattr(program, "_inline_function", program._inline_function.__wrapped__)
    curve = load_curve(CURVES / "astroid.json")
    tapes = _tapes((curve.components, curve.dual_components))
    read, bounds = program.tape_read(tapes, tuple((0, 17, i) for i in range(3)))
    assert programs == [_ASTROID_READ_17] and bounds == (17, 17, 17)
    loop = _TapePoint(tapes[1], 0.3, 17).outputs(0)
    assert list(map(repr, read(0.3, None))) == list(map(repr, loop))


_Q = "1.5,1,0.5"


def _generated_sources(tmp) -> list:
    """The sorted sha256 digests of every program (`_program`) and auto-dual
    read (`_read`) source that a matrix of commands compiles from empty
    caches: on the shipped curves and their copies without "v", the derived
    curves at Q, the evolute and the curvatures, and classify at orders 22
    and 40 on cusp23 and circle."""
    argv = []
    for name in ("astroid", "circle", "cusp23", "cusp37"):
        doc = json.loads((CURVES / f"{name}.json").read_text())
        del doc["v"]
        copy = tmp / f"{name}.json"
        copy.write_text(json.dumps(doc))
        for path in (str(CURVES / f"{name}.json"), str(copy)):
            curve = ["--curve", path, "--samples", "40", "--out", str(tmp / "out")]
            argv += [[kind, *curve, "--point", _Q] for kind in ("pedal", "orthotomic", "caustic")]
            argv += [["evolute", *curve], ["curvatures", *curve]]
        if name in ("circle", "cusp23"):
            argv += [["classify", "--curve", str(CURVES / f"{name}.json"), "--point", _Q,
                      "--s0", "0.3", "--order", order, "--out", str(tmp / "out")]
                     for order in ("22", "40")]
    for cache in (program._inline_function, recording._record_on_pair, recording._recorded,
                  recording._det_program, recording.auto_dual_program):
        cache.cache_clear()
    digests = set()
    compile_lines = jets.compile_lines

    def compiled(name, params, lines, bound=None):
        if name in ("_program", "_read"):
            source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
            digests.add(hashlib.sha256(source.encode()).hexdigest())
        return compile_lines(name, params, lines, bound)

    with mock.patch.object(expr, "_TAPES", {}), mock.patch.object(jets, "compile_lines", compiled):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for args in argv:
                main(args)
    return sorted(digests)


def test_every_generated_source_is_pinned(tmp_path):
    # each source the generator writes for the commands is byte-identical to
    # the one pinned in `generated_sources.json`; a change to the generator
    # that moves any of them regenerates the fixture (run this file)
    expected = json.loads((FIXTURES / "generated_sources.json").read_text())
    got = _generated_sources(tmp_path)
    added, removed = set(got) - set(expected), set(expected) - set(got)
    assert not (added or removed), f"{len(added)} sources added, {len(removed)} removed"


def test_each_generated_function_is_analysed_once(tmp_path, monkeypatch):
    # a read of the tapes states the bounds of the analysis that its function
    # is written from, so a cold run makes one analysis a generated function;
    # mutation: `_tape_read` analysing the read's steps again for its bounds
    analyses = [0]
    analysis = program._analysis

    def counted(*args):
        analyses[0] += 1
        return analysis(*args)

    doc = json.loads((CURVES / "astroid.json").read_text())
    del doc["v"]
    copy = tmp_path / "astroid.json"
    copy.write_text(json.dumps(doc))
    monkeypatch.setattr(program, "_analysis", counted)
    monkeypatch.setattr(expr, "_TAPES", {})
    program._inline_function.cache_clear()
    out = ["--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for path in (str(CURVES / "astroid.json"), str(copy)):
            for kind in ("pedal", "caustic"):
                main([kind, "--curve", path, "--point", _Q, "--samples", "20", *out])
        main(["classify", "--curve", str(CURVES / "cusp23.json"), "--point", _Q, "--s0", "0.3",
              *out])
    assert 0 < analyses[0] == program._inline_function.cache_info().misses


_REFUSED_AT_3 = "1/(1 + 100000000000000*s^3)"  # at s0 = 0: refused at order 3, not at 2


def _memo_curve():
    """A curve whose v is refused at order 3 and s0 = 0, not at 2, and whose r
    mixes floats and jets that differ in their bits (see `_CALL_S`)."""
    return ParametricCurve(
        "memo", (parse("sin(cosh(s^4))"), parse("s^3"), parse("s")), (-2.0, 2.0),
        dual_components=(parse(_REFUSED_AT_3), parse("sqrt(1 + s^2)"), parse("-0.0")))


def _walked_point(trees, method, s, order):
    """What a curve method gives when each tree is walked on its own."""
    if method.endswith("_jet"):
        return MVec3(*[_walked(t, s, order) for t in trees])
    return MVec3(*[_eval(t, float(s)) for t in trees])


def _check_calls(curve, calls):
    for method, s, order in calls:
        dual = method.startswith("dual")
        trees = curve.dual_components if dual else curve.components
        args = (s, order) if method.endswith("_jet") else (s,)
        assert _value_outcome(lambda: getattr(curve, method)(*args)) == \
            _value_outcome(lambda: _walked_point(trees, method, s, order)), (method, s, order)


_METHODS = ("point", "dual_point", "point_jet", "dual_jet")
# 1.794343875995657: the float and the jet's constant coefficient of
# sin(cosh(s^4)) differ there, so no float may come from a jet
_CALL_S = (0.0, -0.0, 0.7, 1.794343875995657, -2.0)


@pytest.mark.parametrize("name", ["astroid", "circle", "cusp23", "cusp37", "memo"])
def test_interleaved_curve_calls_match_tree_walk(name):
    curve = _memo_curve() if name == "memo" else load_curve(CURVES / f"{name}.json")
    rng = random.Random(name)
    s_values = _CALL_S + tuple(curve.grid(7))
    calls = [(rng.choice(_METHODS), rng.choice(s_values), rng.choice((0, 1, 2, 3, 5, 17, 23)))
             for _ in range(300)]
    _check_calls(curve, calls)


@settings(max_examples=150, deadline=None)
@given(st.lists(_exprs(jet_ops=True, abs_calls=True), min_size=6, max_size=6),
       st.lists(st.tuples(st.sampled_from(_METHODS), st.sampled_from(_CALL_S),
                          st.sampled_from([0, 1, 2, 3, 5, 17, 23])), max_size=16))
def test_random_curve_calls_match_tree_walk(trees, calls):
    curve = ParametricCurve("random", tuple(trees[:3]), (-2.0, 2.0),
                            dual_components=tuple(trees[3:]))
    _check_calls(curve, calls)


def test_lower_orders_are_served_only_where_their_group_ran(monkeypatch):
    # each read runs its group at its own degree through the generated
    # function, so a refusal at a higher order leaves the lower orders as a
    # fresh evaluation gives them, and only a read the function refuses
    # builds a point, whose step loop raises; mutation: a point per read
    made = []
    init = _TapePoint.__init__

    def spied(self, tape, base, degree):
        made.append((base, degree))
        init(self, tape, base, degree)

    monkeypatch.setattr(_TapePoint, "__init__", spied)
    curve = _memo_curve()
    fresh = [_value_outcome(lambda: eval_jet(t, 0.0, 2)) for t in curve.dual_components]
    orders = (3, 2, 1, 0)
    fresh_r = [[_value_outcome(lambda: eval_jet(t, 0.5, order)) for t in curve.components]
               for order in orders]
    made.clear()
    with pytest.raises(ValueError, match="vanishing germ"):
        curve.dual_jet(0.0, 3)
    assert made == [(0.0, 3)]
    curve.point_jet(0.0, 3)
    got = curve.dual_jet(0.0, 2)
    assert [_value_outcome(lambda: j) for j in got.components()] == fresh
    got = [curve.point_jet(0.5, order) for order in orders]
    assert [[_value_outcome(lambda: j) for j in g.components()] for g in got] == fresh_r
    assert made == [(0.0, 3)]


def test_a_group_without_steps_is_read_without_the_step_loop(monkeypatch, fresh_tapes):
    # a geodesic's v = (0, 0, 1) has no float step, and still reads through
    # a generated read (`program.tape_read`), so dual_point and dual_jet
    # answer without a point of the step loop, with its bits; mutation: no
    # read of a group whose program is empty
    curve = ParametricCurve("geodesic", (parse("cosh(s)"), parse("sinh(s)"), parse("0")),
                            (-1.0, 1.0), dual_components=(parse("0"), parse("0"), parse("1")))
    float_tape, jet_tape, _ = curve._tape_set()
    assert not float_tape.programs[1]
    calls = [(s, k) for s in (-1.0, -0.3, 0.0, -0.0, 0.5, 1.0) for k in (None, 0, 1, 2, 3)]
    loop = []
    for s, k in calls:
        if k is None:
            loop.append(list(map(repr, _TapePoint(float_tape, s, 0).outputs(1))))
        else:
            values = _TapePoint(jet_tape, s, max(k, 1)).outputs(1)
            loop.append([(repr(s), repr(tuple(c[:k + 1]))) for c in values])
    made = []
    init = _TapePoint.__init__

    def spied(self, tape, base, degree):
        made.append((base, degree))
        init(self, tape, base, degree)

    monkeypatch.setattr(_TapePoint, "__init__", spied)
    got = []
    for s, k in calls:
        if k is None:
            got.append(list(map(repr, curve.dual_point(s).components())))
        else:
            got.append([(repr(j.base), repr(j.coeffs)) for j in curve.dual_jet(s, k).components()])
    assert made == []
    assert got == loop


@pytest.mark.parametrize("name", ["astroid", "cusp37"])
def test_tape_values_are_the_jets_coefficients_from_the_same_point(name):
    # the coefficient lists and floats that `frontal.AutoDual` reads are those
    # of point_jet, dual_jet and dual_point at the same s, bit for bit, the
    # sign of a zero s included
    curve = load_curve(CURVES / f"{name}.json")
    for s in (0.3, 0.0, -0.0, -1.25):
        for order in (3, 2, 1, 0, 17):
            for group, jet in ((0, curve.point_jet), (1, curve.dual_jet)):
                values = curve._tape_values(group, s, order)
                components = jet(s, order).components()
                assert [[repr(c) for c in coeffs] for coeffs in values] == \
                    [[repr(c) for c in j.coeffs] for j in components]
                assert all(repr(j.base) == repr(float(s)) for j in components)
        values = curve._tape_values(1, s)
        assert [repr(c) for c in values] == [repr(c) for c in curve.dual_point(s).components()]


@settings(max_examples=300, deadline=None)
@given(_exprs(jet_ops=True),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False) | st.sampled_from([0.0, -0.0]),
       st.sampled_from([0, 1, 2, 3, 17]), st.integers(min_value=1, max_value=6))
def test_lower_order_jet_is_the_truncated_higher_one(e, s0, order, step):
    # what the reads' truncations of a jet read at a higher degree
    # (`program._k_trunc`) rest on
    try:
        high = eval_jet(e, s0, order + step)
    except Exception:
        assume(False)
        return
    assert _outcome(lambda: eval_jet(e, s0, order)) == _outcome(lambda: high.truncate(order))


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


if __name__ == "__main__":
    # regenerates tests/fixtures/generated_sources.json after an intended change
    # to the generated code
    with tempfile.TemporaryDirectory() as tmp:
        digests = _generated_sources(Path(tmp))
    (FIXTURES / "generated_sources.json").write_text(json.dumps(digests, indent=1) + "\n")
