from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypedal import decide, jets
from hypedal.jets import Jet, JetDomainError, compose, derivative, vanishing_order


def jet(coeffs, base=0.0):
    return Jet(base, tuple(float(c) for c in coeffs))


# -- arithmetic ----------------------------------------------------------


def test_product_truncates():
    a = jet([1, 1, 0, 0])   # 1 + s
    b = jet([1, -1, 0, 0])  # 1 - s
    assert (a * b).coeffs == (1.0, 0.0, -1.0, 0.0)


def test_division_identity():
    a = jet([1, 1, 0, 0])
    assert (a / a).coeffs == (1.0, 0.0, 0.0, 0.0)


def test_truncation_swallows_high_powers():
    s2 = jet([0, 0, 1, 0, 0])
    s3 = jet([0, 0, 0, 1, 0])
    assert (s2 * s3).coeffs == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_division_by_vanishing_germ():
    num = jet([1, 0, 0])
    den = jet([0, 1, 0])
    with pytest.raises(JetDomainError, match="vanishing germ"):
        num / den


def test_base_and_order_mismatch():
    with pytest.raises(ValueError, match="base mismatch"):
        jet([1, 2], base=0.0) + jet([1, 2], base=1.0)
    with pytest.raises(ValueError, match="order mismatch"):
        jet([1, 2]) + jet([1, 2, 3])


def test_scalar_lifting():
    a = jet([2, 1, 0])
    assert (1 + a).coeffs == (3.0, 1.0, 0.0)
    assert (1 - a).coeffs == (-1.0, -1.0, 0.0)
    assert (2 * a).coeffs == (4.0, 2.0, 0.0)
    assert (1 / jet([2, 0, 0])).coeffs == (0.5, 0.0, 0.0)


def test_integer_power():
    s = Jet.variable(0.0, 6) + 1.0  # 1 + s
    assert (s ** 3).coeffs[:4] == (1.0, 3.0, 3.0, 1.0)
    inv = jet([2, 1, 0]) ** -1
    assert abs(inv.coeffs[0] - 0.5) < 1e-15
    with pytest.raises(TypeError):
        s ** 1.5


# -- elementary functions --------------------------------------------------


def test_sqrt_binomial_series():
    a = jet([1, 1, 0])
    assert max(abs(x - y) for x, y in zip(a.sqrt().coeffs, (1.0, 0.5, -0.125))) < 1e-15


def test_sin_maclaurin():
    s = Jet.variable(0.0, 3)
    got = s.sin().coeffs
    want = (0.0, 1.0, 0.0, -1.0 / 6.0)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-15


def test_cosh_maclaurin():
    s = Jet.variable(0.0, 4)
    got = s.cosh().coeffs
    want = (1.0, 0.0, 0.5, 0.0, 1.0 / 24.0)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-15


def test_sqrt_domain_error_names_function_and_term():
    with pytest.raises(JetDomainError, match=r"sqrt.*-0\.5"):
        jet([-0.5, 1, 0]).sqrt()


def test_sqrt_squared_recovers_argument():
    rng = random.Random(17)
    for _ in range(50):
        order = rng.randint(1, 8)
        coeffs = [rng.uniform(0.25, 2.0)] + [rng.uniform(-1, 1) for _ in range(order)]
        a = jet(coeffs)
        b = a.sqrt()
        sq = b * b
        assert max(abs(x - y) for x, y in zip(sq.coeffs, a.coeffs)) < 1e-10


def test_trig_pythagoras():
    rng = random.Random(19)
    for _ in range(30):
        a = jet([rng.uniform(-2, 2) for _ in range(6)])
        s, c = a.sin(), a.cos()
        one = s * s + c * c
        assert abs(one.coeffs[0] - 1.0) < 1e-12
        assert max(abs(x) for x in one.coeffs[1:]) < 1e-12
        sh, ch = a.sinh(), a.cosh()
        one = ch * ch - sh * sh
        assert abs(one.coeffs[0] - 1.0) < 1e-10
        assert max(abs(x) for x in one.coeffs[1:]) < 1e-10


def test_tanh_asinh_consistency():
    a = jet([0.4, 1.0, -0.3, 0.2, 0.0, 0.1])
    t = a.tanh()
    assert abs(t.coeffs[0] - math.tanh(0.4)) < 1e-15
    back = t.asinh()
    assert abs(back.coeffs[0] - math.asinh(math.tanh(0.4))) < 1e-15
    # d/ds asinh(a) = a' / sqrt(1+a^2)
    y = a.asinh()
    lhs = y.d_ds()
    rhs = a.d_ds() / (1.0 + a * a).sqrt().truncate(a.order - 1)
    assert max(abs(x - z) for x, z in zip(lhs.coeffs, rhs.coeffs)) < 1e-12


# -- polynomial oracle -----------------------------------------------------


def _poly_mul(p, q, order):
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j <= order:
                out[i + j] += a * b
    return out


def test_arithmetic_matches_exact_polynomial_algebra():
    rng = random.Random(101)
    for _ in range(200):
        order = rng.randint(1, 8)
        p = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(order + 1)]
        q = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(order + 1)]
        a = jet([float(c) for c in p])
        b = jet([float(c) for c in q])
        add = [x + y for x, y in zip(p, q)]
        sub = [x - y for x, y in zip(p, q)]
        mul = _poly_mul(p, q, order)
        for got, want in (((a + b).coeffs, add), ((a - b).coeffs, sub), ((a * b).coeffs, mul)):
            assert max(abs(g - float(w)) for g, w in zip(got, want)) < 1e-12
        if q[0] != 0:
            exact = []
            for n in range(order + 1):
                acc = p[n]
                for k in range(n):
                    acc -= exact[k] * q[n - k]
                exact.append(acc / q[0])
            got = (a / b).coeffs
            scale = max(1.0, max(abs(float(w)) for w in exact))
            assert max(abs(g - float(w)) for g, w in zip(got, exact)) < 1e-12 * scale


# -- derivative extraction ---------------------------------------------------


def test_derivative_values():
    a = jet([0, 0, 3])
    assert derivative(a, 2) == 6.0
    assert derivative(a, 0) == 0.0
    assert derivative(jet([7, 1]), 0) == 7.0


def test_derivative_beyond_truncation():
    with pytest.raises(ValueError, match="exceeds truncation"):
        derivative(jet([1, 2]), 2)


def test_vanishing_order():
    assert vanishing_order(jet([0, 0, 1, 0])) == 2
    assert vanishing_order(jet([5])) == 0
    assert vanishing_order(jet([0, 0, 0])) is None
    # rounding residue of an exact zero is not a structural coefficient
    assert vanishing_order(jet([1e-16, 2.0, 1.0])) == 1


def test_finite_difference_agreement():
    def f(x):
        return math.sin(x) * math.cosh(0.5 * x) + x ** 3

    def jf(order, x0):
        s = Jet.variable(x0, order)
        return s.sin() * (0.5 * s).cosh() + s ** 3

    for x0 in (0.0, 0.7, -1.3):
        a = jf(4, x0)
        h = 1e-5
        d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
        d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
        assert abs(derivative(a, 1) - d1) < 1e-5 * max(1.0, abs(d1))
        assert abs(derivative(a, 2) - d2) < 1e-5 * max(1.0, abs(d2))


def test_compose():
    # sin(u) with u = s^2 + s at s0 = 0.3, via composition vs direct evaluation
    u = Jet.variable(0.3, 6)
    u = u * u + u
    outer = Jet.variable(u.coeffs[0], 6).sin()
    via_compose = compose(outer, u)
    direct = (Jet.variable(0.3, 6) ** 2 + Jet.variable(0.3, 6)).sin()
    assert max(abs(a - b) for a, b in zip(via_compose.coeffs, direct.coeffs)) < 1e-12


def test_eval_at_offset():
    a = jet([1, 2, 3])
    assert abs(a.eval_at_offset(0.5) - (1 + 2 * 0.5 + 3 * 0.25)) < 1e-15


def test_constant_part():
    assert jets.constant_part(jet([4.0, 1.0])) == 4.0
    assert jets.constant_part(2.5) == 2.5


# -- kernels: bit-identical to the generic recurrences ------------------------------
#
# The loops that hypedal.jets ran before its straight-line kernels, refusals
# included; each kernel must return their floats, or raise what they raise.


def _reference_mul(a, b):
    """The generic truncated Cauchy product: `a` drives, its zeros skipped."""
    n = len(a) - 1
    out = [0.0] * (n + 1)
    for i in range(n + 1):
        if a[i] == 0.0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _reference_div(a, b):
    scale = max(abs(c) for c in b)
    if scale == 0.0 or abs(b[0]) <= decide.DIV_REL_TOL * scale:
        raise JetDomainError("jet division by vanishing germ")
    n = len(a) - 1
    q = [0.0] * (n + 1)
    for i in range(n + 1):
        acc = a[i]
        for k in range(i):
            acc -= q[k] * b[i - k]
        q[i] = acc / b[0]
    return q


def _reference_sqrt(a):
    if a[0] <= 0.0:
        raise JetDomainError(f"jet domain error: sqrt requires a positive constant term, got {a[0]!r}")
    n = len(a) - 1
    y = [0.0] * (n + 1)
    y[0] = math.sqrt(a[0])
    for i in range(1, n + 1):
        acc = a[i]
        for k in range(1, i):
            acc -= y[k] * y[i - k]
        y[i] = acc / (2.0 * y[0])
    return y


def _reference_pair(a, sin, cos, negate):
    """(sin a, cos a) with negate, (sinh a, cosh a) without."""
    n = len(a) - 1
    s = [0.0] * (n + 1)
    c = [0.0] * (n + 1)
    s[0] = sin(a[0])
    c[0] = cos(a[0])
    for i in range(1, n + 1):
        acc_s = 0.0
        acc_c = 0.0
        for k in range(1, i + 1):
            ka = k * a[k]
            acc_s += ka * c[i - k]
            acc_c += ka * s[i - k]
        s[i] = acc_s / i
        c[i] = -acc_c / i if negate else acc_c / i
    return s, c


def _outcome(fn):
    """repr of every coefficient of fn(), or of each half of a pair, or the exception it raises."""
    try:
        result = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    out = []
    for part in result if isinstance(result, tuple) else (result,):
        coeffs = part.coeffs if isinstance(part, Jet) else part
        assert all(type(c) is float for c in coeffs)
        out.append([repr(c) for c in coeffs])
    return out


# signed zeros, a subnormal and values whose products overflow to inf
_SPECIAL = [0.0, -0.0, 1e-320, -1e-320, 3e300, -3e300, 1.0, -2.5]
_coeff = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False))
_zero = st.sampled_from([0.0, -0.0])
# orders 0-4, the orders classify runs at and one past them, and MAX_ORDER
_LENGTHS = [1, 2, 3, 4, 5, 17, 18, 22, 23, 24, jets.MAX_ORDER + 1]


@st.composite
def _operand(draw, n):
    """n + 1 coefficients of any degree d from -1 to n: signed zeros after
    position d, a non-zero at d, and zeros among the others before it."""
    d = draw(st.integers(-1, n))
    head = draw(st.lists(st.one_of(_coeff, _zero), min_size=max(d, 0), max_size=max(d, 0)))
    last = [draw(_coeff.filter(bool))] if d >= 0 else []
    return head + last + draw(st.lists(_zero, min_size=n - d, max_size=n - d))


@st.composite
def _coeff_pairs(draw):
    n = draw(st.sampled_from(_LENGTHS)) - 1
    return draw(_operand(n)), draw(st.lists(_coeff, min_size=n + 1, max_size=n + 1))


_operands = st.sampled_from(_LENGTHS).flatmap(lambda length: _operand(length - 1))


@settings(max_examples=500, deadline=None)
@given(_coeff_pairs())
@example(([-0.0], [1.0]))
@example(([3e300], [3e300]))
@example(([3e300, -3e300], [3e300, 3e300]))  # inf - inf
@example(([1.0, 0.0, 3e300], [3e300, 1.0, 1.0]))
@example(([1.0, -0.0, 0.0, 3e300], [3e300, 1.0, 1.0, -2.5]))
@example(([-0.0, -0.0], [1.0, 1.0]))
@example(([-0.0, -0.0, -0.0], [1.0, 1.0, 1.0]))
@example(([-0.0, -0.0, -0.0, -0.0], [1.0, 1.0, 1.0, 1.0]))
@example(([-0.0, 1.0, -0.0, -0.0, -0.0], [1.0, -0.0, -0.0, -0.0, -0.0]))
@example(([1.0, 2.0, -0.0, 0.0, -0.0], [1.0, 1.0, 1.0, 1.0, 1.0]))
def test_product_kernel_matches_reference_loop(pair):
    a, b = pair
    assert _outcome(lambda: jets.mul_coeffs(a, b)) == _outcome(lambda: _reference_mul(a, b))
    assert (_outcome(lambda: jet(a) * jet(b))
            == _outcome(lambda: jet(jets.require_finite(_reference_mul(a, b)))))


@settings(max_examples=300, deadline=None)
@given(_coeff_pairs())
@example(([-0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1e-300, 1e300, 1.0, 3.0]))
def test_quotient_kernel_matches_reference_loop(pair):
    a, b = pair
    assert _outcome(lambda: jets.div_coeffs(a, b)) == _outcome(lambda: _reference_div(a, b))
    assert (_outcome(lambda: jet(a) / jet(b))
            == _outcome(lambda: jet(jets.require_finite(_reference_div(a, b)))))


@settings(max_examples=300, deadline=None)
@given(_operands)
@example([4.0, -0.0, 1.0, 1e-320, -3e300])
def test_sqrt_kernel_matches_reference_loop(a):
    assert _outcome(lambda: jets.sqrt_coeffs(a)) == _outcome(lambda: _reference_sqrt(a))
    assert (_outcome(lambda: jet(a).sqrt())
            == _outcome(lambda: jet(jets.require_finite(_reference_sqrt(a)))))


@settings(max_examples=300, deadline=None)
@given(_operands)
@example([0.0, -0.0, 1.0, 0.0, -0.0])
@example([0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
def test_sin_cos_kernel_matches_reference_loop(a):
    want = _reference_pair(a, math.sin, math.cos, negate=True)
    assert _outcome(lambda: jets.sin_cos_coeffs(a)) == _outcome(lambda: want)
    assert _outcome(lambda: (jet(a).sin(), jet(a).cos())) == _outcome(
        lambda: tuple(jet(jets.require_finite(half)) for half in want))


@settings(max_examples=300, deadline=None)
@given(_operands)
@example([0.0, -0.0, 1.0, 0.0, -0.0])
@example([720.0, 1.0, 0.0, 0.0, 0.0])
def test_sinh_cosh_kernel_matches_reference_loop(a):
    def want():
        return _reference_pair(a, math.sinh, math.cosh, negate=False)

    assert _outcome(lambda: jets.sinh_cosh_coeffs(a)) == _outcome(want)
    assert _outcome(lambda: (jet(a).sinh(), jet(a).cosh(), jet(a).tanh())) == _outcome(
        lambda: tuple(jet(jets.require_finite(half)) for half in want())
        + (jet(jets.require_finite(_reference_div(*want()))),))


class _MyFloat(float):
    pass


# each scalar operator on the reference loops, c lifted to the constant jet (c, 0.0, ...)
_LIFTED = {
    "jet + c": lambda a, k: [x + y for x, y in zip(a, k)],
    "c + jet": lambda a, k: [x + y for x, y in zip(a, k)],
    "jet - c": lambda a, k: [x - y for x, y in zip(a, k)],
    "c - jet": lambda a, k: [y - x for x, y in zip(a, k)],
    "jet * c": _reference_mul,
    "c * jet": _reference_mul,
    "jet / c": _reference_div,
    "c / jet": lambda a, k: _reference_div(k, a),
}
_SCALAR_OPS = {
    "jet + c": lambda j, c: j + c,
    "c + jet": lambda j, c: c + j,
    "jet - c": lambda j, c: j - c,
    "c - jet": lambda j, c: c - j,
    "jet * c": lambda j, c: j * c,
    "c * jet": lambda j, c: c * j,
    "jet / c": lambda j, c: j / c,
    "c / jet": lambda j, c: c / j,
}
_scalars = st.one_of(
    _coeff,
    st.sampled_from([math.inf, -math.inf, math.nan, 0, 3, -7, True, 10 ** 400,
                     _MyFloat(2.5), _MyFloat(-0.0)]),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_SCALAR_OPS)), _scalars,
       st.integers(0, 23).flatmap(lambda n: st.lists(_coeff, min_size=n + 1, max_size=n + 1)))
def test_scalar_operators_match_lifting_to_a_constant_jet(op, c, coeffs):
    a = jet(coeffs, base=0.25)

    def lifted():
        k = Jet.constant(c, a.base, a.order)
        return jet(jets.require_finite(_LIFTED[op](a.coeffs, k.coeffs)), base=0.25)

    assert _outcome(lambda: _SCALAR_OPS[op](a, c)) == _outcome(lifted)


def test_a_domain_error_names_its_parameter_once():
    located = jets.at_parameter(JetDomainError("jet division by vanishing germ"), 1.0)
    assert type(located) is JetDomainError
    assert str(located) == "jet division by vanishing germ (at s=1.0)"
    named = JetDomainError("dual undetermined at s=1.0")
    assert jets.at_parameter(named, 1.0) is named
    # a message that ends in another parameter still gets this one
    assert (str(jets.at_parameter(ValueError("dual undetermined at s=11.0"), 1.0))
            == "dual undetermined at s=11.0 (at s=1.0)")
