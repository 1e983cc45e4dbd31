"""Truncated Taylor-series arithmetic at a fixed base parameter value.

A `Jet` stores the Taylor coefficients c_i = f^(i)(s0) / i! of a scalar
function at a base point s0, up to a fixed truncation order K.  Sums,
products, quotients and elementary functions propagate coefficients by the
standard convolution recurrences, so coefficient i of any computed jet is
the exact i-th Taylor coefficient of the composite expression (up to
floating-point rounding).  This is the engine behind every higher
derivative in the library: no finite differences, no step sizes.

The module-level wrappers (`sqrt`, `sin`, `cosh`, ...) dispatch on the
argument type, so formula code written once runs unchanged on floats and
on jets.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from operator import add as _add, neg as _neg, sub as _sub

from . import decide
from .values import Value

DEFAULT_ORDER = 16
MAX_ORDER = 64

# Where a value is undefined, or leaves the finite floats, the library raises
# a ValueError (its domain errors all derive from it) or an ArithmeticError.
DOMAIN_ERRORS = (ValueError, ArithmeticError)


def at_parameter(exc: Exception, s: float) -> Exception:
    """`exc` with a message that ends in the parameter s where it arose.

    An exception whose message already ends in "at s=<s>" is returned as it is.
    """
    where = f"at s={s!r}"
    return exc if str(exc).endswith(where) else exc.__class__(f"{exc} ({where})")


class JetDomainError(ValueError):
    """An elementary function or a quotient left its domain of definition."""


class Jet(Value):
    """Taylor coefficients (c_0, ..., c_K) of a scalar germ at `base`."""

    _fields = ("base", "coeffs")

    def __init__(self, base: float, coeffs: tuple[float, ...]):
        if not coeffs:
            raise ValueError("a jet needs at least its constant coefficient")
        if len(coeffs) - 1 > MAX_ORDER:
            raise ValueError(f"jet order {len(coeffs) - 1} exceeds the maximum {MAX_ORDER}")
        if not math.isfinite(base):
            raise ValueError("non-finite jet base")
        require_finite(coeffs)
        fields = self.__dict__
        fields["base"] = base
        fields["coeffs"] = coeffs

    # -- construction -------------------------------------------------

    @staticmethod
    def constant(value: float, base: float, order: int) -> "Jet":
        return Jet(base, (float(value),) + (0.0,) * order)

    @staticmethod
    def variable(base: float, order: int) -> "Jet":
        """The identity germ s |-> s expanded at `base`."""
        if order < 1:
            raise ValueError("a variable jet needs order >= 1")
        return Jet(base, (float(base), 1.0) + (0.0,) * (order - 1))

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot truncate to a higher order")
        return Jet(self.base, self.coeffs[: order + 1])

    def d_ds(self) -> "Jet":
        """Jet of the derivative germ; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return _jet(self.base, tuple(derivative_coeffs(self.coeffs)))

    def eval_at_offset(self, h: float) -> float:
        """Value of the truncated polynomial at base + h."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * h + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def _match(self, other: "Jet") -> tuple:
        """The coefficients of `other`, once it is checked to be a jet like this one."""
        if other.base != self.base:
            raise ValueError("jet base mismatch")
        if len(other.coeffs) != len(self.coeffs):
            raise ValueError("jet order mismatch")
        return other.coeffs

    def _lift(self, other):
        """The coefficients of a jet operand, or of a scalar lifted to a constant jet."""
        if isinstance(other, Jet):
            return self._match(other)
        if isinstance(other, (int, float)):
            return (_scalar(other),) + (0.0,) * (len(self.coeffs) - 1)
        return None

    def _binary(kernel, reflected=False):
        """The operator whose coefficients are kernel(a, b), of this jet's and
        of a jet's or of a scalar c lifted to the constant jet (c, 0.0, ...),
        as on the tape and in a recording; reflected: kernel(b, a)."""
        def method(self, other):
            b = self._lift(other)
            if b is None:
                return NotImplemented
            a = self.coeffs
            return _jet(self.base, tuple(kernel(b, a) if reflected else kernel(a, b)))
        return method

    __add__ = __radd__ = _binary(partial(map, _add))  # jet + c and c + jet compute a_0 + c
    __sub__, __rsub__ = _binary(partial(map, _sub)), _binary(partial(map, _sub), True)
    # the kernels, defined below, are looked up when called
    __mul__ = __rmul__ = _binary(lambda a, b: mul_coeffs(a, b))  # jet * c: a_k*c + 0.0
    __truediv__ = _binary(lambda a, b: div_coeffs(a, b))
    __rtruediv__ = _binary(lambda a, b: div_coeffs(a, b), True)
    del _binary

    def __neg__(self):
        return _jet(self.base, tuple(map(_neg, self.coeffs)))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n < 0:
            return 1.0 / (self ** (-n))
        result = Jet.constant(1.0, self.base, self.order)
        square = self
        k = n
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    # -- elementary functions -------------------------------------------

    def sqrt(self) -> "Jet":
        return _jet(self.base, tuple(sqrt_coeffs(self.coeffs)))

    def recip(self) -> "Jet":
        return 1.0 / self

    def _sin_cos(self):
        s, c = sin_cos_coeffs(self.coeffs)
        return _jet(self.base, tuple(s)), _jet(self.base, tuple(c))

    def sin(self) -> "Jet":
        return self._sin_cos()[0]

    def cos(self) -> "Jet":
        return self._sin_cos()[1]

    def _sinh_cosh(self):
        s, c = sinh_cosh_coeffs(self.coeffs)
        return _jet(self.base, tuple(s)), _jet(self.base, tuple(c))

    def sinh(self) -> "Jet":
        return self._sinh_cosh()[0]

    def cosh(self) -> "Jet":
        return self._sinh_cosh()[1]

    def tanh(self) -> "Jet":
        s, c = self._sinh_cosh()
        return s / c

    def asinh(self) -> "Jet":
        if self.order == 0:
            return Jet(self.base, (math.asinh(self.coeffs[0]),))
        w = (1.0 + self * self).sqrt()
        q = self.d_ds() / w.truncate(self.order - 1)
        y = [math.asinh(self.coeffs[0])]
        for i in range(1, self.order + 1):
            y.append(q.coeffs[i - 1] / i)
        return Jet(self.base, tuple(y))


_isfinite = math.isfinite


def _jet(base: float, coeffs: tuple) -> Jet:
    """A `Jet` made from an arithmetic result without calling its init.

    `base` and the length of `coeffs` come from an operand that was already
    checked, so only finiteness is left to check, as `Jet` checks it.
    """
    require_finite(coeffs)
    jet = object.__new__(Jet)
    fields = jet.__dict__
    fields["base"] = base
    fields["coeffs"] = coeffs
    return jet


def _scalar(c) -> float:
    """A scalar operand as the constant term of `Jet.constant(c, ...)`."""
    c = float(c)
    if not _isfinite(c):
        raise ValueError("non-finite jet coefficient")
    return c


# ---------------------------------------------------------------------
# Coefficient kernels: the recurrences on plain sequences of Taylor
# coefficients.  `Jet` wraps them, and the expression tape in
# hypedal.expr runs them on lists directly, so both produce the same
# floats.  Operands are finite and of one length; callers check results
# with `require_finite`.
# ---------------------------------------------------------------------


def require_finite(coeffs):
    """`coeffs`, once checked to be finite as `Jet` checks them.

    A float sum, which converts each int as the scan does, is finite only
    if every term is.  Any other sum (an overflow, a term that is no
    number) goes to the scan, which raises what it always raised.
    """
    try:
        if _isfinite(sum(coeffs, 0.0)):
            return coeffs
    except Exception:  # the scan below raises it, or what comes first
        pass
    for c in coeffs:
        if not _isfinite(c):
            raise ValueError("non-finite jet coefficient")
    return coeffs


def mul_coeffs(a, b) -> list:
    """Truncated Cauchy product: out_k = 0.0 + a_0 b_k + a_1 b_(k-1) + ...

    The sum of each coefficient starts at +0.0 and so never is -0.0, which
    makes a term a_i * b_j = +-0.0 (operands are finite) a no-op.  So the
    product with a scalar c lifted to (c, 0.0, ...) is a_k*c + 0.0.  Every
    order runs the straight-line kernel of its full rows.
    """
    n = len(a) - 1
    return _mul_kernel(n, n)(a, b)


def derivative_coeffs(a) -> list:
    """The derivative's coefficients, d_i = (i + 1) a_(i + 1), one fewer."""
    return [(i + 1) * a[i + 1] for i in range(len(a) - 1)]


def div_coeffs(a, b) -> list:
    """Quotient a/b: q_i = (a_i - q_0 b_i - ... - q_(i-1) b_1) / b_0.

    Refused when b vanishes at the base point (`decide.DIVISOR_REFUSED`).
    """
    if decide.refuses_divisor(b[0], max(map(abs, b))):
        raise refused_division()
    return _div_kernel(len(a) - 1)(a, b)


# The errors of the two refusals, defined once: the kernels raise them, and
# generated code returns them where its refusal is final (`hypedal.program`).
def refused_division() -> JetDomainError:
    return JetDomainError("jet division by vanishing germ")


def refused_sqrt(a0) -> JetDomainError:
    return JetDomainError(f"jet domain error: sqrt requires a positive constant term, got {a0!r}")


# Each recurrence below propagates y = fn(u) from the defining ODE of fn;
# e.g. for y = sin(u), z = cos(u):  i*y_i = sum k u_k z_{i-k}.


def sqrt_coeffs(a) -> list:
    """y = sqrt(a): y_i = (a_i - y_1 y_(i-1) - ... - y_(i-1) y_1) / (2.0 y_0)."""
    if decide.refuses_sqrt(a[0]):
        raise refused_sqrt(a[0])
    return _sqrt_kernel(len(a) - 1)(a)


def sin_cos_coeffs(a) -> tuple:
    """(sin a, cos a): s_i = (0.0 + k_1 c_(i-1) + ... + k_i c_0) / i with k_k = k*a_k,
    and c_i = -(0.0 + k_1 s_(i-1) + ... + k_i s_0) / i."""
    return _sin_cos_kernel(len(a) - 1)(a)


def sinh_cosh_coeffs(a) -> tuple:
    """(sinh a, cosh a): the recurrences of `sin_cos_coeffs`, c_i without the minus sign."""
    return _sinh_cosh_kernel(len(a) - 1)(a)


# ---------------------------------------------------------------------
# Straight-line kernels.  Each recurrence above is generated, for one
# truncation order n, as a Python function without loops, and compiled
# on first use.  The source is built from the integers n and the
# operands' degrees alone.  A kernel does the floating-point operations of
# the nested loop it replaced in that loop's order: a sum is one
# left-to-right chain that starts with `0.0 +`, a difference chain starts
# with its minuend, and k*a_k is formed before it multiplies.  So every
# coefficient, the sign of zero included, is the loop's.  MAX_ORDER bounds
# the keys: at most 2,139 (n, d) products of `_mul_kernel` and 65 orders of
# each other recurrence; the products bound into generated code keep the
# last MAX_ORDER (n, da, db).
# The recurrences are line templates on the names of the coefficients they
# read and write, so hypedal.program emits them inside whole programs.
# ---------------------------------------------------------------------


def compile_lines(name: str, params: str, lines: list, bound: dict | None = None):
    """The function `name(params)` whose body is `lines`; they may call the
    `math` functions of the expression grammar, `isfinite`, the refusals'
    errors, and the functions that `bound` maps their names to."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {fn: getattr(math, fn) for fn in ("sqrt", "sin", "cos", "sinh", "cosh", "tanh",
                                                  "isfinite")}
    namespace.update(refused_division=refused_division, refused_sqrt=refused_sqrt)
    namespace.update(bound or {})
    exec(compile(source, f"<hypedal {name}>", "exec"), namespace)
    return namespace[name]


def answer(function, *args):
    """function(*args), a generated function's answer, or None where it
    refuses: where it returns None or raises one of `DOMAIN_ERRORS`, which
    the checked path then raises or answers as it does.  Where it returns a
    `JetDomainError`, its final refusal, that is raised, as the checked path
    would raise it.  Any other exception is a fault of the generated code
    and propagates."""
    try:
        out = function(*args)
    except DOMAIN_ERRORS:
        return None
    if out.__class__ is JetDomainError:
        raise out
    return out


def _names(prefix: str, n: int) -> list:
    return [f"{prefix}{i}" for i in range(n + 1)]


def _unpack(prefix: str, n: int) -> str:
    # a trailing comma keeps order 0 an unpacking of one item
    return f"{', '.join(_names(prefix, n))}, = {prefix}"


def mul_rows(a: list, b: list, da: int, db: int | None = None) -> list:
    """The product's coefficients, without the terms of a above degree da or
    of b above degree db (default: all of b's); a row without terms, one
    above da + db, is the literal 0.0."""
    db = len(b) - 1 if db is None else db
    return [" + ".join(["0.0"] + [f"{a[i]}*{b[k - i]}" for i in range(max(0, k - db),
                                                                      min(k, da) + 1)])
            if k <= da + db else "0.0" for k in range(len(a))]


def div_lines(q: list, a: list, b: list) -> list:
    return [f"{q[i]} = ({' - '.join([a[i]] + [f'{q[k]}*{b[i - k]}' for k in range(i)])}) / {b[0]}"
            for i in range(len(a))]


def sqrt_lines(y: list, a: list, two: str) -> list:
    """y = sqrt(a); `two` names 2 y_0."""
    lines = [f"{y[0]} = sqrt({a[0]})", f"{two} = 2.0 * {y[0]}"]
    for i in range(1, len(a)):
        chain = " - ".join([a[i]] + [f"{y[k]}*{y[i - k]}" for k in range(1, i)])
        lines.append(f"{y[i]} = ({chain}) / {two}")
    return lines


def trig_lines(s: list, c: list, k: list, a: list, hyperbolic: bool) -> list:
    """(s, c) = (sin a, cos a), or (sinh a, cosh a); k names k*a_k."""
    s_fn, c_fn, sign = ("sinh", "cosh", "") if hyperbolic else ("sin", "cos", "-")
    lines = [f"{s[0]} = {s_fn}({a[0]})", f"{c[0]} = {c_fn}({a[0]})"]
    lines += [f"{k[j]} = {j}*{a[j]}" for j in range(1, len(a))]
    for i in range(1, len(a)):
        s_terms = " + ".join(["0.0"] + [f"{k[j]}*{c[i - j]}" for j in range(1, i + 1)])
        c_terms = " + ".join(["0.0"] + [f"{k[j]}*{s[i - j]}" for j in range(1, i + 1)])
        lines.append(f"{s[i]} = ({s_terms}) / {i}")
        lines.append(f"{c[i]} = {sign}({c_terms}) / {i}")
    return lines


def _product_kernel(n: int, da: int, db: int):
    rows = mul_rows(_names("a", n), _names("b", n), da, db)
    return compile_lines(f"_mul_{n}_{da}_{db}", "a, b",
                         [_unpack("a", n), _unpack("b", n), f"return [{', '.join(rows)}]"])


@lru_cache(maxsize=None)
def _mul_kernel(n: int, d: int):
    """The product of a left operand of degree d and a whole right one:
    `mul_coeffs`' at d = n, and the bound products' of a right bound n."""
    return _product_kernel(n, d, n)


@lru_cache(maxsize=MAX_ORDER)
def _bound_mul_kernel(n: int, da: int, db: int):
    """The product of operands of degree at most da and db, as bound into
    generated code whose operands' degrees are known (`hypedal.program`);
    the last MAX_ORDER are kept, and each function holds what it binds."""
    return _mul_kernel(n, da) if db >= n else _product_kernel(n, da, db)


@lru_cache(maxsize=None)
def _div_kernel(n: int):
    q = _names("q", n)
    return compile_lines(f"_div_{n}", "a, b", [_unpack("a", n), _unpack("b", n),
                                                *div_lines(q, _names("a", n), _names("b", n)),
                                                f"return [{', '.join(q)}]"])


@lru_cache(maxsize=None)
def _sqrt_kernel(n: int):
    y = _names("y", n)
    return compile_lines(f"_sqrt_{n}", "a", [_unpack("a", n),
                                             *sqrt_lines(y, _names("a", n), "two_y0"),
                                             f"return [{', '.join(y)}]"])


def _trig_kernel(n: int, hyperbolic: bool):
    s, c = _names("s", n), _names("c", n)
    lines = trig_lines(s, c, _names("k", n), _names("a", n), hyperbolic)
    name = f"_sinh_cosh_{n}" if hyperbolic else f"_sin_cos_{n}"
    return compile_lines(name, "a", [_unpack("a", n), *lines,
                                     f"return [{', '.join(s)}], [{', '.join(c)}]"])


@lru_cache(maxsize=None)
def _sin_cos_kernel(n: int):
    return _trig_kernel(n, False)


@lru_cache(maxsize=None)
def _sinh_cosh_kernel(n: int):
    return _trig_kernel(n, True)


# ---------------------------------------------------------------------
# Generic wrappers: one formula code path for floats and jets.
# ---------------------------------------------------------------------


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else math.sqrt(x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else math.cos(x)


def sinh(x):
    return x.sinh() if isinstance(x, Jet) else math.sinh(x)


def cosh(x):
    return x.cosh() if isinstance(x, Jet) else math.cosh(x)


def tanh(x):
    return x.tanh() if isinstance(x, Jet) else math.tanh(x)


def asinh(x):
    return x.asinh() if isinstance(x, Jet) else math.asinh(x)


def recip(x):
    return x.recip() if isinstance(x, Jet) else 1.0 / x


def powi(x, n: int):
    if isinstance(x, Jet):
        return x ** n
    return float(x) ** n


# the functions of the expression grammar, abs aside
ELEMENTARY = {
    "sqrt": sqrt,
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
}


def constant_part(x) -> float:
    return x.coeffs[0] if isinstance(x, Jet) else float(x)


def derivative(a: Jet, i: int) -> float:
    """The i-th derivative value at the base point, c_i * i!."""
    if i > a.order:
        raise ValueError("derivative order exceeds truncation")
    return a.coeffs[i] * math.factorial(i)


def vanishing_order(a, tol: float = decide.GERM_TOL):
    """Index of the first structurally non-zero Taylor coefficient of a jet,
    or of a sequence of Taylor coefficients.

    Zero is decided by `decide.first_nonzero`, so rounding residue of exact
    zeros is ignored; None when every coefficient vanishes at this truncation.
    """
    return decide.first_nonzero(a.coeffs if isinstance(a, Jet) else a, tol)


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of the composite germ outer(inner(.)) at inner's base point.

    Requires inner's value to equal outer's base point.
    """
    if abs(inner.coeffs[0] - outer.base) > decide.COMPOSE_TOL * max(1.0, abs(outer.base)):
        raise ValueError("composition base mismatch: inner value must equal outer base")
    delta = Jet(inner.base, (0.0,) + inner.coeffs[1:])
    acc = Jet.constant(outer.coeffs[-1], inner.base, inner.order)
    for c in reversed(outer.coeffs[:-1]):
        acc = acc * delta + c
    return acc
