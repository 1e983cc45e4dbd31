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
from dataclasses import dataclass

DEFAULT_ORDER = 16
MAX_ORDER = 64

# A quotient a/b is refused when the constant term of b is this small
# relative to b's largest coefficient: the denominator germ vanishes at the
# base point and the series 1/b does not exist.
_DIV_REL_TOL = 1e-13


class JetDomainError(ValueError):
    """An elementary function or a quotient left its domain of definition."""


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients (c_0, ..., c_K) of a scalar germ at `base`."""

    base: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a jet needs at least its constant coefficient")
        if len(self.coeffs) - 1 > MAX_ORDER:
            raise ValueError(f"jet order {len(self.coeffs) - 1} exceeds the maximum {MAX_ORDER}")
        if not math.isfinite(self.base):
            raise ValueError("non-finite jet base")
        for c in self.coeffs:
            if not math.isfinite(c):
                raise ValueError("non-finite jet coefficient")

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

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot truncate to a higher order")
        return Jet(self.base, self.coeffs[: order + 1])

    def d_ds(self) -> "Jet":
        """Jet of the derivative germ; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base, tuple((i + 1) * self.coeffs[i + 1] for i in range(self.order)))

    def eval_at_offset(self, h: float) -> float:
        """Value of the truncated polynomial at base + h."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * h + c
        return acc

    # -- arithmetic ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            if other.base != self.base:
                raise ValueError("jet base mismatch")
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(float(other), self.base, self.order)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.base, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.base, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.base, tuple(b - a for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return Jet(self.base, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.base, tuple(mul_coeffs(self.coeffs, o.coeffs)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.base, tuple(div_coeffs(self.coeffs, o.coeffs)))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

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
        return Jet(self.base, tuple(sqrt_coeffs(self.coeffs)))

    def recip(self) -> "Jet":
        return 1.0 / self

    def _sin_cos(self):
        s, c = sin_cos_coeffs(self.coeffs)
        return Jet(self.base, tuple(s)), Jet(self.base, tuple(c))

    def sin(self) -> "Jet":
        return self._sin_cos()[0]

    def cos(self) -> "Jet":
        return self._sin_cos()[1]

    def _sinh_cosh(self):
        s, c = sinh_cosh_coeffs(self.coeffs)
        return Jet(self.base, tuple(s)), Jet(self.base, tuple(c))

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


# ---------------------------------------------------------------------
# Coefficient kernels: the recurrences on plain sequences of Taylor
# coefficients.  `Jet` wraps them, and the expression tape in
# hypedal.expr runs them on lists directly, so both produce the same
# floats.  Operands are finite and of one length; callers check results
# with `require_finite`.
# ---------------------------------------------------------------------


def require_finite(coeffs):
    """`coeffs`, once checked to be finite as `Jet` checks them."""
    for c in coeffs:
        if not math.isfinite(c):
            raise ValueError("non-finite jet coefficient")
    return coeffs


def mul_coeffs(a, b) -> list:
    """Truncated Cauchy product; `a` drives the loop and its zeros are skipped."""
    n = len(a) - 1
    out = [0.0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai == 0.0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b[j]
    return out


def div_coeffs(a, b) -> list:
    """Quotient a/b; refused when b vanishes at the base point."""
    scale = max(abs(c) for c in b)
    if scale == 0.0 or abs(b[0]) <= _DIV_REL_TOL * scale:
        raise JetDomainError("jet division by vanishing germ")
    n = len(a) - 1
    q = [0.0] * (n + 1)
    for i in range(n + 1):
        acc = a[i]
        for k in range(i):
            acc -= q[k] * b[i - k]
        q[i] = acc / b[0]
    return q


# Each recurrence below propagates y = fn(u) from the defining ODE of fn;
# e.g. for y = sin(u), z = cos(u):  i*y_i = sum k u_k z_{i-k}.


def sqrt_coeffs(a) -> list:
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


def sin_cos_coeffs(a) -> tuple:
    n = len(a) - 1
    s = [0.0] * (n + 1)
    c = [0.0] * (n + 1)
    s[0] = math.sin(a[0])
    c[0] = math.cos(a[0])
    for i in range(1, n + 1):
        acc_s = 0.0
        acc_c = 0.0
        for k in range(1, i + 1):
            ka = k * a[k]
            acc_s += ka * c[i - k]
            acc_c += ka * s[i - k]
        s[i] = acc_s / i
        c[i] = -acc_c / i
    return s, c


def sinh_cosh_coeffs(a) -> tuple:
    n = len(a) - 1
    s = [0.0] * (n + 1)
    c = [0.0] * (n + 1)
    s[0] = math.sinh(a[0])
    c[0] = math.cosh(a[0])
    for i in range(1, n + 1):
        acc_s = 0.0
        acc_c = 0.0
        for k in range(1, i + 1):
            ka = k * a[k]
            acc_s += ka * c[i - k]
            acc_c += ka * s[i - k]
        s[i] = acc_s / i
        c[i] = acc_c / i
    return s, c


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


ELEMENTARY = {
    "sqrt": sqrt,
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "asinh": asinh,
    "recip": recip,
}


def constant_part(x) -> float:
    return x.coeffs[0] if isinstance(x, Jet) else float(x)


def derivative(a: Jet, i: int) -> float:
    """The i-th derivative value at the base point, c_i * i!."""
    if i > a.order:
        raise ValueError("derivative order exceeds truncation")
    return a.coeffs[i] * math.factorial(i)


def vanishing_order(a: Jet, tol: float = 1e-8):
    """Index of the first structurally non-zero Taylor coefficient.

    A coefficient counts as non-zero when |c_i| > tol * max(1, max_j |c_j|),
    so rounding residue of exact zeros is ignored.  Returns None when every
    coefficient vanishes at this truncation.
    """
    scale = max(1.0, max(abs(c) for c in a.coeffs))
    for i, c in enumerate(a.coeffs):
        if abs(c) > tol * scale:
            return i
    return None


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of the composite germ outer(inner(.)) at inner's base point.

    Requires inner's value to equal outer's base point.
    """
    if abs(inner.coeffs[0] - outer.base) > 1e-9 * max(1.0, abs(outer.base)):
        raise ValueError("composition base mismatch: inner value must equal outer base")
    delta = Jet(inner.base, (0.0,) + inner.coeffs[1:])
    acc = Jet.constant(outer.coeffs[-1], inner.base, inner.order)
    for c in reversed(outer.coeffs[:-1]):
        acc = acc * delta + c
    return acc
