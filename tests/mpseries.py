"""Taylor series of expression trees in mpmath, by Taylor arithmetic.

`series(tree, s0, n)` walks a parsed expression tree and returns its first
n + 1 Taylor coefficients at s0 as mpf numbers, at the working precision of
the caller (`mpmath.workdps`).  Each operation is the classical recurrence
on coefficient lists (Griewank & Walther, "Evaluating Derivatives",
ch. 13): sums and products term by term, a quotient and a square root by
solving for the next coefficient, sin/cos and sinh/cosh as a pair from
their derivatives, tanh as sinh/cosh, and an integer power by repeated
squaring.  It shares no code with the library, only the recurrences, so
`tests/test_oracle.py` checks it against `mpmath.taylor` too.
"""

from __future__ import annotations

import math

import mpmath

from hypedal.expr import BinOp, Call, Neg, Num, Pi, Pow, Var


def series(tree, s0, n: int) -> list:
    """The coefficients c_0..c_n of tree's Taylor series at s0, as mpf."""
    return _walk(tree, mpmath.mpf(s0), n)


def _constant(c, n: int) -> list:
    return [mpmath.mpf(c)] + [mpmath.mpf(0)] * n


def _walk(node, s0, n: int) -> list:
    if isinstance(node, Num):
        return _constant(node.value, n)
    if isinstance(node, Pi):
        return _constant(math.pi, n)  # the parser's pi is the float
    if isinstance(node, Var):
        return ([s0, mpmath.mpf(1)] + [mpmath.mpf(0)] * (n - 1))[: n + 1]
    if isinstance(node, Neg):
        return [-c for c in _walk(node.arg, s0, n)]
    if isinstance(node, BinOp):
        a, b = _walk(node.left, s0, n), _walk(node.right, s0, n)
        if node.op == "+":
            return [p + q for p, q in zip(a, b)]
        if node.op == "-":
            return [p - q for p, q in zip(a, b)]
        return mul(a, b) if node.op == "*" else div(a, b)
    if isinstance(node, Pow):
        return power(_walk(node.base, s0, n), node.exponent)
    if isinstance(node, Call):
        a = _walk(node.arg, s0, n)
        if node.name == "sqrt":
            return sqrt(a)
        if node.name in ("sin", "cos"):
            return sin_cos(a)[node.name == "cos"]
        if node.name in ("sinh", "cosh"):
            return sinh_cosh(a)[node.name == "cosh"]
        if node.name == "tanh":
            return div(*sinh_cosh(a))
        if node.name == "abs":
            return a if a[0] >= 0 else [-c for c in a]
    raise TypeError(f"not an expression node: {node!r}")


def mul(a: list, b: list) -> list:
    return [mpmath.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def div(a: list, b: list) -> list:
    """q = a / b: b_0 q_k = a_k - sum_{j=1..k} b_j q_{k-j}."""
    q = []
    for k in range(len(a)):
        q.append((a[k] - mpmath.fsum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])
    return q


def power(a: list, e: int) -> list:
    """a^e by repeated squaring, 1 / a^-e for e < 0."""
    result = _constant(1, len(a) - 1)
    square = a
    k = abs(e)
    while k:
        if k & 1:
            result = mul(result, square)
        k >>= 1
        if k:
            square = mul(square, square)
    return div(_constant(1, len(a) - 1), result) if e < 0 else result


def sqrt(a: list) -> list:
    """y = sqrt(a): 2 y_0 y_k = a_k - sum_{j=1..k-1} y_j y_{k-j}."""
    y = [mpmath.sqrt(a[0])]
    for k in range(1, len(a)):
        y.append((a[k] - mpmath.fsum(y[j] * y[k - j] for j in range(1, k))) / (2 * y[0]))
    return y


def _pair(a: list, hyperbolic: bool) -> tuple:
    """(sin a, cos a), or (sinh a, cosh a): from (sin a)' = a' cos a and
    (cos a)' = -a' sin a, k s_k = sum_{j=1..k} j a_j c_{k-j} and
    k c_k = -+ sum_{j=1..k} j a_j s_{k-j}."""
    s = [mpmath.sinh(a[0]) if hyperbolic else mpmath.sin(a[0])]
    c = [mpmath.cosh(a[0]) if hyperbolic else mpmath.cos(a[0])]
    sign = 1 if hyperbolic else -1
    for k in range(1, len(a)):
        s.append(mpmath.fsum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(sign * mpmath.fsum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k)
    return s, c


def sin_cos(a: list) -> tuple:
    return _pair(a, False)


def sinh_cosh(a: list) -> tuple:
    return _pair(a, True)
