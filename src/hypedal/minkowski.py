"""Minkowski 3-space linear algebra with the (-,+,+) pseudo scalar product.

Vectors are immutable triples.  Components are ordinarily floats, but every
algebraic operation (`inner`, `wedge`, `det3`, the vector space operators)
is written so that components may also be truncated Taylor jets; this gives
one shared code path for plain evaluation and derivative propagation.
"""

from __future__ import annotations

import math
from enum import Enum

from . import decide
from .values import Value


class GeometryError(ValueError):
    """A point fails a pseudo-sphere membership or degeneracy requirement."""


def _require_finite(x1, x2, x3) -> None:
    for c in (x1, x2, x3):
        if isinstance(c, (int, float)) and not math.isfinite(c):
            raise ValueError("non-finite vector component")


class MVec3(Value):
    """Vector in R^3 with the pseudo scalar product <u,w> = -u1 w1 + u2 w2 + u3 w3."""

    _fields = ("x1", "x2", "x3")

    def __init__(self, x1: float, x2: float, x3: float):
        _require_finite(x1, x2, x3)
        fields = self.__dict__
        fields["x1"] = x1
        fields["x2"] = x2
        fields["x3"] = x3

    def components(self):
        return (self.x1, self.x2, self.x3)

    def map(self, fn) -> "MVec3":
        return _vec(fn(self.x1), fn(self.x2), fn(self.x3))

    def __add__(self, other: "MVec3") -> "MVec3":
        return _vec(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "MVec3") -> "MVec3":
        return _vec(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "MVec3":
        return _vec(-self.x1, -self.x2, -self.x3)

    def __mul__(self, scalar) -> "MVec3":
        return _vec(self.x1 * scalar, self.x2 * scalar, self.x3 * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MVec3":
        return _vec(self.x1 / scalar, self.x2 / scalar, self.x3 / scalar)


def _vec(x1, x2, x3) -> MVec3:
    """An `MVec3` checked as its init checks it, made without calling the init."""
    _require_finite(x1, x2, x3)
    return _tested_vec(x1, x2, x3)


def _tested_vec(x1, x2, x3) -> MVec3:
    """An `MVec3` of components already tested finite, such as a generated
    function's outputs, made without calling the init."""
    vec = object.__new__(MVec3)
    fields = vec.__dict__
    fields["x1"] = x1
    fields["x2"] = x2
    fields["x3"] = x3
    return vec


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def inner(u: MVec3, w: MVec3):
    """Pseudo scalar product -u1 w1 + u2 w2 + u3 w3 (symmetric, bilinear)."""
    return -(u.x1 * w.x1) + u.x2 * w.x2 + u.x3 * w.x3


def wedge(u: MVec3, w: MVec3) -> MVec3:
    """Pseudo vector product (-u2 w3 + u3 w2, u3 w1 - u1 w3, -u2 w1 + u1 w2)."""
    return _vec(
        -(u.x2 * w.x3) + u.x3 * w.x2,
        u.x3 * w.x1 - u.x1 * w.x3,
        -(u.x2 * w.x1) + u.x1 * w.x2,
    )


def det3(u: MVec3, v: MVec3, w: MVec3):
    """Determinant of the 3x3 matrix with rows u, v, w.

    Satisfies det3(z, u, w) == inner(wedge(u, w), z).
    """
    return (
        u.x1 * (v.x2 * w.x3 - v.x3 * w.x2)
        - u.x2 * (v.x1 * w.x3 - v.x3 * w.x1)
        + u.x3 * (v.x1 * w.x2 - v.x2 * w.x1)
    )


def euclid_norm_sq(u: MVec3) -> float:
    return u.x1 * u.x1 + u.x2 * u.x2 + u.x3 * u.x3


def pseudo_norm(u: MVec3) -> float:
    return math.sqrt(abs(inner(u, u)))


def causal_class(u: MVec3) -> CausalClass:
    """Classify a non-zero vector as spacelike, timelike or lightlike.

    The zero decision is relative, |<u,u>| <= tol * max(1, |u|_euclid^2) with
    tol `decide.LIGHTLIKE_TOL`, so it does not depend on the overall scale of u.
    """
    n2 = euclid_norm_sq(u)
    if n2 == 0.0:
        raise GeometryError("null input")
    q = inner(u, u)
    if abs(q) <= decide.LIGHTLIKE_TOL * max(1.0, n2):
        return CausalClass.LIGHTLIKE
    return CausalClass.SPACELIKE if q > 0.0 else CausalClass.TIMELIKE


def on_hyperboloid(u: MVec3, tol: float = decide.SHEET_TOL) -> bool:
    """True iff <u,u> = -1 within tol * max(1, x1^2), its rounding scale (either sheet)."""
    q = inner(u, u)
    # where x1^2 overflows the tolerance is infinite, so <u,u> must stay finite
    return math.isfinite(q) and abs(q + 1.0) <= tol * max(1.0, u.x1 * u.x1)


def on_upper_hyperboloid(u: MVec3, tol: float = decide.SHEET_TOL) -> bool:
    """True iff `on_hyperboloid` and x1 > 0 (the upper sheet)."""
    return on_hyperboloid(u, tol) and u.x1 > 0.0


def require_upper_sheet(p: MVec3, name: str, tol: float = decide.SHEET_TOL) -> None:
    if not on_upper_hyperboloid(p, tol):
        raise GeometryError(f"{name} ({p.x1!r}, {p.x2!r}, {p.x3!r}) is not on the upper hyperboloid sheet")


def on_desitter(u: MVec3, tol: float = decide.SHEET_TOL) -> bool:
    """True iff <u,u> = +1 within tol."""
    return abs(inner(u, u) - 1.0) <= tol


class LorentzMap(Value):
    """A 3x3 linear map, normally an isometry of the pseudo scalar product."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[float, float, float], ...]):
        self.__dict__["rows"] = rows

    def apply(self, v: MVec3) -> MVec3:
        r = self.rows
        return MVec3(
            r[0][0] * v.x1 + r[0][1] * v.x2 + r[0][2] * v.x3,
            r[1][0] * v.x1 + r[1][1] * v.x2 + r[1][2] * v.x3,
            r[2][0] * v.x1 + r[2][1] * v.x2 + r[2][2] * v.x3,
        )

    def inverse(self) -> "LorentzMap":
        ((a, b, c), (d, e, f), (g, h, i)) = self.rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if det == 0.0:
            raise GeometryError("singular linear map")
        return LorentzMap(
            (
                ((e * i - f * h) / det, (c * h - b * i) / det, (b * f - c * e) / det),
                ((f * g - d * i) / det, (a * i - c * g) / det, (c * d - a * f) / det),
                ((d * h - e * g) / det, (b * g - a * h) / det, (a * e - b * d) / det),
            )
        )


def boost_to_origin(p: MVec3) -> LorentzMap:
    """Pure Lorentz boost taking the upper-sheet point p to (1, 0, 0).

    The boost acts in the plane spanned by (1,0,0) and p, so it is
    rotation-free and deterministic.  Preserves the pseudo scalar product.
    """
    require_upper_sheet(p, "point")
    den = 1.0 + p.x1
    return LorentzMap(
        (
            (p.x1, -p.x2, -p.x3),
            (-p.x2, 1.0 + p.x2 * p.x2 / den, p.x2 * p.x3 / den),
            (-p.x3, p.x2 * p.x3 / den, 1.0 + p.x3 * p.x3 / den),
        )
    )
