"""Legendrian moving frames on the hyperbolic plane.

A frontal is a curve r on the unit hyperboloid together with a unit
spacelike dual curve v satisfying <r, v> = 0 and <r', v> = 0.  The frame
{r, v, mu = r ^ v} is defined even where r itself is singular, and the
curvature pair

    ell(s) = <r'(s), mu(s)>,     m(s) = <v'(s), mu(s)>

drives every construction in this library.  This module validates such
pairs, computes the curvature pair (pointwise and as jets), provides the
classical Frenet data at regular points, and derives the dual curve
automatically when it is not given in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import jets
from .expr import linspace
from .jets import Jet
from .minkowski import MVec3, det3, inner, wedge

# A point counts as regular when the speed exceeds this fraction of the
# domain scale; separates the astroid's cusps cleanly at double precision.
REGULARITY_RTOL = 1e-7

_FLAT_TOL = 1e-9


class CurveSingularError(ValueError):
    """Frenet data requested at a point where the curve is not regular."""


class DualUndeterminedError(ValueError):
    """The derivative germ is flat to truncation; no dual direction exists."""


def _d(vec: MVec3) -> MVec3:
    return vec.map(lambda j: j.d_ds())


def _truncate(vec: MVec3, order: int) -> MVec3:
    return vec.map(lambda j: j.truncate(order))


def _const(vec: MVec3) -> MVec3:
    return vec.map(jets.constant_part)


def _ell_m(rj: MVec3, vj: MVec3, mu: MVec3):
    """(ell, m) = (<r', mu>, <v', mu>), from jets of r and v one order above mu's."""
    return inner(_d(rj), mu), inner(_d(vj), mu)


def _coeff(vec: MVec3, k: int) -> MVec3:
    """The k-th Taylor coefficients of a jet vector."""
    return MVec3(vec.x1.coeffs[k], vec.x2.coeffs[k], vec.x3.coeffs[k])


def _sup(vec: MVec3) -> float:
    return max(abs(vec.x1), abs(vec.x2), abs(vec.x3))


@dataclass
class ValidationReport:
    """Per-condition maximum relative residuals of the Legendrian conditions."""

    residuals: dict[str, float]
    tol: float
    samples: int

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())


@dataclass(frozen=True)
class FrenetData:
    s: float
    T: MVec3
    N: MVec3
    kappa: float
    speed: float


class LegendrePair:
    """A frontal r with its dual v, exposed through plain and jet evaluators.

    The frame normal is mu = r ^ v by definition; callers may supply an
    analytically equal `mu`/`mu_jet` evaluator when the wedge product is
    numerically ill-conditioned (huge nearly-parallel factors cancelling to
    a unit vector, as for induced structures of fast-growing curves).
    """

    def __init__(self, r, r_jet, v, v_jet, domain, name="pair", mu=None, mu_jet=None):
        self._r = r
        self._r_jet = r_jet
        self._v = v
        self._v_jet = v_jet
        self._mu = mu
        self._mu_jet = mu_jet
        self.domain = (float(domain[0]), float(domain[1]))
        self.name = name
        self._curve = None  # the curve whose tape gives r and v (`from_curve`)

    @classmethod
    def from_curve(cls, curve) -> "LegendrePair":
        """Pair a curve with its explicitly given dual components."""
        if not curve.has_dual():
            raise ValueError(
                f"curve {curve.name!r} has no dual components; use with_auto_dual instead"
            )
        pair = cls(
            curve.point, curve.point_jet, curve.dual_point, curve.dual_jet,
            curve.domain, name=curve.name,
        )
        pair._curve = curve
        return pair

    @classmethod
    def with_auto_dual(cls, curve) -> "LegendrePair":
        dual = AutoDual(curve)
        return cls(curve.point, curve.point_jet, dual, dual.jet, curve.domain, name=curve.name)

    # -- frame evaluation ------------------------------------------------

    def r(self, s: float) -> MVec3:
        return self._r(s)

    def v(self, s: float) -> MVec3:
        return self._v(s)

    def mu(self, s: float) -> MVec3:
        if self._mu is not None:
            return self._mu(s)
        return wedge(self._r(s), self._v(s))

    def r_jet(self, s0: float, order: int) -> MVec3:
        return self._r_jet(s0, order)

    def v_jet(self, s0: float, order: int) -> MVec3:
        return self._v_jet(s0, order)

    def mu_jet(self, s0: float, order: int) -> MVec3:
        if self._mu_jet is not None:
            return self._mu_jet(s0, order)
        return wedge(self._r_jet(s0, order), self._v_jet(s0, order))

    def curvatures(self, s: float) -> tuple[float, float]:
        """The pair (ell, m) = (<r', mu>, <v', mu>) at s."""
        rj = self._r_jet(s, 1)
        vj = self._v_jet(s, 1)
        mu0 = self.mu(s)
        return inner(_coeff(rj, 1), mu0), inner(_coeff(vj, 1), mu0)

    def curvature_jets(self, s0: float, order: int) -> tuple[Jet, Jet]:
        """Jets of ell and m at s0, exact to the requested order."""
        ell, m, _, _ = self._curvature_frame_jets(s0, order)
        return ell, m

    def _curvature_frame_jets(self, s0: float, order: int):
        """(ell, m, r, v) at s0; r and v are the order + 1 jets that ell and m need."""
        rj = self._r_jet(s0, order + 1)
        vj = self._v_jet(s0, order + 1)
        return (*_ell_m(rj, vj, self.mu_jet(s0, order)), rj, vj)

    # -- validation --------------------------------------------------------

    def validate(self, samples: int = 1000, tol: float = 1e-9) -> ValidationReport:
        """Check the four Legendrian conditions on a parameter grid.

        Residuals are relative to the square of the local frame magnitude,
        so fast-growing curves are judged on the same footing as bounded
        ones.
        """
        if samples < 2:
            raise ValueError("need at least 2 samples")
        worst = {"r_unit": 0.0, "v_unit": 0.0, "rv_orth": 0.0, "tangency": 0.0}
        for s in linspace(self.domain, samples):
            try:
                rj = self._r_jet(s, 1)
                r0 = _const(rj)
                rd = _coeff(rj, 1)
                v0 = self._v(s)
            except jets.DOMAIN_ERRORS as exc:
                raise jets.at_parameter(exc, s) from None
            nr = max(1.0, _sup(r0))
            nv = max(1.0, _sup(v0))
            nd = max(1.0, _sup(rd))
            worst["r_unit"] = max(worst["r_unit"], abs(inner(r0, r0) + 1.0) / (nr * nr))
            worst["v_unit"] = max(worst["v_unit"], abs(inner(v0, v0) - 1.0) / (nv * nv))
            worst["rv_orth"] = max(worst["rv_orth"], abs(inner(r0, v0)) / (nr * nv))
            worst["tangency"] = max(worst["tangency"], abs(inner(rd, v0)) / (nd * nv))
        return ValidationReport(worst, tol, samples)


def frenet_regular(curve, s: float) -> FrenetData:
    """Unit tangent, normal and geodesic curvature of a regular curve point.

    kappa = det(r, r', r'') / |r'|^3; defined only where the speed exceeds
    `REGULARITY_RTOL` times the domain scale.
    """
    rj = curve.point_jet(s, 2)
    r0 = _const(rj)
    rd = _coeff(rj, 1)
    rdd = 2.0 * _coeff(rj, 2)
    speed_sq = inner(rd, rd)
    a, b = curve.domain
    scale = max(1.0, b - a)
    if speed_sq <= (REGULARITY_RTOL * scale) ** 2:
        raise CurveSingularError(f"curve singular at s={s!r}")
    speed = math.sqrt(speed_sq)
    T = rd / speed
    N = wedge(r0, T)
    kappa = det3(r0, rd, rdd) / speed**3
    return FrenetData(s=s, T=T, N=N, kappa=kappa, speed=speed)


class AutoDual:
    """Dual curve derived from the curve itself by jet factorization.

    At a regular point the dual is just the frame normal N = r ^ (r'/|r'|).
    At a singular point the derivative germ is divided by its vanishing
    power of (s - s0) before normalizing, which gives the exact limiting
    direction with no step-size tuning.  The overall sign is fixed by
    continuity along a precomputed grid; the first sample is oriented so
    its x3 component (or first non-zero component) is positive.  The curve's
    jets are read at order `jets.DEFAULT_ORDER`, or higher where a requested
    jet needs it.
    """

    def __init__(self, curve):
        self.curve = curve
        self._grid = curve.grid(min(curve.samples, 400))
        raw = []
        for s in self._grid:
            try:
                raw.append(self._raw(s))
            except jets.DOMAIN_ERRORS as exc:
                raise jets.at_parameter(exc, s) from None
        signed = []
        sign = 1.0
        first = raw[0]
        pick = first.x3
        if abs(pick) <= 1e-12 * max(1.0, _sup(first)):
            pick = first.x1 if abs(first.x1) > abs(first.x2) else first.x2
        if pick < 0.0:
            sign = -1.0
        prev = sign * first
        signed.append(prev)
        for vec in raw[1:]:
            if _dot_euclid(vec, prev) < 0.0:
                vec = -vec
            signed.append(vec)
            prev = vec
        self._signed = signed

    def _leading(self, s: float, order: int):
        """Vanishing power p of r' at s and the order-(order) factored jets."""
        rj = self.curve.point_jet(s, order + 1)
        rd = _d(rj)
        orders = [jets.vanishing_order(c, _FLAT_TOL) for c in rd.components()]
        orders = [o for o in orders if o is not None]
        if not orders:
            raise DualUndeterminedError(f"dual undetermined at s={s!r}")
        return min(orders), rj, rd

    def _raw(self, s: float) -> MVec3:
        p, rj, rd = self._leading(s, jets.DEFAULT_ORDER)
        w = _coeff(rd, p)
        q = inner(w, w)
        if q <= 0.0:
            raise DualUndeterminedError(f"dual undetermined at s={s!r}")
        r0 = _const(rj)
        return wedge(r0, w / math.sqrt(q))

    def _sign_at(self, s: float, raw_value: MVec3) -> float:
        a, b = self.curve.domain
        n = len(self._grid)
        idx = round((s - a) / (b - a) * (n - 1))
        idx = min(max(idx, 0), n - 1)
        return 1.0 if _dot_euclid(raw_value, self._signed[idx]) >= 0.0 else -1.0

    def __call__(self, s: float) -> MVec3:
        raw = self._raw(s)
        return self._sign_at(s, raw) * raw

    def jet(self, s0: float, order: int) -> MVec3:
        p, _, _ = self._leading(s0, max(jets.DEFAULT_ORDER, order + 2))
        if order + 1 + p > jets.MAX_ORDER:
            raise DualUndeterminedError(
                f"dual undetermined at s={s0!r}: r' vanishes to order {p}, which needs a "
                f"jet of order {order + 1 + p}, above the maximum {jets.MAX_ORDER}"
            )
        rj = self.curve.point_jet(s0, order + 1 + p)
        rd = _d(rj)
        # divide the derivative germ by (s - s0)^p: drop the first p coefficients
        w = rd.map(lambda j: Jet(j.base, j.coeffs[p : p + order + 1]))
        unit = w / jets.sqrt(inner(w, w))
        vj = wedge(_truncate(rj, order), unit)
        sign = self._sign_at(s0, _const(vj))
        return sign * vj


def _dot_euclid(u: MVec3, w: MVec3) -> float:
    return u.x1 * w.x1 + u.x2 * w.x2 + u.x3 * w.x3


def reparametrized(pair: LegendrePair, change, new_domain, name=None) -> LegendrePair:
    """The pair traversed through a parameter change s = change(xi).

    `change` must accept floats and jets (any expression written with the
    arithmetic operators and the jets module wrappers qualifies).
    """

    def r(xi):
        return pair.r(change(xi))

    def v(xi):
        return pair.v(change(xi))

    def composed(jet_of):
        def at(xi0, order):
            u = change(Jet.variable(float(xi0), max(order, 1))).truncate(max(order, 1))
            outer = jet_of(u.coeffs[0], u.order)
            return outer.map(lambda j: jets.compose(j, u)).map(lambda j: j.truncate(order))
        return at

    return LegendrePair(r, composed(pair.r_jet), v, composed(pair.v_jet), new_domain,
                        name=name or f"{pair.name}-reparam")
