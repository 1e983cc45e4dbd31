"""Curves derived from a frontal: pedal, orthotomic, evolute, catacaustic.

All point formulas are written once, generically over floats and jets:

    pedal      P(s) = (Q - <Q,v> v) / sqrt(1 + <Q,v>^2)
    orthotomic O(s) = Q - 2 <Q,v> v
    evolute    E(s) = +-(m r - ell v) / sqrt(|m^2 - ell^2|)

with the catacaustic defined as the evolute of the Legendrian structure
induced on the orthotomic.  The induced structures come with their dual
curves, so they are again valid frontals and can be fed back into any
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import jets
from .frontal import LegendrePair, _truncate, frenet_regular
from .minkowski import GeometryError, MVec3, inner, on_upper_hyperboloid, wedge

_ON_CURVE_TOL = 1e-9
_POINT_TOL = 1e-9


class PedalPointOnCurveError(GeometryError):
    """The pedal point coincides with a curve point; induced data undefined."""


class EvoluteDegenerateError(ValueError):
    """|m^2 - ell^2| vanishes: the evolute direction is lightlike."""


class Branch(Enum):
    H2 = "hyperbolic"
    DS2 = "desitter"


def _require_point(Q: MVec3):
    if not on_upper_hyperboloid(Q, _POINT_TOL):
        raise GeometryError(
            f"pedal point ({Q.x1!r}, {Q.x2!r}, {Q.x3!r}) is not on the upper hyperboloid sheet"
        )


def _require_off_curve(pair: LegendrePair, Q: MVec3, samples: int):
    # <Q, r(s)> = -1 on the upper sheet exactly when Q = r(s).  The proxy
    # f = -(<Q, r> + 1) >= 0 touches zero quadratically, so the grid minimum
    # is refined by one bisection of f' before applying the threshold.
    def f(s):
        return -(inner(Q, pair.r(s)) + 1.0)

    def fprime(s):
        rj = pair.r_jet(s, 1)
        rd = MVec3(rj.x1.coeffs[1], rj.x2.coeffs[1], rj.x3.coeffs[1])
        return -inner(Q, rd)

    grid = _linspace(pair.domain, samples)
    vals = [f(s) for s in grid]
    i = min(range(len(grid)), key=lambda k: vals[k])
    s_star = grid[i]
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if hi > lo:
        ga, gb = fprime(lo), fprime(hi)
        if ga != 0.0 and gb != 0.0 and (ga > 0.0) != (gb > 0.0):
            s_star = _bisect(fprime, lo, hi, ga, 1e-12)
    d = f(s_star)
    if abs(d) < _ON_CURVE_TOL * max(1.0, abs(d + 1.0)):
        raise PedalPointOnCurveError(f"pedal point on curve near s={s_star!r}")


def _linspace(domain, n):
    a, b = domain
    step = (b - a) / (n - 1)
    pts = [a + i * step for i in range(n)]
    pts[-1] = b
    return pts


# -- point formulas (generic over floats and jets) ----------------------


def pedal_point(Q: MVec3, v: MVec3) -> MVec3:
    c = inner(Q, v)
    return (Q - c * v) / jets.sqrt(1.0 + c * c)


def orthotomic_point(Q: MVec3, v: MVec3) -> MVec3:
    c = inner(Q, v)
    return Q - (2.0 * c) * v


def _pedal_dual(Q: MVec3, r: MVec3, v: MVec3, mu: MVec3) -> MVec3:
    d = inner(Q, r)
    e = inner(Q, v)
    f = inner(Q, mu)
    num = (f * f) * r + (d * e) * v - (d * f) * mu
    normalizer = jets.sqrt(f * f * (1.0 + e * e) + d * d * e * e)
    return num / normalizer


def _orthotomic_dual(Q: MVec3, r: MVec3, v: MVec3, mu: MVec3) -> MVec3:
    d = inner(Q, r)
    e = inner(Q, v)
    f = inner(Q, mu)
    g = jets.sqrt(d * d - 1.0)
    num = (d * d - 1.0) * r + (d * e) * v - (d * f) * mu
    # sign fixed so that the frame vector wedge(orthotomic, dual) reproduces
    # the closed-form curvature -2 m sqrt(<Q,r>^2 - 1)
    return -(num / g)


def _pedal_frame_normal(Q: MVec3, r: MVec3, v: MVec3, mu: MVec3) -> MVec3:
    """wedge(pedal, pedal dual), expanded in the source frame.

    Equal to the wedge product but free of its cancellation: the wedge of
    the induced vectors multiplies entries that can be orders of magnitude
    above the unit result.
    """
    d = inner(Q, r)
    e = inner(Q, v)
    f = inner(Q, mu)
    one_e2 = 1.0 + e * e
    W = jets.sqrt(f * f * one_e2 + d * d * e * e)
    num = (d * e * f) * r - (f * one_e2) * v - (d * d * e) * mu
    return num / (jets.sqrt(one_e2) * W)


def _orthotomic_frame_normal(Q: MVec3, r: MVec3, v: MVec3, mu: MVec3) -> MVec3:
    """wedge(orthotomic, orthotomic dual): the projection of Q on span(v, mu)."""
    e = inner(Q, v)
    f = inner(Q, mu)
    d = inner(Q, r)
    return (f * v + e * mu) / jets.sqrt(d * d - 1.0)


# -- derived curve evaluators -------------------------------------------


class DerivedCurve:
    """A curve s -> MVec3 derived from a pair, with plain and jet evaluation."""

    kind = "derived"

    def __init__(self, pair: LegendrePair, Q: MVec3 | None):
        self.pair = pair
        self.Q = Q
        self.domain = pair.domain

    def at(self, s: float) -> MVec3:
        raise NotImplementedError

    def jet(self, s0: float, order: int) -> MVec3:
        raise NotImplementedError

    def singular_points(self, samples: int = 1000, tol: float = 1e-7):
        return singular_points(self, samples=samples, tol=tol, pair=self.pair, Q=self.Q)


class PedalCurve(DerivedCurve):
    kind = "pedal"

    def at(self, s: float) -> MVec3:
        return pedal_point(self.Q, self.pair.v(s))

    def jet(self, s0: float, order: int) -> MVec3:
        return pedal_point(self.Q, self.pair.v_jet(s0, order))

    def induced(self, samples: int = 1000) -> "PedalInducedPair":
        return pedal_induced(self.pair, self.Q, samples=samples)


class OrthotomicCurve(DerivedCurve):
    kind = "orthotomic"

    def at(self, s: float) -> MVec3:
        return orthotomic_point(self.Q, self.pair.v(s))

    def jet(self, s0: float, order: int) -> MVec3:
        return orthotomic_point(self.Q, self.pair.v_jet(s0, order))

    def induced(self, samples: int = 1000) -> "OrthotomicInducedPair":
        return orthotomic_induced(self.pair, self.Q, samples=samples)


def pedal(pair: LegendrePair, Q: MVec3) -> PedalCurve:
    _require_point(Q)
    return PedalCurve(pair, Q)


def orthotomic(pair: LegendrePair, Q: MVec3) -> OrthotomicCurve:
    _require_point(Q)
    return OrthotomicCurve(pair, Q)


def pedal_regular(curve, Q: MVec3, s: float) -> MVec3:
    """Pedal of a regular curve through its Frenet normal; fails at cusps."""
    _require_point(Q)
    return pedal_point(Q, frenet_regular(curve, s).N)


def pedal_derivative(pair: LegendrePair, Q: MVec3, s: float) -> MVec3:
    """Closed-form velocity of the pedal curve.

    Both terms carry the factor m(s), and the second vanishes additionally
    when Q is the curve point, which is where the singularities come from.
    """
    r = pair.r(s)
    v = pair.v(s)
    mu = wedge(r, v)
    _, m = pair.curvatures(s)
    e = inner(Q, v)
    f = inner(Q, mu)
    d = inner(Q, r)
    root = math.sqrt(1.0 + e * e)
    first = (-m / root) * (f * v + e * mu)
    second = ((-m) * e * f / root**3) * ((-d) * r + f * mu)
    return first + second


# -- induced Legendrian structures ---------------------------------------


class _InducedPair(LegendrePair):
    def __init__(self, source: LegendrePair, Q: MVec3, point_formula, dual_formula,
                 frame_formula, name):
        self.source = source
        self.Q = Q

        def r(s):
            return point_formula(Q, source.v(s))

        def r_jet(s0, order):
            return point_formula(Q, source.v_jet(s0, order))

        def v(s):
            rr = source.r(s)
            vv = source.v(s)
            return dual_formula(Q, rr, vv, wedge(rr, vv))

        def v_jet(s0, order):
            rr = source.r_jet(s0, order)
            vv = source.v_jet(s0, order)
            return dual_formula(Q, rr, vv, wedge(rr, vv))

        def mu(s):
            rr = source.r(s)
            vv = source.v(s)
            return frame_formula(Q, rr, vv, wedge(rr, vv))

        def mu_jet(s0, order):
            rr = source.r_jet(s0, order)
            vv = source.v_jet(s0, order)
            return frame_formula(Q, rr, vv, wedge(rr, vv))

        super().__init__(r, r_jet, v, v_jet, source.domain, name=name, mu=mu, mu_jet=mu_jet)

    def ell_closed_form(self, s: float) -> float:
        raise NotImplementedError


class PedalInducedPair(_InducedPair):
    """The pedal curve together with its induced dual."""

    def __init__(self, source: LegendrePair, Q: MVec3):
        super().__init__(source, Q, pedal_point, _pedal_dual, _pedal_frame_normal,
                         name=f"pedal({source.name})")

    def ell_closed_form(self, s: float) -> float:
        """m sqrt(<Q,mu>^2 (1+<Q,v>^2) + <Q,r>^2 <Q,v>^2) / (1+<Q,v>^2)."""
        r = self.source.r(s)
        v = self.source.v(s)
        mu = wedge(r, v)
        _, m = self.source.curvatures(s)
        d = inner(self.Q, r)
        e = inner(self.Q, v)
        f = inner(self.Q, mu)
        return m * math.sqrt(f * f * (1.0 + e * e) + d * d * e * e) / (1.0 + e * e)


class OrthotomicInducedPair(_InducedPair):
    """The orthotomic curve together with its induced dual."""

    def __init__(self, source: LegendrePair, Q: MVec3):
        super().__init__(source, Q, orthotomic_point, _orthotomic_dual,
                         _orthotomic_frame_normal, name=f"orthotomic({source.name})")

    def ell_closed_form(self, s: float) -> float:
        """-2 m sqrt(<Q,r>^2 - 1)."""
        d = inner(self.Q, self.source.r(s))
        _, m = self.source.curvatures(s)
        return -2.0 * m * math.sqrt(d * d - 1.0)


def pedal_induced(pair: LegendrePair, Q: MVec3, samples: int = 1000) -> PedalInducedPair:
    _require_point(Q)
    _require_off_curve(pair, Q, samples)
    return PedalInducedPair(pair, Q)


def orthotomic_induced(pair: LegendrePair, Q: MVec3, samples: int = 1000) -> OrthotomicInducedPair:
    _require_point(Q)
    _require_off_curve(pair, Q, samples)
    return OrthotomicInducedPair(pair, Q)


# -- evolute and catacaustic ----------------------------------------------

_DEGENERACY_RTOL = 1e-12


class EvoluteCurve(DerivedCurve):
    """Evolute of a pair; lands on H2 where m^2 > ell^2, on dS2 otherwise.

    On the hyperbolic branch the sign is chosen so x1 > 0 (upper sheet).
    """

    kind = "evolute"

    def __init__(self, pair: LegendrePair, tag_pair: LegendrePair | None = None,
                 Q: MVec3 | None = None, kind: str | None = None):
        super().__init__(tag_pair or pair, Q)
        self.formula_pair = pair
        if kind:
            self.kind = kind

    def _branch_split(self, ell, m):
        mm = m * m
        ll = ell * ell
        d2 = mm - ll
        d2c = jets.constant_part(d2)
        scale = max(jets.constant_part(mm), jets.constant_part(ll), 1.0)
        if abs(d2c) <= _DEGENERACY_RTOL * scale:
            return None, d2
        return (Branch.H2 if d2c > 0.0 else Branch.DS2), d2

    def at_with_branch(self, s: float) -> tuple[MVec3, Branch]:
        ell, m = self.formula_pair.curvatures(s)
        branch, d2 = self._branch_split(ell, m)
        if branch is None:
            raise EvoluteDegenerateError(f"evolute degenerate at s={s!r}")
        r = self.formula_pair.r(s)
        v = self.formula_pair.v(s)
        if branch is Branch.H2:
            point = (m * r - ell * v) / math.sqrt(d2)
            if point.x1 < 0.0:
                point = -point
        else:
            point = (m * r - ell * v) / math.sqrt(-d2)
        return point, branch

    def at(self, s: float) -> MVec3:
        return self.at_with_branch(s)[0]

    def branch(self, s: float) -> Branch:
        return self.at_with_branch(s)[1]

    def jet(self, s0: float, order: int) -> MVec3:
        ell, m, rj, vj = self.formula_pair._curvature_frame_jets(s0, order)
        branch, d2 = self._branch_split(ell, m)
        if branch is None:
            raise EvoluteDegenerateError(f"evolute degenerate at s={s0!r}")
        r = _truncate(rj, order)
        v = _truncate(vj, order)
        num = m * r - ell * v
        if branch is Branch.H2:
            point = num / jets.sqrt(d2)
            if jets.constant_part(point.x1) < 0.0:
                point = -point
        else:
            point = num / jets.sqrt(-d2)
        return point


def evolute(pair: LegendrePair) -> EvoluteCurve:
    return EvoluteCurve(pair)


def catacaustic(pair: LegendrePair, Q: MVec3, samples: int = 1000) -> EvoluteCurve:
    """Evolute of the orthotomic: the envelope of rays from Q after reflection."""
    induced = orthotomic_induced(pair, Q, samples=samples)
    return EvoluteCurve(induced, tag_pair=pair, Q=Q, kind="catacaustic")


# -- singular point detection ---------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    s: float
    cause: str  # "m_zero" | "point_on_curve" | "other"
    speed: float


def _bisect(fn, lo, hi, flo, width: float = 1e-10):
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _derivative_data(curve: DerivedCurve, s: float):
    """(speed^2, d/ds speed^2) of the derived curve at s from order-2 jets."""
    try:
        V = curve.jet(s, 2)
    except (ValueError, ArithmeticError):
        return None, None
    d1 = (V.x1.coeffs[1], V.x2.coeffs[1], V.x3.coeffs[1])
    d2 = (2.0 * V.x1.coeffs[2], 2.0 * V.x2.coeffs[2], 2.0 * V.x3.coeffs[2])
    sig2 = sum(c * c for c in d1)
    g = 2.0 * sum(a * b for a, b in zip(d1, d2))
    return sig2, g


def _cluster_best(candidates: list[tuple[float, float]], window: float) -> list[float]:
    """Collapse candidate (s, residual) pairs closer than `window` into one.

    A flat zero makes the residual sub-threshold over a whole neighborhood;
    the representative per cluster is the candidate of smallest residual.
    """
    if not candidates:
        return []
    candidates = sorted(candidates)
    out = []
    best_s, best_r = candidates[0]
    last_s = best_s
    for s, r in candidates[1:]:
        if s - last_s <= window:
            if r < best_r:
                best_s, best_r = s, r
        else:
            out.append(best_s)
            best_s, best_r = s, r
        last_s = s
    out.append(best_s)
    return out


def singular_points(curve: DerivedCurve, samples: int = 1000, tol: float = 1e-7,
                    pair: LegendrePair | None = None, Q: MVec3 | None = None,
                    refine_width: float = 1e-10) -> list[SingularPoint]:
    """Locate parameters where the derived curve's velocity vanishes.

    Candidates come from sign changes of d/ds |curve'|^2 on the grid (plus
    direct grid hits); each is refined by bisection to `refine_width` and
    accepted when the speed there is below tol relative to the largest
    speed seen.  Zeros closer than twice the grid step are reported once.
    Each accepted point carries a cause tag.
    """
    grid = _linspace(curve.domain, samples)
    step = (curve.domain[1] - curve.domain[0]) / (samples - 1)
    data = [_derivative_data(curve, s) for s in grid]
    speeds = [math.sqrt(d[0]) for d in data if d[0] is not None]
    if not speeds:
        return []
    smax = max(speeds)
    if smax == 0.0:
        return []
    accept = tol * smax
    gate = 0.05 * smax

    def g_of(s):
        return _derivative_data(curve, s)[1]

    def speed_of(s):
        sig2, _ = _derivative_data(curve, s)
        return math.inf if sig2 is None else math.sqrt(sig2)

    candidates: list[tuple[float, float]] = []
    for i, s in enumerate(grid):
        sig2 = data[i][0]
        if sig2 is not None and math.sqrt(sig2) <= accept:
            candidates.append((s, math.sqrt(sig2)))
    for i in range(len(grid) - 1):
        sig2a, ga = data[i]
        sig2b, gb = data[i + 1]
        if sig2a is None or sig2b is None or ga == 0.0 or gb == 0.0:
            continue
        if (ga > 0.0) == (gb > 0.0):
            continue
        if min(math.sqrt(sig2a), math.sqrt(sig2b)) > gate:
            continue
        root = _bisect(g_of, grid[i], grid[i + 1], ga, refine_width)
        speed = speed_of(root)
        if speed <= accept:
            candidates.append((root, speed))

    found = _cluster_best(candidates, 2.0 * step)
    m_scale = 1.0
    if pair is not None:
        m_scale = max([abs(pair.curvatures(s)[1]) for s in _linspace(pair.domain, 101)] + [1.0])
    out = []
    for s in found:
        out.append(SingularPoint(s=s, cause=_cause(s, pair, Q, m_scale), speed=speed_of(s)))
    return out


def _cause(s: float, pair: LegendrePair | None, Q: MVec3 | None, m_scale: float) -> str:
    if pair is not None:
        _, m = pair.curvatures(s)
        if abs(m) <= 1e-6 * m_scale:
            return "m_zero"
        if Q is not None:
            d = inner(Q, pair.r(s))
            if abs(d + 1.0) <= 1e-9 * max(1.0, abs(d)):
                return "point_on_curve"
    return "other"


def scalar_zeros(value, deriv, domain, samples: int = 1000, tol: float = 1e-7,
                 refine_width: float = 1e-10) -> list[float]:
    """Zeros of a smooth scalar function, including zeros without sign change.

    Works on h = value^2 whose derivative 2*value*deriv changes sign at any
    isolated zero; a candidate is accepted when |value| at the refined root
    is below tol relative to the largest |value| on the grid.  Zeros closer
    than twice the grid step are reported once.
    """
    grid = _linspace(domain, samples)
    step = (domain[1] - domain[0]) / (samples - 1)
    vals = [value(s) for s in grid]
    vmax = max(abs(x) for x in vals)
    if vmax == 0.0:
        return []
    accept = tol * vmax
    gate = 0.05 * vmax

    def g_of(s):
        return 2.0 * value(s) * deriv(s)

    candidates: list[tuple[float, float]] = []
    for s, x in zip(grid, vals):
        if abs(x) <= accept:
            candidates.append((s, abs(x)))
    for i in range(len(grid) - 1):
        ga, gb = g_of(grid[i]), g_of(grid[i + 1])
        if ga == 0.0 or gb == 0.0 or (ga > 0.0) == (gb > 0.0):
            continue
        if min(abs(vals[i]), abs(vals[i + 1])) > gate:
            continue
        root = _bisect(g_of, grid[i], grid[i + 1], ga, refine_width)
        x = abs(value(root))
        if x <= accept:
            candidates.append((root, x))
    return _cluster_best(candidates, 2.0 * step)
