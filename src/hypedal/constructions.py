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
from functools import lru_cache

from . import jets
from .expr import linspace
from .frontal import LegendrePair, _coeff, _truncate, frenet_regular
from .minkowski import GeometryError, MVec3, _vec, inner, require_upper_sheet, wedge

# Q = r(s) within this tolerance, looked for on this grid before inducing from Q
_ON_CURVE_TOL = 1e-9
_ON_CURVE_SAMPLES = 1000

# A zero is accepted where the size is below this fraction of the largest
# size on the grid.
SINGULAR_TOL = 1e-7


class PedalPointOnCurveError(GeometryError):
    """The pedal point coincides with a curve point; induced data undefined."""


class EvoluteDegenerateError(ValueError):
    """|m^2 - ell^2| vanishes: the evolute direction is lightlike."""


class Branch(Enum):
    H2 = "hyperbolic"
    DS2 = "desitter"


def _require_point(Q: MVec3):
    require_upper_sheet(Q, "pedal point")


def _is_curve_point(Q: MVec3, r: MVec3, tol: float) -> bool:
    """Q = r within tol: two upper-sheet points coincide exactly when <Q, r> = -1,
    here |<Q, r> + 1| <= tol * max(1, |<Q, r>|)."""
    d = inner(Q, r)
    return abs(d + 1.0) <= tol * max(1.0, abs(d))


def _require_off_curve(pair: LegendrePair, Q: MVec3):
    # The proxy f = -(<Q, r> + 1) >= 0 touches zero quadratically where Q = r(s),
    # so the grid minimum is refined as a sign change of f' before the test.
    def f(s):
        return -(inner(Q, pair.r(s)) + 1.0)

    def fprime(s):
        return -inner(Q, _coeff(pair.r_jet(s, 1), 1))

    grid = linspace(pair.domain, _ON_CURVE_SAMPLES)
    vals = [f(s) for s in grid]
    i = min(range(len(grid)), key=lambda k: vals[k])
    s_star = grid[i]
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if hi > lo:
        ga, gb = fprime(lo), fprime(hi)
        if ga != 0.0 and gb != 0.0 and (ga > 0.0) != (gb > 0.0):
            s_star = _itp(fprime, lo, hi, ga, gb, 1e-12)
    if _is_curve_point(Q, pair.r(s_star), _ON_CURVE_TOL):
        raise PedalPointOnCurveError(f"pedal point on curve near s={s_star!r}")


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
    """A curve s -> MVec3 derived from a pair, with plain and jet evaluation.

    `jet` runs the function generated from `_formula(pair, Q, s0, order)`
    (`recording.derived_program`), or the formula on the pair's jets where
    that gives no answer.
    """

    kind = "derived"

    def __init__(self, pair: LegendrePair, Q: MVec3 | None):
        self.pair = pair
        self.Q = Q
        self.domain = pair.domain
        self._programs = {}  # order -> `recording.derived_program` of this curve

    def at(self, s: float) -> MVec3:
        raise NotImplementedError

    def jet(self, s0: float, order: int) -> MVec3:
        raise NotImplementedError

    def singular_points(self, samples: int = 1000, tol: float = SINGULAR_TOL):
        return singular_points(self, samples=samples, tol=tol)

    def _formula_args(self):
        """The pair and the point that `_formula` reads."""
        return self.pair, self.Q

    def _run_program(self, s0: float, order: int):
        """(base, the coefficient lists of `_formula`'s jets) at (s0, order) from the
        generated function, or None where there is none or it gives no answer."""
        return _generated(self._programs, order, self._formula, *self._formula_args(), order, s0)

    def _program_jet(self, s0: float, order: int) -> MVec3 | None:
        """`jet` from the generated function, or None where it gives no answer."""
        out = self._run_program(s0, order)
        return None if out is None else _jet_vector(*out)


class PedalCurve(DerivedCurve):
    kind = "pedal"

    @staticmethod
    def _formula(pair, Q, s0, order):
        return pedal_point(Q, pair.v_jet(s0, order))

    def at(self, s: float) -> MVec3:
        return pedal_point(self.Q, self.pair.v(s))

    def jet(self, s0: float, order: int) -> MVec3:
        point = self._program_jet(s0, order)
        return self._formula(self.pair, self.Q, s0, order) if point is None else point

    def induced(self) -> "PedalInducedPair":
        return pedal_induced(self.pair, self.Q)


class OrthotomicCurve(DerivedCurve):
    kind = "orthotomic"

    @staticmethod
    def _formula(pair, Q, s0, order):
        return orthotomic_point(Q, pair.v_jet(s0, order))

    def at(self, s: float) -> MVec3:
        return orthotomic_point(self.Q, self.pair.v(s))

    def jet(self, s0: float, order: int) -> MVec3:
        point = self._program_jet(s0, order)
        return self._formula(self.pair, self.Q, s0, order) if point is None else point

    def induced(self) -> "OrthotomicInducedPair":
        return orthotomic_induced(self.pair, self.Q)


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
    """An induced pair: its r, v and mu are formulas of the source's frame and Q.

    Each jet evaluator runs its formula's generated function, recorded once
    per (class, evaluator, order, shape of the source), or where that gives
    no answer the `Jet` formula, kept in `_formulas`.  The evaluators hold
    what they read, not the pair, so a pair is freed as soon as it is dropped.
    """

    def __init__(self, source: LegendrePair, Q: MVec3, point_formula, dual_formula,
                 frame_formula, name):
        self.source = source
        self.Q = Q

        # each formula runs on the source's floats, at (s), or jets, at (s0, order)
        def point(v_of):
            return lambda *at: point_formula(Q, v_of(*at))

        def framed(formula, r_of, v_of):
            def value(*at):
                rr = r_of(*at)
                vv = v_of(*at)
                return formula(Q, rr, vv, wedge(rr, vv))
            return value

        self._formulas = formulas = (
            point(source.v_jet), framed(dual_formula, source.r_jet, source.v_jet),
            framed(frame_formula, source.r_jet, source.v_jet))
        self._programs = programs = {}  # (evaluator, order) -> `recording.derived_program`
        cls = type(self)

        def generated(which):
            recorded = _induced_formula(cls, which)

            def jet(s0, order):
                out = _generated(programs, (which, order), recorded, source, Q, order, s0)
                return formulas[which](s0, order) if out is None else _jet_vector(*out)
            return jet

        super().__init__(point(source.v), generated(0), framed(dual_formula, source.r, source.v),
                         generated(1), source.domain, name=name,
                         mu=framed(frame_formula, source.r, source.v), mu_jet=generated(2))

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


# keyed by class and evaluator, never by the public point formulas, which a
# tracer may rebind to wrappers after the pair classes were defined
@lru_cache(maxsize=None)
def _induced_formula(cls, which: int):
    """formula(pair, Q, s0, order): jet `which` (0 r, 1 v, 2 mu) of the pair that
    `cls` induces from pair and Q; one function per (cls, which), so that it is
    recorded once per order and shape of the source."""
    def formula(pair, Q, s0, order):
        return cls(pair, Q)._formulas[which](s0, order)
    return formula


def pedal_induced(pair: LegendrePair, Q: MVec3) -> PedalInducedPair:
    _require_point(Q)
    _require_off_curve(pair, Q)
    return PedalInducedPair(pair, Q)


def orthotomic_induced(pair: LegendrePair, Q: MVec3) -> OrthotomicInducedPair:
    _require_point(Q)
    _require_off_curve(pair, Q)
    return OrthotomicInducedPair(pair, Q)


# -- evolute and catacaustic ----------------------------------------------

_DEGENERACY_RTOL = 1e-12


class EvoluteCurve(DerivedCurve):
    """Evolute of a pair; lands on H2 where m^2 > ell^2, on dS2 otherwise.

    On the hyperbolic branch the sign is chosen so x1 > 0 (upper sheet).
    The generated function of a jet stops at the branch decision: ell, m,
    m^2, ell^2, d2 and m r - ell v do not depend on it, and the division
    by sqrt(|d2|) after it runs as a second one, recorded per branch.
    """

    kind = "evolute"

    def __init__(self, pair: LegendrePair, tag_pair: LegendrePair | None = None,
                 Q: MVec3 | None = None, kind: str | None = None):
        super().__init__(tag_pair or pair, Q)
        self.formula_pair = pair
        if kind:
            self.kind = kind

    @staticmethod
    def _squares(ell, m):
        """(m^2, ell^2, d2 = m^2 - ell^2), for floats and jets."""
        mm = m * m
        ll = ell * ell
        return mm, ll, mm - ll

    @staticmethod
    def _branch(s, mm, ll, d2) -> Branch:
        d2c = jets.constant_part(d2)
        scale = max(jets.constant_part(mm), jets.constant_part(ll), 1.0)
        if abs(d2c) <= _DEGENERACY_RTOL * scale:
            raise EvoluteDegenerateError(f"evolute degenerate at s={s!r}")
        return Branch.H2 if d2c > 0.0 else Branch.DS2

    def _branch_split(self, s, ell, m):
        mm, ll, d2 = self._squares(ell, m)
        return self._branch(s, mm, ll, d2), d2

    @staticmethod
    def _scaled(branch, d2, num):
        """num / sqrt(|d2|), num = m r - ell v, for floats and jets."""
        return num / jets.sqrt(d2 if branch is Branch.H2 else -d2)

    @classmethod
    def _place(cls, branch, d2, num):
        """The evolute point: `_scaled`, on the upper sheet on the hyperbolic branch."""
        point = cls._scaled(branch, d2, num)
        if branch is Branch.H2 and jets.constant_part(point.x1) < 0.0:
            return -point
        return point

    @staticmethod
    def _numerator(ell, m, rj, vj, order):
        return m * _truncate(rj, order) - ell * _truncate(vj, order)

    @classmethod
    def _formula(cls, pair, Q, s0, order):
        """What the jet of the evolute computes before the branch decision."""
        ell, m, rj, vj = pair._curvature_frame_jets(s0, order)
        return (*cls._squares(ell, m), *cls._numerator(ell, m, rj, vj, order).components())

    def _formula_args(self):
        return self.formula_pair, None

    def at_with_branch(self, s: float) -> tuple[MVec3, Branch]:
        ell, m = self.formula_pair.curvatures(s)
        branch, d2 = self._branch_split(s, ell, m)
        r = self.formula_pair.r(s)
        v = self.formula_pair.v(s)
        return self._place(branch, d2, m * r - ell * v), branch

    def at(self, s: float) -> MVec3:
        return self.at_with_branch(s)[0]

    def branch(self, s: float) -> Branch:
        return self.at_with_branch(s)[1]

    def jet(self, s0: float, order: int) -> MVec3:
        point = self._program_jet(s0, order)
        if point is not None:
            return point
        ell, m, rj, vj = self.formula_pair._curvature_frame_jets(s0, order)
        branch, d2 = self._branch_split(s0, ell, m)
        return self._place(branch, d2, self._numerator(ell, m, rj, vj, order))

    def _program_jet(self, s0: float, order: int) -> MVec3 | None:
        terms = self._run_program(s0, order)
        if terms is None:
            return None
        base, (mm, ll, d2, *num) = terms
        # the values the formula reaches the decision with, so it decides (or
        # refuses) alike
        branch = self._branch(s0, mm[0], ll[0], d2[0])
        from .recording import evolute_tail

        tail = evolute_tail(branch, order)
        try:
            point = None if tail is None else tail[0]([d2, *num], tail[1])
        except Exception:  # the formula raises what it raises
            return None
        if point is None:
            return None
        if branch is Branch.H2 and point[0][0] < 0.0:
            point = [[-c for c in coeffs] for coeffs in point]
        return _jet_vector(base, point)


def evolute(pair: LegendrePair) -> EvoluteCurve:
    return EvoluteCurve(pair)


def catacaustic(pair: LegendrePair, Q: MVec3) -> EvoluteCurve:
    """Evolute of the orthotomic: the envelope of rays from Q after reflection."""
    induced = orthotomic_induced(pair, Q)
    return EvoluteCurve(induced, tag_pair=pair, Q=Q, kind="catacaustic")


def _generated(programs: dict, key, formula, pair, Q, order: int, s0: float):
    """(base, the coefficient lists of formula(pair, Q, s0, order)) from its
    generated function, made once per `key` of `programs`; None where there is
    none or it gives no answer."""
    program = programs.get(key, False)
    if program is False:
        from .recording import derived_program  # loaded with the first formula it runs

        program = programs[key] = derived_program(formula, pair, Q, order)
    return None if program is None else program(s0)


def _jet_vector(base: float, coeffs) -> MVec3:
    return _vec(*[jets._jet(base, tuple(c)) for c in coeffs])


# -- singular point detection ---------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    s: float
    cause: str  # "m_zero" | "point_on_curve" | "other"
    speed: float


def _itp(fn, lo, hi, flo, fhi, width: float):
    """Narrow a sign change of fn on [lo, hi] (flo = fn(lo), fhi = fn(hi)) to `width`.

    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020), k1 = 0.2 / (hi - lo),
    k2 = 2, n0 = 1: the regula falsi point, moved k1 (hi - lo)^2 towards the
    midpoint and kept near enough to it that at most one probe more than
    bisection's ceil(log2((hi - lo) / width)) is made.  Returns the midpoint
    of the final bracket, no wider than `width` or than 16 ulps of s if that
    is wider, a probe where fn is 0.0, or None where fn is None at a probe.
    """
    k1 = 0.2 / (hi - lo)
    ulp = math.ulp(max(abs(lo), abs(hi)))
    width = max(width, 16.0 * ulp)
    # 8 ulps of the width are held back for the rounding of the probes
    radius = (0.5 * width - 4.0 * ulp) * 2.0 ** (math.ceil(math.log2((hi - lo) / width)) + 1)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        r = radius - 0.5 * (hi - lo)
        radius *= 0.5
        x = (lo * fhi - hi * flo) / (fhi - flo)
        delta = k1 * (hi - lo) ** 2
        x = x + math.copysign(delta, mid - x) if delta <= abs(mid - x) else mid
        if abs(x - mid) > r:
            x = mid - math.copysign(r, mid - x)
        if not lo < x < hi:  # overflow or nan in the interpolation
            x = mid
        fx = fn(x)
        if fx is None:
            return None
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return 0.5 * (lo + hi)


def _zeros(f, domain, samples: int, tol: float):
    """Zeros of a size function on a grid, as (s, size) pairs in increasing s.

    `f(s)` is (size, slope) with size >= 0 and slope changing sign where
    size has an isolated minimum, or None where it is undefined.  Candidates
    are grid points of size below tol relative to the largest size on the
    grid, and sign changes of the slope between grid neighbours of which one
    is below 5 % of that size, refined by `_itp` to 1e-10 and accepted
    under the same threshold; an undefined probe drops its bracket.
    Candidates closer than twice the grid step are reported once, by the one
    of smallest size.  Empty when no grid point has a non-zero size.
    """
    grid = linspace(domain, samples)
    step = (domain[1] - domain[0]) / (samples - 1)
    data = [f(s) for s in grid]
    smax = max([d[0] for d in data if d is not None], default=0.0)
    if smax == 0.0:
        return []
    accept = tol * smax
    gate = 0.05 * smax

    def slope(s):
        value = f(s)
        return None if value is None else value[1]

    candidates = [(s, d[0]) for s, d in zip(grid, data) if d is not None and d[0] <= accept]
    for i in range(len(grid) - 1):
        a, b = data[i], data[i + 1]
        if a is None or b is None or a[1] == 0.0 or b[1] == 0.0 or (a[1] > 0.0) == (b[1] > 0.0):
            continue
        if min(a[0], b[0]) > gate:
            continue
        root = _itp(slope, grid[i], grid[i + 1], a[1], b[1], 1e-10)
        value = None if root is None else f(root)
        if value is not None and value[0] <= accept:
            candidates.append((root, value[0]))

    # a flat zero puts a whole neighbourhood below the threshold
    candidates.sort()
    window = 2.0 * step
    found = []
    for s, size in candidates:
        if found and s - last <= window:
            if size < found[-1][1]:
                found[-1] = (s, size)
        else:
            found.append((s, size))
        last = s
    return found


def singular_points(curve: DerivedCurve, samples: int = 1000,
                    tol: float = SINGULAR_TOL) -> list[SingularPoint]:
    """Locate parameters where the derived curve's velocity vanishes.

    Candidates come from sign changes of d/ds |curve'|^2 on the grid (plus
    direct grid hits); each is refined to 1e-10 by the ITP method and
    accepted when the speed there is below tol relative to the largest
    speed seen.  Parameters where the curve is undefined are gaps.  Zeros
    closer than twice the grid step are reported once.  Each accepted point
    carries a cause tag, read from the curve's `pair` and `Q`.
    """
    def speed(s):
        """|curve'| and d/ds |curve'|^2 at s from the order-2 jet."""
        try:
            V = curve.jet(s, 2)
        except jets.DOMAIN_ERRORS:
            return None
        d1 = (V.x1.coeffs[1], V.x2.coeffs[1], V.x3.coeffs[1])
        d2 = (2.0 * V.x1.coeffs[2], 2.0 * V.x2.coeffs[2], 2.0 * V.x3.coeffs[2])
        return math.sqrt(sum(c * c for c in d1)), 2.0 * sum(a * b for a, b in zip(d1, d2))

    found = _zeros(speed, curve.domain, samples, tol)
    if not found:
        return []
    pair, Q = curve.pair, curve.Q
    m_scale = max([abs(pair.curvatures(s)[1]) for s in linspace(pair.domain, 101)] + [1.0])
    return [SingularPoint(s=s, cause=_cause(s, pair, Q, m_scale), speed=v) for s, v in found]


def _cause(s: float, pair: LegendrePair, Q: MVec3 | None, m_scale: float) -> str:
    _, m = pair.curvatures(s)
    if abs(m) <= 1e-6 * m_scale:
        return "m_zero"
    if Q is not None and _is_curve_point(Q, pair.r(s), _ON_CURVE_TOL):
        return "point_on_curve"
    return "other"


def scalar_zeros(value, deriv, domain, samples: int = 1000,
                 tol: float = SINGULAR_TOL) -> list[float]:
    """Zeros of a smooth scalar function, including zeros without sign change.

    Works on h = value^2 whose derivative 2*value*deriv changes sign at any
    isolated zero; a candidate is refined to 1e-10 by the ITP method and
    accepted when |value| there is below tol relative to the largest |value|
    on the grid.  Zeros closer than twice the grid step are reported once.
    """
    def f(s):
        x = value(s)
        return abs(x), 2.0 * x * deriv(s)

    return [s for s, _ in _zeros(f, domain, samples, tol)]
