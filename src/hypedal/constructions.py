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
from enum import Enum

from . import decide, jets
from .expr import linspace
from .frontal import LegendrePair, _coeff, _generated, _truncate, frenet_regular
from .minkowski import GeometryError, MVec3, _tested_vec, _vec, inner, require_upper_sheet, wedge
from .values import Value

# Q = r(s) within `decide.ON_CURVE_TOL` is looked for on this grid before inducing from Q
_ON_CURVE_SAMPLES = 1000


class PedalPointOnCurveError(GeometryError):
    """The pedal point coincides with a curve point; induced data undefined."""


class EvoluteDegenerateError(ValueError):
    """|m^2 - ell^2| vanishes: the evolute direction is lightlike."""


class Branch(Enum):
    H2 = "hyperbolic"
    DS2 = "desitter"


def _require_point(Q: MVec3):
    require_upper_sheet(Q, "pedal point")


def _off_curve_gap(pair, Q, s, order):
    """(-(<Q, r(s)> + 1), <Q, r(s)>), as a sample formula of `recording.derived_program`."""
    d = inner(Q, pair.r(s))
    return -(d + 1.0), d


def _off_curve_slope(pair, Q, s, order):
    """(-<Q, r'(s)>,), as a sample formula of `recording.derived_program`."""
    return (-inner(Q, _coeff(pair.r_jet(s, 1), 1)),)


def _tape_sample(formula, pair, Q):
    """s -> formula(pair, Q, s, None), a sample formula that reads r alone,
    from its program on the curve's tapes (`recording.derived_program`), a
    read and one generated call per s; the formula where there is none or
    it gives no answer."""
    from .recording import derived_program  # loaded with the first formula it runs

    program = derived_program(formula, pair, Q, None)  # a read of the tapes: it reads r alone

    def at(s):
        out = None if program is None else program(s)
        return formula(pair, Q, s, None) if out is None else out
    return at


def _require_off_curve(pair: LegendrePair, Q: MVec3):
    # The proxy f = -(<Q, r> + 1) >= 0 touches zero quadratically where Q = r(s),
    # so the grid minimum is refined as a sign change of f' before the test.
    gap = _tape_sample(_off_curve_gap, pair, Q)
    slope = _tape_sample(_off_curve_slope, pair, Q)

    def f(s):
        return gap(s)[0]

    def fprime(s):
        return slope(s)[0]

    grid = linspace(pair.domain, _ON_CURVE_SAMPLES)
    vals = [f(s) for s in grid]
    i = min(range(len(grid)), key=lambda k: vals[k])
    s_star = grid[i]
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    if hi > lo:
        ga, gb = fprime(lo), fprime(hi)
        if ga != 0.0 and gb != 0.0 and (ga > 0.0) != (gb > 0.0):
            s_star = _itp(fprime, lo, hi, ga, gb, 1e-12)
    if decide.coincident(gap(s_star)[1], decide.ON_CURVE_TOL):
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
    that gives no answer; with `coeffs` it returns the coefficient lists of
    the three components instead of the jets.  `at` runs the function
    generated from the sample formula `_sample(pair, Q, s, None)` in the
    same way.  With `sample`, `jet` returns (`at`(s0), or None where that is
    undefined, and the jet): where their reads run a tape program in common
    (an auto-dual pair's; an evolute's or caustic's) both come from one
    generated call (`recording.sampled_jet_program`) where it answers, and
    elsewhere from `at` and then `jet`, as two calls give them.  Each
    subclass defines its own `at` and `jet`.
    """

    kind = "derived"

    def __init__(self, pair: LegendrePair, Q: MVec3 | None):
        self.pair = pair
        self.Q = Q
        self.domain = pair.domain
        # order -> `recording.derived_program` of this curve, None -> that of
        # `_sample`, (None, order) -> `recording.sampled_jet_program` of the two
        self._programs = {}

    def _jet(self, s0: float, order: int, coeffs: bool, sample: bool = False):
        """`jet`: from the generated functions, or from the formulas where they give no answer."""
        if sample:
            program = self._sampled_jet_program(order)
            both = None if program is None else program(s0)
            if both is not None:
                base, (floats, lists) = both
                return (_defined(self._at, s0, floats),
                        self._jet_of(s0, order, coeffs, (base, lists)))
            # `at` first, then the jet, as two calls run them
            return _defined(self.at, s0), self._jet_of(s0, order, coeffs,
                                                       self._run_program(s0, order))
        return self._jet_of(s0, order, coeffs, self._run_program(s0, order))

    def _jet_of(self, s0: float, order: int, coeffs: bool, terms):
        """`jet` from `terms`, what `_run_program` gives at (s0, order), or from
        `_formula_jet` where they give no answer."""
        out = self._program_coeffs(s0, order, terms)
        if out is not None:
            return out[1] if coeffs else _jet_vector(*out)
        point = self._formula_jet(s0, order)
        return tuple(list(j.coeffs) for j in point.components()) if coeffs else point

    def _formula_jet(self, s0: float, order: int) -> MVec3:
        return self._formula(*self._formula_args(), s0, order)

    def _sampled(self, s: float):
        """The floats `_sample` returns at s, from its generated function, or None."""
        return _generated(self._programs, None, self._sample, *self._formula_args(), None, s)

    def _sampled_jet_program(self, order: int):
        """`recording.sampled_jet_program` of `_sample` and of `_formula` at
        `order`, made once: program(s0) -> (base, (what `_sampled` gives at
        s0, the lists of what `_run_program` gives at (s0, order))) or None;
        None where there is none."""
        key = (None, order)
        program = self._programs.get(key, False)
        if program is False:
            from .recording import derived_program, sampled_jet_program

            args = self._formula_args()
            program = self._programs[key] = sampled_jet_program(
                derived_program(self._sample, *args, None),
                derived_program(self._formula, *args, order))
        return program

    def singular_points(self, samples: int = 1000, tol: float = decide.SINGULAR_TOL,
                        points: list | None = None):
        return singular_points(self, samples=samples, tol=tol, points=points)

    def _formula_args(self):
        """The pair and the point that `_formula` reads."""
        return self.pair, self.Q

    def _run_program(self, s0: float, order: int):
        """(base, the coefficient lists of `_formula`'s jets) at (s0, order) from the
        generated function, or None where there is none or it gives no answer."""
        return _generated(self._programs, order, self._formula, *self._formula_args(), order, s0)

    def _program_coeffs(self, s0: float, order: int, terms):
        """(base, the coefficient lists of `jet`) from `terms`, what
        `_run_program` gives at (s0, order), or None where they give no answer."""
        return terms

    def _at(self, s: float, out) -> MVec3:
        """`at` of a curve whose sample is a point formula, `_sample`, from
        `out`, what `_sampled` gives at s."""
        return self._sample(*self._formula_args(), s, None) if out is None else _tested_vec(*out)


class PedalCurve(DerivedCurve):
    kind = "pedal"

    @staticmethod
    def _formula(pair, Q, s0, order):
        return pedal_point(Q, pair.v_jet(s0, order))

    @staticmethod
    def _sample(pair, Q, s, order):
        return pedal_point(Q, pair.v(s))

    def at(self, s: float) -> MVec3:
        return self._at(s, self._sampled(s))

    def jet(self, s0: float, order: int, coeffs: bool = False, sample: bool = False) -> MVec3:
        return self._jet(s0, order, coeffs, sample)

    def induced(self) -> "PedalInducedPair":
        return pedal_induced(self.pair, self.Q)


class OrthotomicCurve(DerivedCurve):
    kind = "orthotomic"

    @staticmethod
    def _formula(pair, Q, s0, order):
        return orthotomic_point(Q, pair.v_jet(s0, order))

    @staticmethod
    def _sample(pair, Q, s, order):
        return orthotomic_point(Q, pair.v(s))

    def at(self, s: float) -> MVec3:
        return self._at(s, self._sampled(s))

    def jet(self, s0: float, order: int, coeffs: bool = False, sample: bool = False) -> MVec3:
        return self._jet(s0, order, coeffs, sample)

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
    """An induced pair: its r, v and mu are formulas of the source's frame and
    Q, run on the source's floats, at (s), or jets, at (s0, order).  Inside a
    derived curve's recorded function they are recorded with the curve's
    formula (`recording.derived_program` walks the chain of induced pairs),
    so they have no generated function of their own.  The evaluators hold
    what they read, not the pair, so a pair is freed as soon as it is dropped.
    """

    def __init__(self, source: LegendrePair, Q: MVec3, point_formula, dual_formula,
                 frame_formula, name):
        self.source = source
        self.Q = Q

        def point(v_of):
            return lambda *at: point_formula(Q, v_of(*at))

        def framed(formula, r_of, v_of):
            def value(*at):
                rr = r_of(*at)
                vv = v_of(*at)
                return formula(Q, rr, vv, wedge(rr, vv))
            return value

        super().__init__(point(source.v), point(source.v_jet),
                         framed(dual_formula, source.r, source.v),
                         framed(dual_formula, source.r_jet, source.v_jet), source.domain,
                         name=name, mu=framed(frame_formula, source.r, source.v),
                         mu_jet=framed(frame_formula, source.r_jet, source.v_jet))


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


def pedal_induced(pair: LegendrePair, Q: MVec3) -> PedalInducedPair:
    _require_point(Q)
    _require_off_curve(pair, Q)
    return PedalInducedPair(pair, Q)


def orthotomic_induced(pair: LegendrePair, Q: MVec3) -> OrthotomicInducedPair:
    _require_point(Q)
    _require_off_curve(pair, Q)
    return OrthotomicInducedPair(pair, Q)


# -- evolute and catacaustic ----------------------------------------------


class EvoluteCurve(DerivedCurve):
    """Evolute of a pair; lands on H2 where m^2 > ell^2, on dS2 otherwise.

    On the hyperbolic branch the sign is chosen so x1 > 0 (upper sheet).
    A jet or a sample is one generated function, of `_formula` or of
    `_sample`: it returns the branch sign (1.0 on H2, -1.0 on dS2) with the
    point, or the sign 0.0 alone where the branch is degenerate, which
    raises as `_branch` does.  `_formula_jet` and `_at_with_branch` run the
    `Jet`/`MVec3` formulas where it gives no answer.
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
    def _branch(s, mm, ll) -> Branch:
        """The branch of the constant terms of m^2 and ell^2, whose difference is d2's."""
        mm, ll = jets.constant_part(mm), jets.constant_part(ll)
        d2 = mm - ll
        if decide.degenerate(d2, mm, ll):
            raise _degenerate(s)
        return Branch.H2 if d2 > 0.0 else Branch.DS2

    def _branch_split(self, s, ell, m):
        mm, ll, d2 = self._squares(ell, m)
        return self._branch(s, mm, ll), d2

    @staticmethod
    def _place(branch, d2, num):
        """The evolute point num / sqrt(|d2|), num = m r - ell v, on the upper
        sheet on the hyperbolic branch, for floats and jets."""
        point = num / jets.sqrt(d2 if branch is Branch.H2 else -d2)
        if branch is Branch.H2 and jets.constant_part(point.x1) < 0.0:
            return -point
        return point

    @staticmethod
    def _numerator(ell, m, r, v):
        """m r - ell v, for floats and jets."""
        return m * r - ell * v

    @staticmethod
    def _signed(ell, m, num):
        """(branch sign, the point's components): `_branch` and `_place` as
        recorded on `recording.Node`s or `Scalar`s, whose signs are steps
        of the program (`program._f_branch`)."""
        mm, ll, d2 = EvoluteCurve._squares(ell, m)
        sign = mm.branch_sign(ll)
        point = num / jets.sqrt(d2.flip(sign))
        upper = sign.sheet_sign(point.x1)
        return (sign, *(c.flip(upper) for c in point.components()))

    @classmethod
    def _formula(cls, pair, Q, s0, order):
        """The recorded jet of the evolute, with its branch sign."""
        ell, m, rj, vj = pair._curvature_frame_jets(s0, order)
        return cls._signed(ell, m, cls._numerator(ell, m, _truncate(rj, order),
                                                  _truncate(vj, order)))

    @classmethod
    def _sample(cls, pair, Q, s, order):
        """The recorded sample of the evolute, with its branch sign."""
        ell, m = pair.curvatures(s)
        return cls._signed(ell, m, cls._numerator(ell, m, pair.r(s), pair.v(s)))

    def _formula_args(self):
        return self.formula_pair, None

    def at_with_branch(self, s: float) -> tuple[MVec3, Branch]:
        return self._at_with_branch(s, self._sampled(s))

    def _at_with_branch(self, s: float, out) -> tuple[MVec3, Branch]:
        """`at_with_branch` from `out`, what `_sampled` gives at s."""
        if out is not None:
            sign, *point = _answered(s, out)
            return _tested_vec(*point), _BRANCHES[sign]
        ell, m = self.formula_pair.curvatures(s)
        branch, d2 = self._branch_split(s, ell, m)
        r = self.formula_pair.r(s)
        v = self.formula_pair.v(s)
        return self._place(branch, d2, self._numerator(ell, m, r, v)), branch

    def at(self, s: float) -> MVec3:
        return self.at_with_branch(s)[0]

    def _at(self, s: float, out) -> MVec3:
        return self._at_with_branch(s, out)[0]

    def branch(self, s: float) -> Branch:
        return self.at_with_branch(s)[1]

    def jet(self, s0: float, order: int, coeffs: bool = False, sample: bool = False) -> MVec3:
        return self._jet(s0, order, coeffs, sample)

    def _formula_jet(self, s0: float, order: int) -> MVec3:
        ell, m, rj, vj = self.formula_pair._curvature_frame_jets(s0, order)
        branch, d2 = self._branch_split(s0, ell, m)
        num = self._numerator(ell, m, _truncate(rj, order), _truncate(vj, order))
        return self._place(branch, d2, num)

    def _program_coeffs(self, s0: float, order: int, terms):
        if terms is None:
            return None
        base, out = terms
        return base, _answered(s0, out)[1:]


_BRANCHES = {1.0: Branch.H2, -1.0: Branch.DS2}  # of a branch sign


def _degenerate(s) -> EvoluteDegenerateError:
    return EvoluteDegenerateError(f"evolute degenerate at s={s!r}")


def _answered(s, out):
    """What an evolute's generated function answered at s, (branch sign, the
    point's components); raises where the sign is 0.0, degenerate."""
    if not out[0]:
        raise _degenerate(s)
    return out


def evolute(pair: LegendrePair) -> EvoluteCurve:
    return EvoluteCurve(pair)


def catacaustic(pair: LegendrePair, Q: MVec3) -> EvoluteCurve:
    """Evolute of the orthotomic: the envelope of rays from Q after reflection."""
    induced = orthotomic_induced(pair, Q)
    return EvoluteCurve(induced, tag_pair=pair, Q=Q, kind="catacaustic")


def _jet_vector(base: float, coeffs) -> MVec3:
    return _vec(*[jets._jet(base, tuple(c)) for c in coeffs])


def _defined(fn, *args):
    """fn(*args), or None where it raises a math domain error."""
    try:
        return fn(*args)
    except jets.DOMAIN_ERRORS:
        return None


# -- singular point detection ---------------------------------------------


class SingularPoint(Value):
    _fields = ("s", "cause", "speed")

    def __init__(self, s: float, cause: str, speed: float):
        fields = self.__dict__
        fields["s"] = s
        fields["cause"] = cause  # "m_zero" | "point_on_curve" | "other"
        fields["speed"] = speed


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
        try:
            delta = k1 * (hi - lo) ** 2
            x = x + math.copysign(delta, mid - x) if delta <= abs(mid - x) else mid
        except OverflowError:  # a bracket wider than about 1.3e154: the midpoint step
            x = mid
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


def _zeros(f, domain, samples: int, tol: float, on_grid=None):
    """Zeros of a size function on a grid, as (s, size) pairs in increasing s.

    `f(s)` is (size, slope) with size >= 0 and slope changing sign where
    size has an isolated minimum, or None where it is undefined.  Candidates
    are grid points of size below tol relative to the largest size on the
    grid, and sign changes of the slope between grid neighbours of which one
    is below `decide.CANDIDATE_GATE` of it, refined by `_itp` to 1e-10 and
    accepted under the same threshold; an undefined probe drops its bracket.
    Candidates closer than twice the grid step are reported once, by the one
    of smallest size.  Empty when no grid point has a non-zero size.
    `on_grid`, where given, is called in place of f at the grid points, in
    increasing s.
    """
    grid = linspace(domain, samples)
    step = (domain[1] - domain[0]) / (samples - 1)
    data = [(on_grid or f)(s) for s in grid]
    smax = max([d[0] for d in data if d is not None], default=0.0)
    if smax == 0.0:
        return []
    accept = tol * smax
    gate = decide.CANDIDATE_GATE * smax

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


def singular_points(curve: DerivedCurve, samples: int = 1000, tol: float = decide.SINGULAR_TOL,
                    points: list | None = None) -> list[SingularPoint]:
    """Locate parameters where the derived curve's velocity vanishes.

    Candidates come from sign changes of d/ds |curve'|^2 on the grid (plus
    direct grid hits); each is refined to 1e-10 by the ITP method and
    accepted when the speed there is below tol relative to the largest
    speed seen.  Parameters where the curve is undefined are gaps.  Zeros
    closer than twice the grid step are reported once.  Each accepted point
    carries a cause tag, read from the curve's `pair` and `Q`, against the
    scale of m on the pair (`_m_scale`), which is computed once per curve,
    domain and dual for a pair of `LegendrePair.from_curve` or
    `with_auto_dual` and kept with the curve's shared tapes: a process that
    scans derived curves of the same curve again reuses it.

    Where `points` is a list, the curve's samples on the grid, `at`(s) or
    None where that is undefined, are appended to it, as sampling the grid
    before the scan gives them, or raises.  Where one generated call reads
    both (`DerivedCurve._sampled_jet_program`), each comes from the scan's
    `jet` call with `sample` at its grid point; elsewhere the grid is
    sampled first, which is faster than alternating two generated functions.
    """
    lists = isinstance(curve, DerivedCurve)  # else any object with a `jet`

    def speed(s, V=None):
        """|curve'| and d/ds |curve'|^2 at s from the coefficient lists V of the
        order-2 jet, read here where they are not given."""
        try:
            if V is None:
                V = (curve.jet(s, 2, coeffs=True) if lists
                     else [j.coeffs for j in curve.jet(s, 2).components()])
        except jets.DOMAIN_ERRORS:
            return None
        x, y, z = V[0][1], V[1][1], V[2][1]
        # sums from +0.0, left to right: builtin sum() compensates a float sum
        # from Python 3.12 on, which would make their last bits depend on it
        return (math.sqrt(0.0 + x * x + y * y + z * z),
                2.0 * (0.0 + x * (2.0 * V[0][2]) + y * (2.0 * V[1][2]) + z * (2.0 * V[2][2])))

    def sampled(s):
        """`speed` at the grid point s, its sample appended to `points`."""
        try:
            point, V = curve.jet(s, 2, coeffs=True, sample=True)
        except jets.DOMAIN_ERRORS:
            points.append(_defined(curve.at, s))
            return None
        except Exception:
            # sampling the grid first would raise the first such error of `at`
            for t in linspace(curve.domain, samples)[len(points):]:
                points.append(_defined(curve.at, t))
            raise
        points.append(point)
        return speed(s, V)

    one_pass = points is not None and lists and curve._sampled_jet_program(2) is not None
    if points is not None and not one_pass:
        points += [_defined(curve.at, s) for s in linspace(curve.domain, samples)]
    found = _zeros(speed, curve.domain, samples, tol, sampled if one_pass else None)
    if not found:
        return []
    pair, Q = curve.pair, curve.Q
    m_scale = _m_scale(pair)
    return [SingularPoint(s=s, cause=_cause(s, pair, Q, m_scale), speed=v) for s, v in found]


def _m_scale(pair: LegendrePair) -> float:
    """The largest |m| at 101 points of the pair's domain, and 1.0: the scale of
    the cause tags, kept with the curve's shared tapes for a pair of
    `from_curve` or `with_auto_dual` (`LegendrePair._kept`); any other pair
    computes it at each call."""
    def scale():
        m = [_m_or_none(pair, s) for s in linspace(pair.domain, 101)]
        return max([abs(x) for x in m if x is not None] + [1.0])

    if not isinstance(pair, LegendrePair):  # a stand-in with `domain` and `curvatures`
        return scale()
    return pair._kept("cause scale", scale)


def _m_or_none(pair: LegendrePair, s: float):
    """m at s, or None where it is undefined: a gap, as in the scan."""
    try:
        return pair.curvatures(s)[1]
    except jets.DOMAIN_ERRORS:
        return None


def _cause(s: float, pair: LegendrePair, Q: MVec3 | None, m_scale: float) -> str:
    _, m = pair.curvatures(s)
    if abs(m) <= decide.M_ZERO_TOL * m_scale:
        return "m_zero"
    if Q is not None and decide.coincident(_tape_sample(_off_curve_gap, pair, Q)(s)[1],
                                           decide.ON_CURVE_TOL):
        return "point_on_curve"
    return "other"


def scalar_zeros(value, deriv, domain, samples: int = 1000,
                 tol: float = decide.SINGULAR_TOL) -> list[float]:
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
