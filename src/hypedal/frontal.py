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

from . import decide, jets
from .expr import _INLINE_WIDTH, linspace
from .jets import Jet, require_finite
from .minkowski import MVec3, _tested_vec, _vec, det3, inner, wedge


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
        self._r_curve = None  # the curve whose tape gives r (`from_curve`, `with_auto_dual`)
        self._dual = None  # the `AutoDual` that gives v (`with_auto_dual`)
        self._kept_key = None  # (pair kind, key) of `_kept` (`from_curve`, `with_auto_dual`)
        self._samplers = {}  # sample formula -> `recording.derived_program`

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
        pair._curve = pair._r_curve = curve
        pair._kept_key = ("from_curve", _domain_bits(pair.domain))
        return pair

    @classmethod
    def with_auto_dual(cls, curve) -> "LegendrePair":
        dual = AutoDual(curve)
        pair = cls(curve.point, curve.point_jet, dual, dual.jet, curve.domain, name=curve.name)
        pair._r_curve, pair._dual = curve, dual
        pair._kept_key = ("with_auto_dual", dual._key)
        return pair

    def _kept(self, product, make):
        """make(), for a pair of `from_curve` or `with_auto_dual` kept with its
        curve's shared tapes (`ParametricCurve._kept`) under the product and
        the pair kind: such a pair's frame depends on the curve's expressions
        and `_kept_key` (the domain's bits, or the dual's `AutoDual._key`)
        alone, so a later pair of the same kind reuses it.  Any other pair
        (induced, reparametrized, built by hand) runs make() at each call."""
        if self._kept_key is None:
            return make()
        kind, key = self._kept_key
        return self._r_curve._kept((product, kind), key, make)

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
        """The pair (ell, m) = (<r', mu>, <v', mu>) at s, from the generated
        function of `_curvatures`, or that formula where it gives no answer."""
        out = _generated(self._samplers, _curvatures, _curvatures, self, None, None, s)
        return _curvatures(self, None, s, None) if out is None else (out[0], out[1])

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

    def validate(self, samples: int = 1000, tol: float = decide.VALIDATE_TOL) -> ValidationReport:
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
                frame = _generated(self._samplers, _frame, _frame, self, None, None, s)
                if frame is None:
                    frame = _frame(self, None, s, None)
            except jets.DOMAIN_ERRORS as exc:
                raise jets.at_parameter(exc, s) from None
            r1, r2, r3, d1, d2, d3, v1, v2, v3 = frame
            nr = max(1.0, abs(r1), abs(r2), abs(r3))
            nv = max(1.0, abs(v1), abs(v2), abs(v3))
            nd = max(1.0, abs(d1), abs(d2), abs(d3))
            # `inner`'s float operations, in its order
            rr = -(r1 * r1) + r2 * r2 + r3 * r3
            vv = -(v1 * v1) + v2 * v2 + v3 * v3
            rv = -(r1 * v1) + r2 * v2 + r3 * v3
            dv = -(d1 * v1) + d2 * v2 + d3 * v3
            worst["r_unit"] = max(worst["r_unit"], abs(rr + 1.0) / (nr * nr))
            worst["v_unit"] = max(worst["v_unit"], abs(vv - 1.0) / (nv * nv))
            worst["rv_orth"] = max(worst["rv_orth"], abs(rv) / (nr * nv))
            worst["tangency"] = max(worst["tangency"], abs(dv) / (nd * nv))
        return ValidationReport(worst, tol, samples)


def _frame(pair, Q, s, order):
    """r(s), r'(s) and v(s), nine floats: `validate`'s reads, r and r' from r's
    jet of order 1; a sample formula of `recording.derived_program`."""
    rj = pair._r_jet(s, 1)
    return (*_const(rj).components(), *_coeff(rj, 1).components(), *pair._v(s).components())


def _curvatures(pair, Q, s, order):
    """`LegendrePair.curvatures`, as a sample formula of `recording.derived_program`."""
    rj = pair._r_jet(s, 1)
    vj = pair._v_jet(s, 1)
    mu0 = pair.mu(s)
    return inner(_coeff(rj, 1), mu0), inner(_coeff(vj, 1), mu0)


def _generated(programs: dict, key, formula, pair, Q, order, s0):
    """What the generated function of formula(pair, Q, s0, order) returns
    (`recording.derived_program`), made once per `key` of `programs`; None
    where there is none or it gives no answer."""
    program = programs.get(key, False)
    if program is False:
        from .recording import derived_program  # loaded with the first formula it runs

        program = programs[key] = derived_program(formula, pair, Q, order)
    return None if program is None else program(s0)


def frenet_regular(curve, s: float) -> FrenetData:
    """Unit tangent, normal and geodesic curvature of a regular curve point.

    kappa = det(r, r', r'') / |r'|^3; defined only where the speed exceeds
    `decide.REGULARITY_RTOL` times the domain scale.
    """
    rj = curve.point_jet(s, 2)
    r0 = _const(rj)
    rd = _coeff(rj, 1)
    rdd = 2.0 * _coeff(rj, 2)
    speed_sq = inner(rd, rd)
    a, b = curve.domain
    scale = max(1.0, b - a)
    if speed_sq <= (decide.REGULARITY_RTOL * scale) ** 2:
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
    continuity along a precomputed grid of min(samples, 400) points; the
    first sample is oriented so its x3 component (or first non-zero
    component) is positive.  The signed grid depends on r's expressions, the
    domain and its size alone, so it is kept with the curve's shared tapes
    (`ParametricCurve._kept`): a process that builds the dual of the same
    curve again, from a fresh load of its file too, reuses it, and a one-shot
    CLI process builds it once, as before.  The sign grid, a float dual, a
    dual jet and every input of an auto-dual pair's derived-curve programs
    (`hypedal.recording`) come from one generated function of s per set of
    inputs (`auto_dual_read`), kept with the curve's tapes, which keeps
    nothing per point: it reads r's lists at degree 17 or more
    (`_jet_degree`) and r's floats, each from one call of the curve's read
    of them (`program.tape_read`), decides p for each dual at its own
    degree, and factors, normalizes and signs it.  A derived curve's sample
    and order-2 jet at a grid point of its singular-point scan share one
    read of the union of their inputs (`recording.sampled_jet_program`), so
    a derived-curve command reads r once per grid point.  Where the read
    gives no answer, the `Jet` formula runs on the curve's own reads, with p
    decided by `_leading`.
    """

    def __init__(self, curve):
        self.curve = curve
        self._n = n = min(curve.samples, 400)
        # the grid's duals depend on r's expressions, the domain's bits (-0.0
        # is not 0.0) and n alone, so they are kept with the curve's tapes
        self._key = (*_domain_bits(curve.domain), n)
        self._signed = curve._kept("sign grid", self._key, self._signed_grid)

    def _signed_grid(self) -> memoryview:
        """The duals on the sign grid, signed by continuity from the first, as
        x1, x2, x3 of each point one after another: 3n doubles in one
        buffer, a memoryview of a bytearray (importing `array` instead would
        load a shared library into every process that loads this module)."""
        signed = memoryview(bytearray(24 * self._n)).cast("d")
        for j, s in enumerate(self.curve.grid(self._n)):
            try:
                x1, x2, x3 = self._raw(s)
            except jets.DOMAIN_ERRORS as exc:
                raise jets.at_parameter(exc, s) from None
            if not j:
                pick = x3
                if abs(pick) <= decide.DUAL_PICK_TOL * max(1.0, abs(x1), abs(x2), abs(x3)):
                    pick = x1 if abs(x1) > abs(x2) else x2
                sign = -1.0 if pick < 0.0 else 1.0
                x1, x2, x3 = x1 * sign, x2 * sign, x3 * sign
            elif x1 * signed[3 * j - 3] + x2 * signed[3 * j - 2] + x3 * signed[3 * j - 1] < 0.0:
                x1, x2, x3 = -x1, -x2, -x3  # the Euclidean dot product above is negative
            signed[3 * j], signed[3 * j + 1], signed[3 * j + 2] = x1, x2, x3
        return signed

    def _leading(self, s: float, order: int):
        """(p, r, r'): the vanishing power p of r' at s and the lists it is
        decided on: r's of order `order` + 1, read from the curve's tape
        (`ParametricCurve._tape_values`), and their derivatives, as
        `Jet.d_ds` computes and checks them."""
        r = self.curve._tape_values(0, s, order + 1)
        rd = [require_finite(c) for c in _derivative(r)]
        p = _vanishing_power(rd)
        if p is None:
            raise DualUndeterminedError(f"dual undetermined at s={s!r}")
        return p, r, rd

    def _read(self, leaves: tuple, top: int, s, sign_at):
        """What the generated read of `leaves` at degree `top` gives at s with
        sign_at(s, dual) as the sign of each dual (`auto_dual_read`):
        a flat list of each leaf's three values; None where there is no read,
        or it gives no answer (`jets.answer`)."""
        read = auto_dual_read(self.curve._tape_set(), leaves, top)
        return None if read is None else jets.answer(read, s, sign_at)

    def _raw(self, s: float) -> tuple:
        """wedge(r, w / sqrt(<w, w>)) at s, w the p-th coefficients of r', as a
        float triple (the dual before its sign); see `_float`."""
        return self._float(s, _unsigned)

    def _float(self, s: float, sign_at) -> tuple:
        """The float dual at s times sign_at(s, it), as a triple, from the
        generated read, or, where that gives no answer, from `_leading`'s
        lists, which raises what it raises."""
        out = self._read(_FLOAT_LEAF, _jet_degree(None), s, sign_at)
        if out is not None:
            return tuple(out)
        p, r, rd = self._leading(s, jets.DEFAULT_ORDER)
        raw = _unit_wedge(r, rd, p)
        if raw is None:
            raise DualUndeterminedError(f"dual undetermined at s={s!r}")
        _vec(*raw)  # refuses a non-finite component
        sign = sign_at(s, raw)
        return tuple(x * sign for x in raw)

    def _sign_at(self, s: float, raw_value) -> float:
        """The sign of the float triple `raw_value`, the dual at s before its
        sign, that continues the sign grid."""
        a, b = self.curve.domain
        n = self._n
        idx = round((s - a) / (b - a) * (n - 1))
        j = 3 * min(max(idx, 0), n - 1)
        g = self._signed
        u1, u2, u3 = raw_value
        return 1.0 if u1 * g[j] + u2 * g[j + 1] + u3 * g[j + 2] >= 0.0 else -1.0  # Euclidean dot

    def __call__(self, s: float) -> MVec3:
        return _tested_vec(*self._float(s, self._sign_at))

    def jet(self, s0: float, order: int) -> MVec3:
        """The dual jet from the generated read of its leaf; where that gives no
        answer, the `Jet` formula, with p from `_leading`."""
        degree = _jet_degree(order)
        out = self._read((("v", order),), degree, s0, self._sign_at)
        if out is not None:
            base = float(s0)
            return _vec(*(jets._jet(base, tuple(c)) for c in out))
        p = self._leading(s0, degree - 1)[0]
        if order + 1 + p > jets.MAX_ORDER:
            raise DualUndeterminedError(
                f"dual undetermined at s={s0!r}: r' vanishes to order {p}, which needs a "
                f"jet of order {order + 1 + p}, above the maximum {jets.MAX_ORDER}"
            )
        rj = self.curve.point_jet(s0, order + 1 + p)
        # divide the derivative germ by (s - s0)^p: drop the first p coefficients
        w = _d(rj).map(lambda j: Jet(j.base, j.coeffs[p : p + order + 1]))
        vj = _unit_normal(_truncate(rj, order), w)
        sign = self._sign_at(s0, _const(vj).components())
        return sign * vj


_FLOAT_LEAF = (("v", None),)  # the one leaf of the float dual's read


def _unsigned(s, dual) -> float:
    """The sign of a dual read without its sign, such as the sign grid's."""
    return 1.0


def _jet_degree(order) -> int:
    """The degree of r's lists on which `AutoDual` decides p for its jet of
    `order`, or its float dual where `order` is None."""
    return max(jets.DEFAULT_ORDER, (order or 0) + 2) + 1


def _derivative(r) -> list:
    """The coefficient lists of r', as `Jet.d_ds` computes them from r's."""
    return [[(i + 1) * c[i + 1] for i in range(len(c) - 1)] for c in r]


def _unit_normal(r: MVec3, w: MVec3) -> MVec3:
    """wedge(r, w / sqrt(<w, w>)): `AutoDual`'s dual jet before its sign."""
    return wedge(r, w / jets.sqrt(inner(w, w)))


def _vanishing_power(rd) -> int | None:
    """The power p that `AutoDual` divides r' by: the least
    `decide.first_nonzero` of r''s three coefficient lists at
    `decide.FLAT_TOL`, each list searched below the p found so far; None
    where all three vanish."""
    p = None
    for c in rd:
        if p == 0:  # no coefficient is below it
            break
        i = decide.first_nonzero(c, decide.FLAT_TOL, p)
        if i is not None:
            p = i
    return p


def _unit_wedge(r, rd, p: int):
    """wedge(r0, w / sqrt(<w, w>)) in floats, r0 the constant terms of r's
    coefficient lists and w the p-th coefficients of r''s; None where
    <w, w> <= 0."""
    w1, w2, w3 = (c[p] for c in rd)
    q = -(w1 * w1) + w2 * w2 + w3 * w3  # inner(w, w)
    if q <= 0.0:
        return None
    n = math.sqrt(q)
    u1, u2, u3 = w1 / n, w2 / n, w3 / n
    r1, r2, r3 = r[0][0], r[1][0], r[2][0]
    return (-(r2 * u3) + r3 * u2, r3 * u1 - r1 * u3, -(r2 * u1) + r1 * u2)  # wedge(r0, u)


def auto_dual_read(tapes, leaves: tuple, top: int):
    """read(s, sign_at) -> the values of `leaves`, each (kind, order) of an
    auto-dual pair: r ("r") or its dual ("v"), a jet of that order, or the
    floats where it is None; three values a leaf, flattened, or None where
    one is not given.  A generated function of float(s) (`_read_lines`),
    made once per curve's tapes (`ParametricCurve._tape_set`), leaves and
    `top`, the degree of the one read of r's jet tape; None where there is
    none.  Each dual's sign is sign_at(s, its value or constant terms), as
    `AutoDual._sign_at` gives it."""
    key = ("auto-dual read", leaves, top)
    reads = tapes[2]
    if key not in reads:
        bound = {"vanishing_power": _vanishing_power, "unit_wedge": _unit_wedge}
        lines = _read_lines(tapes, leaves, top, bound)
        reads[key] = None if lines is None else jets.compile_lines(
            "_read", "s, sign_at", lines, bound)
    return reads[key]


def _read_lines(tapes, leaves: tuple, top: int, bound: dict):
    """The lines of `auto_dual_read`'s function, calling the functions they
    add to `bound`, or None where a tape program or a dual jet's program
    does not inline.  The dual of order k is `AutoDual.jet`'s: p decided by
    `_vanishing_power` on r''s lists to `_jet_degree`(k), w = coefficients
    p to p + k of r', `recording.auto_dual_program`(k)'s function on r and w
    (`_unit_wedge` for the floats), times the sign (+ 0.0 for a jet); r's
    jets are truncated from its read at `top`, its floats are their own
    read (`program.tape_read`, as `ParametricCurve._tape_values` reads them).
    It is written here, not generated by `hypedal.program`, because p
    depends on the data: which coefficients of r' make w is decided at run
    time, so the read is not straight-line code."""
    orders = [k for kind, k in leaves if kind == "v"]
    if top > jets.MAX_ORDER or any(k is not None and k < 0 for k in orders):
        return None
    lines = ["s = float(s)", "if not isfinite(s): return None"]
    from .program import tape_read  # loaded with the first program generated

    if ("r", None) in leaves:
        floats = tape_read(tapes, ((0, None, 0), (0, None, 1), (0, None, 2)))
        if floats is None:
            return None
        bound["floats"] = floats[0]
        lines += ["f = floats(s, None)", "if f is None: return None"]
        r_floats = ["f[0]", "f[1]", "f[2]"]
    if orders or any(k is not None for _, k in leaves):
        read = tape_read(tapes, ((0, top, 0), (0, top, 1), (0, top, 2)))
        if read is None:
            return None
        bound["tape"] = read[0]
        lines += ["t = tape(s, None)", "if t is None: return None", "r0, r1, r2 = t"]
    if orders:
        # r''s lists as `_derivative` computes them
        lines += [f"d{c} = [{', '.join(f'{j}*r{c}[{j}]' for j in range(1, top + 1))}]"
                  for c in range(3)]
        lines.append("if not isfinite(sum(d0) + sum(d1) + sum(d2)): return None")
        for degree in sorted({_jet_degree(k) for k in orders}):
            rd = ", ".join(f"d{c}" if degree == top else f"d{c}[:{degree}]" for c in range(3))
            lines += [f"p{degree} = vanishing_power(({rd}))", f"if p{degree} is None: return None"]
    values = []
    for n, (kind, k) in enumerate(leaves):
        names = [f"v{n}_{c}" for c in range(3)]
        if kind == "r":
            values += r_floats if k is None else [
                f"r{c}" if k == top else f"r{c}[:{k + 1}]" for c in range(3)]
            continue
        p = f"p{_jet_degree(k)}"
        if k is None:
            lines += [f"u = unit_wedge((r0, r1, r2), (d0, d1, d2), {p})",
                      "if u is None: return None",
                      "if not isfinite(u[0] + u[1] + u[2]): return None",
                      "g = sign_at(s, u)"]
            lines += [f"{name} = u[{c}] * g" for c, name in enumerate(names)]
        else:
            from .recording import auto_dual_program  # loaded with the first dual jet read

            recorded = auto_dual_program(k)
            if recorded is None:
                return None
            bound[f"normal{k}"], bound[f"normal{k}_k"] = recorded[:2]
            lines += [f"w{c} = d{c}[{p}:{p} + {k + 1}]" for c in range(3)]
            lines += [f"if len(w0) <= {k}: return None",
                      f"u = normal{k}((r0[:{k + 1}], r1[:{k + 1}], r2[:{k + 1}], w0, w1, w2), "
                      f"normal{k}_k)",
                      "if u is None: return None",
                      "u0, u1, u2 = u",
                      "g = sign_at(s, (u0[0], u1[0], u2[0]))"]
            lines += [f"{name} = [{', '.join(f'u{c}[{i}] * g + 0.0' for i in range(k + 1))}]"
                      if k < _INLINE_WIDTH else f"{name} = [x * g + 0.0 for x in u{c}]"
                      for c, name in enumerate(names)]
        values += names
    lines.append(f"return [{', '.join(values)}]")
    return lines


def _domain_bits(domain) -> tuple:
    """The exact bits of a domain's ends (`float.hex`: -0.0 is not 0.0), the
    part of the keys of what a curve's shared tapes keep that the domain gives."""
    return tuple(float(x).hex() for x in domain)


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
