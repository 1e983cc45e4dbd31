from __future__ import annotations

import json
import math
import random
from unittest import mock

import pytest
from conftest import CURVES
from hypothesis import example, given, settings, strategies as st
from test_expr import _exprs

from hypedal import constructions as cons
from hypedal import decide, expr, frontal, jets, recording
from hypedal.expr import linspace
from hypedal.frontal import (
    AutoDual, CurveSingularError, DualUndeterminedError, LegendrePair, frenet_regular,
    reparametrized,
)
from hypedal.io import curve_from_dict, load_curve
from hypedal.jets import Jet
from hypedal.minkowski import MVec3, inner, wedge


def _max_dev(u: MVec3, w: MVec3) -> float:
    return max(abs(a - b) for a, b in zip(u.components(), w.components()))


def _max_dev_up_to_sign(u: MVec3, w: MVec3) -> float:
    return min(_max_dev(u, w), _max_dev(u, -w))


def test_golden_pairs_validate(golden_pairs):
    for name, pair in golden_pairs.items():
        report = pair.validate(samples=300, tol=1e-9)
        assert report.passed, (name, report.residuals)


def test_broken_dual_fails_validation(astroid_curve):
    doc = {
        "schema": 1,
        "name": "broken",
        "r": ["sqrt(1 + cos(s)^6 + sin(s)^6)", "cos(s)^3", "sin(s)^3"],
        "v": [
            "(sin(s)*cos(s)*sqrt(1 + cos(s)^6 + sin(s)^6)) / sqrt(1 + sin(s)^2*cos(s)^2)",
            "(sin(s)*(1 + cos(s)^4)) / sqrt(1 + sin(s)^2*cos(s)^2)",
            "-(cos(s)*(1 + sin(s)^4)) / sqrt(1 + sin(s)^2*cos(s)^2)",
        ],
        "domain": [0.0, 6.283185307179586],
    }
    pair = LegendrePair.from_curve(curve_from_dict(doc))
    report = pair.validate(samples=200, tol=1e-9)
    assert not report.passed
    assert report.residuals["rv_orth"] > 1e-3


def test_curvature_golden_values(cusp23):
    ell0, m0 = cusp23.curvatures(0.0)
    assert abs(ell0) <= 1e-12
    assert abs(m0 - 1.5) <= 1e-12
    ell_jet, _ = cusp23.curvature_jets(0.0, 4)
    assert abs(jets.derivative(ell_jet, 1) - 2.0) <= 1e-9


def test_curvatures_match_reference_forms(cusp23, cusp37):
    def ell23(s):
        return s * math.sqrt(s**6 + 9 * s**2 + 4) / math.sqrt(1 + s**4 + s**6)

    def m23(s):
        return (s**10 + 15 * s**6 + 10 * s**4 + 6) / ((s**6 + 9 * s**2 + 4) * math.sqrt(1 + s**4 + s**6))

    def ell37(s):
        return s**2 * math.sqrt(16 * s**14 + 49 * s**8 + 9) / math.sqrt(1 + s**6 + s**14)

    def m37(s):
        return 4 * s**3 * (16 * s**20 + 70 * s**14 + 30 * s**6 + 21) / (
            (16 * s**14 + 49 * s**8 + 9) * math.sqrt(1 + s**6 + s**14))

    for pair, ref_l, ref_m in ((cusp23, ell23, m23), (cusp37, ell37, m37)):
        for i in range(50):
            s = -2.0 + 4.0 * i / 49
            ell, m = pair.curvatures(s)
            assert abs(ell - ref_l(s)) <= 1e-9 * max(abs(ell), abs(ref_l(s)), 1e-3)
            assert abs(m - ref_m(s)) <= 1e-9 * max(abs(m), abs(ref_m(s)), 1e-3)


def test_m_nonvanishing_on_domain(cusp23):
    values = [abs(cusp23.curvatures(-2.0 + 4.0 * i / 399)[1]) for i in range(400)]
    assert min(values) > 0.5


def test_frame_pseudo_orthonormality(golden_pairs):
    for name, pair in golden_pairs.items():
        a, b = pair.domain
        worst = 0.0
        for i in range(300):
            s = a + (b - a) * i / 299
            r, v = pair.r(s), pair.v(s)
            mu = wedge(r, v)
            scale = max(1.0, max(abs(c) for c in r.components() + v.components() + mu.components())) ** 2
            for val, target in ((inner(r, r), -1.0), (inner(v, v), 1.0), (inner(mu, mu), 1.0),
                                (inner(r, v), 0.0), (inner(r, mu), 0.0), (inner(v, mu), 0.0)):
                worst = max(worst, abs(val - target) / scale)
        assert worst <= 1e-9, name


def test_frame_equation_residual_jets(golden_pairs):
    # jets of r' - ell*mu, v' - m*mu, mu' - (ell*r - m*v) stay small
    rng = random.Random(7)
    order = 6
    for name, pair in golden_pairs.items():
        a, b = pair.domain
        for _ in range(20):
            s0 = rng.uniform(a, b)
            rj = pair.r_jet(s0, order + 1)
            vj = pair.v_jet(s0, order + 1)
            mu = wedge(rj, vj)
            lj, mj = pair.curvature_jets(s0, order)
            mu_t = mu.map(lambda j: j.truncate(order))
            res1 = rj.map(lambda j: j.d_ds()) - lj * mu_t
            res2 = vj.map(lambda j: j.d_ds()) - mj * mu_t
            res3 = mu.map(lambda j: j.d_ds()) - (lj * rj.map(lambda j: j.truncate(order))
                                                 - mj * vj.map(lambda j: j.truncate(order)))

            def sup(vec):
                return max(max(abs(c) for c in comp.coeffs) for comp in vec.components())

            scale = max(1.0, sup(mu_t), sup(rj), sup(vj))
            assert max(sup(res1), sup(res2), sup(res3)) / scale <= 1e-8, (name, s0)


def test_frenet_circle(circle_curve):
    fr = frenet_regular(circle_curve, 1.1)
    assert abs(fr.speed - math.sinh(1.0)) < 1e-12
    expected_N = MVec3(-math.sinh(1.0), -math.cosh(1.0) * math.cos(1.1), -math.cosh(1.0) * math.sin(1.1))
    assert _max_dev(fr.N, expected_N) < 1e-12
    assert abs(fr.kappa - math.cosh(1.0) / math.sinh(1.0)) < 1e-12
    assert abs(inner(fr.T, fr.T) - 1.0) < 1e-12
    assert abs(inner(fr.N, fr.N) - 1.0) < 1e-12
    assert abs(inner(fr.T, fr.N)) < 1e-12


def test_frenet_rejects_cusp(astroid_curve):
    with pytest.raises(CurveSingularError, match="curve singular at s"):
        frenet_regular(astroid_curve, 0.0)


def test_regular_pair_with_normal_has_speed_curvature_pair(circle_curve, cusp23_curve):
    # pairing a regular curve with its Frenet normal gives (-speed, speed*kappa)
    for curve, s_values in ((circle_curve, [0.3, 1.0, 2.7]), (cusp23_curve, [0.5, 1.0, 1.5])):
        def v(s):
            return frenet_regular(curve, s).N

        def v_jet(s0, order):
            rj = curve.point_jet(s0, order + 1)
            rd = rj.map(lambda j: j.d_ds())
            T = rd / jets.sqrt(inner(rd, rd))
            return wedge(rj.map(lambda j: j.truncate(order)), T)

        pair = LegendrePair(curve.point, curve.point_jet, v, v_jet, curve.domain)
        for s in s_values:
            fr = frenet_regular(curve, s)
            ell, m = pair.curvatures(s)
            assert abs(ell + fr.speed) <= 1e-8 * max(1.0, fr.speed)
            assert abs(m - fr.speed * fr.kappa) <= 1e-8 * max(1.0, abs(fr.speed * fr.kappa))


def test_auto_dual_matches_explicit_dual(cusp23_curve, cusp23):
    auto = LegendrePair.with_auto_dual(cusp23_curve)
    worst = 0.0
    for i in range(41):
        s = -2.0 + 4.0 * i / 40
        worst = max(worst, _max_dev_up_to_sign(auto.v(s), cusp23.v(s)))
    assert worst <= 1e-8


def test_auto_dual_through_cusp(astroid_curve):
    auto = LegendrePair.with_auto_dual(astroid_curve)
    v0 = auto.v(0.0)
    assert _max_dev_up_to_sign(v0, MVec3(0.0, 0.0, 1.0)) <= 1e-9
    report = auto.validate(samples=300, tol=1e-8)
    assert report.passed, report.residuals


def test_auto_dual_circle_is_normal(circle_curve):
    auto = LegendrePair.with_auto_dual(circle_curve)
    for s in (0.0, 1.3, 4.0):
        fr = frenet_regular(circle_curve, s)
        assert _max_dev_up_to_sign(auto.v(s), fr.N) <= 1e-10


def test_auto_dual_jets_taylor_consistent(astroid_curve):
    auto = AutoDual(astroid_curve)
    vj = auto.jet(0.0, 4)
    for h in (0.005, 0.01):
        taylor = MVec3(*[c.eval_at_offset(h) for c in vj.components()])
        assert _max_dev(taylor, auto(h)) <= 1e-8


def test_auto_dual_refuses_orders_past_the_maximum_as_undetermined():
    # r' vanishes to order p = 3 at s = 0, so the factored jet of order n
    # needs a point jet of order n + 1 + 3
    curve = curve_from_dict({
        "schema": 1,
        "name": "flat-cusp",
        "r": ["sqrt(1 + s^8 + s^10)", "s^4", "s^5"],
        "domain": [-1.0, 1.0],
        "samples": 41,
    })
    dual = AutoDual(curve)
    top = jets.MAX_ORDER - 4
    assert dual.jet(0.0, top).x1.order == top
    with pytest.raises(DualUndeterminedError, match=r"s=0\.0: r' vanishes to order 3"):
        dual.jet(0.0, top + 1)


# -- AutoDual as the `Jet` formula ---------------------------------------------
#
# `AutoDual` decides p on r's coefficient lists and runs its dual jet as a
# generated function; the `Jet` formulas below are the reference for both.


def _formula_leading(curve, s, order):
    """(p, r' as jets): p from `jets.vanishing_order` of `Jet.d_ds`."""
    rd = curve.point_jet(s, order + 1).map(lambda j: j.d_ds())
    orders = [jets.vanishing_order(c, decide.FLAT_TOL) for c in rd.components()]
    orders = [o for o in orders if o is not None]
    if not orders:
        raise DualUndeterminedError(f"dual undetermined at s={s!r}")
    return min(orders), rd


def _formula_raw(curve, s):
    p, rd = _formula_leading(curve, s, jets.DEFAULT_ORDER)
    w = MVec3(*(c.coeffs[p] for c in rd.components()))
    q = inner(w, w)
    if q <= 0.0:
        raise DualUndeterminedError(f"dual undetermined at s={s!r}")
    r0 = curve.point_jet(s, jets.DEFAULT_ORDER + 1).map(jets.constant_part)
    return wedge(r0, w / math.sqrt(q)).components()


def _formula_jet(dual, s0, order):
    p, _ = _formula_leading(dual.curve, s0, max(jets.DEFAULT_ORDER, order + 2))
    rj = dual.curve.point_jet(s0, order + 1 + p)
    w = rj.map(lambda j: Jet(j.base, j.d_ds().coeffs[p : p + order + 1]))
    vj = wedge(rj.map(lambda j: j.truncate(order)), w / jets.sqrt(inner(w, w)))
    return dual._sign_at(s0, vj.map(jets.constant_part).components()) * vj


def _outcome(fn):
    """The value by repr, bases and signs of zero included, or the exception."""
    try:
        return repr(fn())
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _without_dual(name):
    doc = json.loads((CURVES / f"{name}.json").read_text())
    del doc["v"]
    return curve_from_dict(doc)


# the parameters where r' vanishes on each shipped curve
_CUSPS = {"astroid": [k * math.pi / 2 for k in range(5)], "circle": [],
          "cusp23": [0.0], "cusp37": [0.0]}


@pytest.mark.parametrize("name", sorted(_CUSPS))
def test_auto_dual_jets_are_the_formula_jets(name):
    # p and the float dual on the sign grid, and the dual jets at grid points,
    # -0.0 and the cusps, must be the bits of the `Jet` formulas; the jets
    # must come from the generated function on the lists of one generated read
    # wherever the formula answers.
    # Mutations: the sign applied without + 0.0, w shifted by p - 1
    curve = _without_dual(name)
    dual = AutoDual(curve)
    for s in curve.grid(dual._n) + [-0.0, *curve.domain, *_CUSPS[name]]:
        assert dual._leading(s, jets.DEFAULT_ORDER)[0] == _formula_leading(
            curve, s, jets.DEFAULT_ORDER)[0], s
        assert _outcome(lambda: dual._raw(s)) == _outcome(lambda: _formula_raw(curve, s)), s
    for s in _CUSPS[name]:
        assert _formula_leading(curve, s, jets.DEFAULT_ORDER)[0] >= 1, s
    for s0 in curve.grid(21) + [-0.0] + _CUSPS[name]:
        for order in (0, 1, 2, 3, 5, 22):
            expected = _outcome(lambda: _formula_jet(dual, s0, order))
            assert _outcome(lambda: dual.jet(s0, order)) == expected, (s0, order)
            generated = dual._read((("v", order),), frontal._jet_degree(order), s0,
                                   dual._sign_at)
            assert (generated is None) == isinstance(expected, tuple), (s0, order)


@pytest.mark.parametrize("name", sorted(_CUSPS))
def test_auto_dual_floats_make_no_tape_point(name, fresh_tapes, monkeypatch):
    # the sign grid and every float dual read r's order-17 lists from one call
    # of the curve's generated read, which keeps nothing, and neither read r
    # through the curve's own reads nor build a tape point; mutation: `_raw`
    # read through `_leading`
    curve = _without_dual(name)
    made = []
    for owner, attribute in ((expr._TapePoint, "__init__"),
                             (expr.ParametricCurve, "_tape_values")):
        def spied(*args, real=getattr(owner, attribute), attribute=attribute):
            made.append(attribute)
            return real(*args)

        monkeypatch.setattr(owner, attribute, spied)
    dual = AutoDual(curve)
    values = [dual(s) for s in curve.grid()]
    assert made == []
    assert all(isinstance(value, MVec3) for value in values)


class _NoReads(dict):
    """The code generated on a curve's tapes, where every generated read
    (`auto_dual_read`, `program.tape_read`) gives none."""

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        return None


def _raw_outcomes(curve, s):
    """`AutoDual._raw` at s through the generated read, and through the step
    loop of `_leading` alone, each on a curve of its own, so that neither
    reads what the other memoised; the second curve's tapes have no
    generated read, so r's lists come from a tape point wherever s is finite."""
    outcomes = []
    for read in (True, False):
        fresh = expr.ParametricCurve(curve.name, curve.components, curve.domain)
        dual = object.__new__(AutoDual)  # no sign grid: `_raw` reads the curve alone
        dual.curve = fresh
        if not read:  # tapes of their own, with no generated read
            tapes = (expr._Tape((curve.components,), floats=True),
                     expr._Tape((curve.components,)), _NoReads())
            fresh.__dict__["_tapes"] = tapes  # the curve is frozen
        with mock.patch.object(expr, "_TapePoint", wraps=expr._TapePoint) as points:
            outcomes.append(_outcome(lambda: dual._raw(s)))
        assert read or points.called == math.isfinite(s)
    return outcomes


@pytest.mark.parametrize("r, domain, error", [
    # <w, w> overflows to a nan: the float dual is not finite
    (["1e160*sqrt(1 + s^4 + s^6)", "1e160*s^2", "1e160*s^3"], [-1.0, 1.0],
     (ValueError, "non-finite vector component (at s=-1.0)")),
    # r' overflows where r does not
    (["1", "s + 1e308*s^2", "s^2"], [-0.01, 0.01],
     (ValueError, "non-finite jet coefficient (at s=-0.01)")),
    # a divisor refused at order 3: the generated read gives no answer
    (["1", "s/(1 + 100000000000000*s^3)", "s^2"], [0.0, 1.0],
     (jets.JetDomainError, "jet division by vanishing germ (at s=0.0)")),
])
def test_auto_dual_floats_fall_back_to_the_memoised_path(r, domain, error, fresh_tapes):
    # where the generated read gives no answer, r' is not finite, or the float
    # dual is not, `_leading`'s memoised path runs and raises what it raises
    curve = _curve(r, domain)
    assert _outcome(lambda: AutoDual(curve)) == error
    s = curve.domain[0]
    generated, step_loop = _raw_outcomes(curve, s)
    assert generated == step_loop == (error[0], error[1].replace(f" (at s={s!r})", ""))


# a random tree plus s^k: r' vanishes on no component to every order, so most
# draws decide p; x1 is 1 or such a sum, so that <w, w> > 0 in about half
_TERMS = st.builds(lambda e, k: expr.BinOp("+", e, expr.Pow(expr.Var(), k)),
                   _exprs(jet_ops=True), st.integers(min_value=1, max_value=4))
_R = st.tuples(st.just(expr.Num(1.0)) | _TERMS, _TERMS | _exprs(jet_ops=True), _TERMS)
_S = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 1e154, math.inf, math.nan])


@settings(max_examples=150, deadline=None)
@given(_R, _S)
@example(tuple(expr.parse(t) for t in ("sqrt(1 + s^4 + s^6)", "s^2", "s^3")), 0.0)  # p = 1
@example(tuple(expr.parse(t) for t in ("cosh(s)", "sinh(s)", "0.0")), 0.5)  # <w, w> = 0
def test_auto_dual_floats_from_the_generated_read_are_the_step_loop(trees, s):
    # on random r, the float dual through the generated order-17 read must
    # give the bits of the step loop's and of the `Jet` formula's, or raise
    # what they raise; mutations: r read at order 16, whose shorter lists
    # change the zero test's scale; x3 left out of p's search
    curve = expr.ParametricCurve("random", trees, (-2.0, 2.0))
    generated, step_loop = _raw_outcomes(curve, s)
    assert generated == step_loop == _outcome(lambda: _formula_raw(curve, s))


def _spy_on_program(monkeypatch):
    """The answers that the generated functions give from now on."""
    answers = []
    program = recording.auto_dual_program

    def spied(order):
        function, consts, keys = program(order)

        def run(i, k):
            answers.append(function(i, k))
            return answers[-1]
        return run, consts, keys

    monkeypatch.setattr(recording, "auto_dual_program", spied)
    return answers


def _curve(r, domain):
    return curve_from_dict({"schema": 1, "name": "made", "r": r, "domain": domain, "samples": 41})


def test_auto_dual_falls_back_to_the_formula(astroid_curve, monkeypatch):
    # wherever the generated function gives no answer the `Jet` formula runs,
    # and returns or raises what it did before the function existed
    astroid = AutoDual(astroid_curve)
    flat_cusp = AutoDual(_curve(["sqrt(1 + s^8 + s^10)", "s^4", "s^5"], [-1.0, 1.0]))
    top = jets.MAX_ORDER - 4
    limit = (DualUndeterminedError, "dual undetermined at s=0.0: r' vanishes to order 3, "
             f"which needs a jet of order {jets.MAX_ORDER + 1}, above the maximum {jets.MAX_ORDER}")
    cases = [(astroid, s0, order) for s0 in (0.0, 0.7, math.pi / 2) for order in (0, 3, 22)]
    for generator in ("on", "no answer"):
        if generator == "no answer":
            monkeypatch.setattr(recording, "auto_dual_program",
                                lambda order: (lambda i, k: None, (), []))
        for dual, s0, order in cases + [(flat_cusp, 0.0, top)]:
            assert _outcome(lambda: dual.jet(s0, order)) == _outcome(
                lambda: _formula_jet(dual, s0, order)), (generator, s0, order)
        assert _outcome(lambda: flat_cusp.jet(0.0, top + 1)) == limit
    monkeypatch.undo()

    # <w, w> overflows: the float dual is a zero vector (a nan wedge where it
    # is the difference of two overflows), and the jets refuse
    answers = _spy_on_program(monkeypatch)
    scaled = ["1e160*cosh(1)", "1e160*sinh(1)*cos(s)", "1e160*sinh(1)*sin(s)"]
    dual = AutoDual(_curve(scaled, [-1.0, 1.0]))
    assert repr(dual(0.5)) == "MVec3(x1=-0.0, x2=0.0, x3=-0.0)"
    for s0 in (0.0, 0.5):
        for order in (0, 3, 22):
            assert _outcome(lambda: dual.jet(s0, order)) == (
                ValueError, "non-finite jet coefficient"), (s0, order)
    assert len(answers) == 6 and answers == [None] * 6
    with pytest.raises(ValueError, match=r"^non-finite vector component \(at s=-1\.0\)$"):
        AutoDual(_curve(["1e160*sqrt(1 + s^4 + s^6)", "1e160*s^2", "1e160*s^3"], [-1.0, 1.0]))

    # r' overflows where r does not: refused on the sign grid, and in a jet
    # whose w reaches past the order at which p was decided (p = 3, and
    # 20 * 1e307 is coefficient 19 of r'); where w reaches past the read, the
    # formula runs on the tape memo and the function does not run
    with pytest.raises(ValueError, match=r"^non-finite jet coefficient \(at s=-0\.01\)$"):
        AutoDual(_curve(["1", "s + 1e308*s^2", "s^2"], [-0.01, 0.01]))
    dual = AutoDual(_curve(["sqrt(1 + s^8 + s^10)", "s^4 + 1e307*s^20", "s^5"], [-0.01, 0.01]))
    del answers[:]
    assert _outcome(lambda: dual.jet(0.0, 15)) == _outcome(lambda: _formula_jet(dual, 0.0, 15))
    assert _outcome(lambda: dual.jet(0.0, 16)) == (ValueError, "non-finite jet coefficient")
    assert answers == []


# -- what a curve's shared tapes keep ----------------------------------------------


def _raw_calls(monkeypatch):
    """The parameters at which `AutoDual._raw` runs from now on."""
    calls = []
    raw = AutoDual._raw

    def spied(self, s):
        calls.append(s)
        return raw(self, s)

    monkeypatch.setattr(AutoDual, "_raw", spied)
    return calls


def _auto_outcomes(pair, grid):
    """v, its jet of order 2 and (ell, m) at each parameter, by repr or the exception."""
    return [(_outcome(lambda: pair.v(s)), _outcome(lambda: pair.v_jet(s, 2)),
             _outcome(lambda: pair.curvatures(s))) for s in grid]


@pytest.mark.parametrize("name", sorted(_CUSPS))
def test_a_second_load_builds_no_sign_grid(name, tmp_path, fresh_tapes, monkeypatch):
    # the signed grid is kept with the curve's shared tapes: a fresh load of
    # the same file and its auto-dual pair run no `_raw`, and give the duals
    # and curvatures of a build on tapes of their own; mutation: the grid
    # built in every __init__
    doc = json.loads((CURVES / f"{name}.json").read_text())
    del doc["v"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    calls = _raw_calls(monkeypatch)
    first = LegendrePair.with_auto_dual(load_curve(path))
    assert len(calls) == min(doc["samples"], 400)
    del calls[:]
    second = LegendrePair.with_auto_dual(load_curve(path))
    assert calls == [] and second._v._signed is first._v._signed
    grid = [*linspace(second.domain, 23), -0.0, *second.domain]
    kept = _auto_outcomes(second, grid)
    monkeypatch.setattr(expr, "_TAPES", {})
    del calls[:]
    unshared = LegendrePair.with_auto_dual(load_curve(path))
    assert len(calls) == min(doc["samples"], 400)
    assert repr(unshared._v._signed.tolist()) == repr(second._v._signed.tolist())
    assert _auto_outcomes(unshared, grid) == kept


def _made(r, domain, samples):
    return curve_from_dict({"schema": 1, "name": "made", "r": r, "domain": domain,
                            "samples": samples})


def test_each_domain_and_grid_size_has_its_own_sign_grid(fresh_tapes, monkeypatch):
    # the grid is keyed by the bits of the domain ends and by its size, so
    # -0.0 and 0.0 differ; mutations: the ends keyed by value, the key
    # without the size
    r = ["sqrt(1 + s^4 + s^6)", "s^2", "s^3"]
    calls = _raw_calls(monkeypatch)
    for domain, samples in [([-0.0, 1.0], 200), ([0.0, 1.0], 200), ([0.0, 1.0], 1000),
                            ([0.0, 1.0], 200), ([-0.0, 1.0], 200)]:
        curve = _made(r, domain, samples)
        del calls[:]
        dual = AutoDual(curve)
        assert repr(calls) == repr(curve.grid(min(samples, 400))), (domain, samples)
        with monkeypatch.context() as unshared:
            unshared.setattr(expr, "_TAPES", {})
            unshared_grid = AutoDual(_made(r, domain, samples))._signed
            assert repr(unshared_grid.tolist()) == repr(dual._signed.tolist())


@pytest.mark.parametrize("r, domain, samples, message", [
    (["sqrt(1 + sinh(s)^2)", "sinh(s)", "0"], [0, 800], 10,
     "dual undetermined at s=88.88888888888889"),
    (["1", "0", "0"], [0, 1], 41, "dual undetermined at s=0.0"),
])
def test_a_sign_grid_that_raises_is_not_kept(r, domain, samples, message, fresh_tapes,
                                             monkeypatch):
    # mutation: the grid kept before it is complete
    calls = _raw_calls(monkeypatch)
    curve = _made(r, domain, samples)
    for _ in range(2):
        del calls[:]
        with pytest.raises(DualUndeterminedError) as raised:
            AutoDual(curve)
        assert str(raised.value) == message and calls
        assert curve._tape_set()[1].kept == {}


def test_twenty_domains_of_one_curve_keep_one_sign_grid(fresh_tapes):
    # one grid per tape set, so what is kept stays within the tapes' bound
    r = ["sqrt(1 + s^4 + s^6)", "s^2", "s^3"]
    for k in range(20):
        dual = AutoDual(_made(r, [-1.0, 1.0 + k / 8], 41))
    (tapes,) = expr._TAPES.values()
    assert tapes[1].kept == {"sign grid": (dual._key, dual._signed)}


def test_the_cause_scale_is_kept_for_a_curve_pair_alone(fresh_tapes, monkeypatch):
    # a caustic's cause scale is m's on its source pair, kept with the curve's
    # tapes for a `from_curve` and an auto-dual pair, per kind; the scale of a
    # pair that is not one of these, here an induced pair, is never kept.
    # Mutation: an induced pair's scale kept with its source's curve
    scaled = []
    m_or_none = cons._m_or_none

    def spied(pair, s):
        scaled.append(s)
        return m_or_none(pair, s)

    monkeypatch.setattr(cons, "_m_or_none", spied)
    Q = MVec3(1.0, 0.0, 0.0)
    astroid = CURVES / "astroid.json"

    def points(make):
        del scaled[:]
        pair = make(load_curve(astroid))
        found = repr(cons.catacaustic(pair, Q).singular_points(samples=200))
        return found, len(scaled)

    for make in (LegendrePair.from_curve, LegendrePair.with_auto_dual):
        found, computed = points(make)
        assert found != "[]" and computed == 101
        assert points(make) == (found, 0)
        with monkeypatch.context() as unshared:
            unshared.setattr(expr, "_TAPES", {})
            assert points(make) == (found, 101)
    # the same expressions on another domain, or on one whose end is -0.0,
    # compute their own scale; mutations: the key without the domain, or
    # with its ends by value
    doc = json.loads(astroid.read_text())
    for domain in ([-0.0, doc["domain"][1]], [0.5, 3.0]):
        for make in (LegendrePair.from_curve, LegendrePair.with_auto_dual):
            with monkeypatch.context() as unshared:
                unshared.setattr(expr, "_TAPES", {})
                alone = cons._m_scale(make(curve_from_dict({**doc, "domain": domain})))
            del scaled[:]
            assert cons._m_scale(make(curve_from_dict({**doc, "domain": domain}))) == alone
            assert len(scaled) == 101
    pair = LegendrePair.from_curve(load_curve(astroid))
    kept = dict(pair._r_curve._tape_set()[1].kept)
    assert sorted(k for k in kept if k != "sign grid") == [
        ("cause scale", "from_curve"), ("cause scale", "with_auto_dual")]
    evolute = cons.evolute(cons.orthotomic_induced(pair, Q))
    for _ in range(2):
        del scaled[:]
        assert evolute.singular_points(samples=200) and len(scaled) == 101
    assert pair._r_curve._tape_set()[1].kept == kept


# s at 0.0, -0.0, the domain ends and random points of the domain
_AT = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)
_DOMAIN = st.tuples(st.floats(min_value=-2.0, max_value=2.0) | st.just(-0.0),
                    st.floats(min_value=0.01, max_value=3.0))


@settings(max_examples=60, deadline=10_000)
@given(_R, _DOMAIN, st.integers(min_value=2, max_value=60), _AT)
def test_shared_and_unshared_auto_dual_builds_agree(trees, domain, samples, at):
    # a pair whose sign grid and cause scale come from the shared tapes gives
    # the bits of a pair built on tapes of its own, or raises what it raises
    a, b = domain[0], domain[0] + domain[1]
    grid = [0.0, -0.0, a, b] + [a + t * (b - a) for t in at]

    def build():
        curve = expr.ParametricCurve("random", trees, (a, b), samples=samples)
        try:
            pair = LegendrePair.with_auto_dual(curve)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
        return (_auto_outcomes(pair, grid), _outcome(lambda: cons._m_scale(pair)),
                _outcome(lambda: cons.singular_points(cons.evolute(pair), samples=20)))

    with pytest.MonkeyPatch.context() as tapes:
        tapes.setattr(expr, "_TAPES", {})
        build()
        shared = build()
        tapes.setattr(expr, "_TAPES", {})
        assert shared == build()


def test_dual_identities(golden_pairs):
    # <v'', v> = -m^2 and <v'', mu> = m' everywhere
    rng = random.Random(13)
    for name, pair in golden_pairs.items():
        a, b = pair.domain
        for _ in range(10):
            s0 = rng.uniform(a, b)
            vj = pair.v_jet(s0, 4)
            rj = pair.r_jet(s0, 4)
            mu0 = wedge(MVec3(*[c.coeffs[0] for c in rj.components()]),
                        MVec3(*[c.coeffs[0] for c in vj.components()]))
            vdd = MVec3(*[jets.derivative(c, 2) for c in vj.components()])
            _, mj = pair.curvature_jets(s0, 2)
            m0 = mj.coeffs[0]
            mprime = jets.derivative(mj, 1)
            scale = max(1.0, m0 * m0, abs(mprime))
            assert abs(inner(vdd, pair.v(s0)) + m0 * m0) <= 1e-8 * scale, name
            assert abs(inner(vdd, mu0) - mprime) <= 1e-8 * scale, name


def test_reparametrized_pair_validates(cusp23):
    tilted = reparametrized(cusp23, lambda x: x + x**3 / 3.0, (-1.2, 1.2))
    report = tilted.validate(samples=150, tol=1e-9)
    assert report.passed, report.residuals
    ell, m = tilted.curvatures(0.5)
    assert math.isfinite(ell) and math.isfinite(m)


def test_validation_grid_guard(cusp23):
    with pytest.raises(ValueError, match="2 samples"):
        cusp23.validate(samples=1)
