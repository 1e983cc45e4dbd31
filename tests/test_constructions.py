from __future__ import annotations

import copy
import math
import random
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CURVES, random_h2_point, read_of
from hypedal import expr, frontal, jets, program, recording
from hypedal import constructions as cons
from hypedal.constructions import (
    Branch, EvoluteDegenerateError, PedalPointOnCurveError, scalar_zeros,
)
from hypedal.frontal import CurveSingularError, LegendrePair, reparametrized
from hypedal.io import load_curve
from hypedal.expr import linspace
from hypedal.minkowski import GeometryError, MVec3, inner, wedge


def _max_dev(u, w):
    return max(abs(a - b) for a, b in zip(u.components(), w.components()))


def _max_dev_up_to_sign(u, w):
    return min(_max_dev(u, w), _max_dev(u, -w))


Q_CENTER = MVec3(1.0, 0.0, 0.0)
Q_SIDE = MVec3(math.sqrt(2.0), 1.0, 0.0)


# -- pedal ------------------------------------------------------------------


def test_pedal_at_center_fixes_orthogonal_parameters(astroid):
    # <Q, v(0)> = 0, so the pedal point is Q itself
    ped = cons.pedal(astroid, Q_CENTER)
    assert _max_dev(ped.at(0.0), Q_CENTER) <= 1e-12


def test_pedal_golden_value_quarter_turn(astroid):
    ped = cons.pedal(astroid, Q_CENTER)
    expected = MVec3(math.sqrt(5.0) / 2.0, math.sqrt(2.0) / 4.0, math.sqrt(2.0) / 4.0)
    assert _max_dev(ped.at(math.pi / 4.0), expected) <= 1e-12


def test_pedal_matches_reference_closed_form(astroid):
    # the astroid pedal about the center has a closed form; spot the whole grid
    ped = cons.pedal(astroid, Q_CENTER)

    def reference(s):
        c, sn = math.cos(s), math.sin(s)
        A = 1 + c * c * sn * sn * (2 + c**6 + sn**6)
        B = math.sqrt(1 + c * c * sn * sn) * math.sqrt(A)
        R = math.sqrt(1 + c**6 + sn**6)
        return MVec3(A / B, c * (1 + c**4) * sn * sn * R / B, c * c * sn * (1 + sn**4) * R / B)

    worst = 0.0
    for i in range(200):
        s = 6.283185307179586 * i / 199
        worst = max(worst, _max_dev(ped.at(s), reference(s)))
    assert worst <= 1e-12


def test_pedal_requires_point_on_upper_sheet(astroid):
    with pytest.raises(GeometryError, match="upper hyperboloid"):
        cons.pedal(astroid, MVec3(0.0, 1.0, 0.0))
    with pytest.raises(GeometryError, match="upper hyperboloid"):
        cons.pedal(astroid, MVec3(-1.0, 0.0, 0.0))


def test_pedal_and_orthotomic_outputs_stay_on_hyperboloid(golden_pairs):
    # residual scaled by the squared entry size, as in pair validation:
    # the cusp37 frame entries reach ~1e2 at the domain ends
    rng = random.Random(37)
    for name, pair in golden_pairs.items():
        for _ in range(10):
            Q = random_h2_point(rng)
            ped = cons.pedal(pair, Q)
            ort = cons.orthotomic(pair, Q)
            a, b = pair.domain
            for i in range(60):
                s = a + (b - a) * i / 59
                for point in (ped.at(s), ort.at(s)):
                    scale = max(1.0, max(abs(c) for c in point.components()) ** 2)
                    assert abs(inner(point, point) + 1.0) <= 1e-9 * scale, (name, s)
                    assert point.x1 > 0.0


def test_pedal_regular_circle_reproduces_curve(circle_curve):
    # the pedal of a circle about its own center is the circle itself
    for s in (0.0, 0.9, 2.2, 5.5):
        got = cons.pedal_regular(circle_curve, Q_CENTER, s)
        assert _max_dev(got, circle_curve.point(s)) <= 1e-12


def test_pedal_regular_agrees_with_derived_dual(cusp23_curve):
    auto = LegendrePair.with_auto_dual(cusp23_curve)
    ped = cons.pedal(auto, Q_SIDE)
    worst = 0.0
    for i in range(31):
        s = 0.5 + 1.5 * i / 30
        worst = max(worst, _max_dev(cons.pedal_regular(cusp23_curve, Q_SIDE, s), ped.at(s)))
    assert worst <= 1e-9


def test_pedal_regular_rejects_cusp(astroid_curve):
    with pytest.raises(CurveSingularError):
        cons.pedal_regular(astroid_curve, Q_CENTER, 0.0)


# -- pedal derivative ---------------------------------------------------------


def test_pedal_derivative_vanishes_at_m_zero(cusp37):
    d = cons.pedal_derivative(cusp37, Q_SIDE, 0.0)
    assert max(abs(c) for c in d.components()) <= 1e-12


def test_pedal_derivative_vanishes_when_point_on_curve(cusp23):
    Q = MVec3(math.sqrt(3.0), 1.0, 1.0)  # = r(1)
    d = cons.pedal_derivative(cusp23, Q, 1.0)
    assert max(abs(c) for c in d.components()) <= 1e-12


def test_pedal_derivative_nonzero_in_smooth_case(cusp23):
    d = cons.pedal_derivative(cusp23, Q_SIDE, 0.0)
    assert math.sqrt(sum(c * c for c in d.components())) >= 0.1


def test_pedal_derivative_matches_jets(cusp23, astroid):
    for pair, Q in ((cusp23, Q_SIDE), (astroid, Q_CENTER)):
        ped = cons.pedal(pair, Q)
        a, b = pair.domain
        for i in range(21):
            s = a + (b - a) * (i + 0.5) / 21
            V = ped.jet(s, 1)
            numeric = MVec3(*[c.coeffs[1] for c in V.components()])
            analytic = cons.pedal_derivative(pair, Q, s)
            assert _max_dev(numeric, analytic) <= 1e-8


# -- induced pedal pair ---------------------------------------------------------


def test_pedal_induced_is_legendrian(cusp23, astroid):
    for pair, Q in ((cusp23, Q_SIDE), (astroid, Q_CENTER)):
        induced = cons.pedal_induced(pair, Q)
        report = induced.validate(samples=300, tol=1e-8)
        assert report.passed, report.residuals


def test_pedal_induced_curvature_closed_form(cusp23):
    induced = cons.pedal_induced(cusp23, Q_SIDE)
    worst = 0.0
    for i in range(41):
        s = -2.0 + 4.0 * i / 40
        ell_jet = induced.curvatures(s)[0]
        ell_ref = induced.ell_closed_form(s)
        worst = max(worst, abs(ell_jet - ell_ref) / max(abs(ell_jet), abs(ell_ref), 1e-12))
    assert worst <= 1e-8


def test_pedal_induced_vanishes_with_m(cusp37):
    # ell of the induced pair vanishes exactly where m of the source does
    induced = cons.pedal_induced(cusp37, Q_SIDE)
    m_zeros = scalar_zeros(lambda s: cusp37.curvatures(s)[1],
                           lambda s: jets.derivative(cusp37.curvature_jets(s, 1)[1], 1),
                           cusp37.domain, samples=500)
    ell_zeros = scalar_zeros(lambda s: induced.curvatures(s)[0],
                             lambda s: jets.derivative(induced.curvature_jets(s, 1)[0], 1),
                             cusp37.domain, samples=500)
    assert len(m_zeros) == len(ell_zeros) == 1
    assert abs(m_zeros[0] - ell_zeros[0]) <= 1e-8


def test_pedal_induced_rejects_point_on_curve(astroid):
    Q = astroid.r(math.pi / 4.0)
    with pytest.raises(PedalPointOnCurveError, match="pedal point on curve"):
        cons.pedal_induced(astroid, Q)


# -- orthotomic -----------------------------------------------------------------


def test_orthotomic_golden_values(astroid):
    ort = cons.orthotomic(astroid, Q_CENTER)
    assert _max_dev(ort.at(0.0), Q_CENTER) <= 1e-12
    expected = MVec3(1.5, math.sqrt(10.0) / 4.0, math.sqrt(10.0) / 4.0)
    assert _max_dev(ort.at(math.pi / 4.0), expected) <= 1e-12


def test_orthotomic_matches_reference_first_component(astroid):
    ort = cons.orthotomic(astroid, Q_CENTER)
    worst = 0.0
    for i in range(200):
        s = 6.283185307179586 * i / 199
        ref = (-95 + 28 * math.cos(4 * s) + 3 * math.cos(8 * s)) / (8 * (-9 + math.cos(4 * s)))
        worst = max(worst, abs(ort.at(s).x1 - ref))
    assert worst <= 1e-12


def test_orthotomic_pedal_relations(golden_pairs):
    # reflection factorization, and the midpoint relation, for random points
    rng = random.Random(41)
    for name, pair in golden_pairs.items():
        a, b = pair.domain
        for _ in range(12):
            Q = random_h2_point(rng)
            s = rng.uniform(a, b)
            ped = cons.pedal(pair, Q).at(s)
            ort = cons.orthotomic(pair, Q).at(s)
            phi = -2.0 * inner(Q, ped) * ped - Q
            assert _max_dev(ort, phi) <= 1e-10, name
            mid = 0.5 * (ort + Q)
            target = -inner(Q, ped) * ped
            assert _max_dev(mid, target) <= 1e-10, name


def test_orthotomic_induced_structure(cusp23, astroid):
    for pair, Q in ((cusp23, Q_SIDE), (astroid, Q_CENTER)):
        induced = cons.orthotomic_induced(pair, Q)
        report = induced.validate(samples=300, tol=1e-8)
        assert report.passed, report.residuals
        worst = 0.0
        for i in range(41):
            a, b = pair.domain
            s = a + (b - a) * i / 40
            ell_jet = induced.curvatures(s)[0]
            ell_ref = induced.ell_closed_form(s)
            worst = max(worst, abs(ell_jet - ell_ref) / max(abs(ell_jet), abs(ell_ref), 1e-12))
        assert worst <= 1e-8


def test_orthotomic_frame_normal_projection(cusp23):
    # the frame normal of the induced pair equals the projection of Q onto
    # the span of (v, mu), normalized; it is unit, orthogonal to the curve
    induced = cons.orthotomic_induced(cusp23, Q_SIDE)
    for s in (-1.5, -0.4, 0.3, 1.1):
        r, v = cusp23.r(s), cusp23.v(s)
        mu = wedge(r, v)
        d, e, f = inner(Q_SIDE, r), inner(Q_SIDE, v), inner(Q_SIDE, mu)
        closed = (f * v + e * mu) / math.sqrt(d * d - 1.0)
        frame = induced.mu(s)
        assert _max_dev(frame, closed) <= 1e-9  # observed sign: equal, not opposite
        assert abs(inner(closed, closed) - 1.0) <= 1e-9
        assert abs(inner(closed, induced.r(s))) <= 1e-9


def test_induced_frame_normals_equal_wedge(cusp23, astroid):
    # the stable closed forms agree with the defining wedge product wherever
    # the wedge itself is well conditioned
    for pair, Q in ((cusp23, Q_SIDE), (astroid, Q_CENTER)):
        for maker in (cons.pedal_induced, cons.orthotomic_induced):
            induced = maker(pair, Q)
            a, b = pair.domain
            for i in range(25):
                s = a + (b - a) * i / 24
                frame = induced.mu(s)
                raw = wedge(induced.r(s), induced.v(s))
                assert _max_dev(frame, raw) <= 1e-9, (induced.name, s)


# -- evolute ---------------------------------------------------------------------


def test_circle_evolute_is_center(circle):
    ev = cons.evolute(circle)
    worst = 0.0
    for i in range(200):
        s = 6.283185307179586 * i / 199
        point, branch = ev.at_with_branch(s)
        assert branch is Branch.H2
        worst = max(worst, _max_dev(point, Q_CENTER))
    assert worst <= 1e-10


def test_evolute_branches_and_normalization(cusp23):
    ev = cons.evolute(cusp23)
    for s in (0.0, 0.2, 0.8, 1.5):
        ell, m = cusp23.curvatures(s)
        point, branch = ev.at_with_branch(s)
        norm = inner(point, point)
        if m * m > ell * ell:
            assert branch is Branch.H2
            assert abs(norm + 1.0) <= 1e-9
            assert point.x1 > 0.0
        else:
            assert branch is Branch.DS2
            assert abs(norm - 1.0) <= 1e-9


def test_evolute_degenerates_on_lightlike_direction(cusp23):
    ev = cons.evolute(cusp23)

    def gap(s):
        ell, m = cusp23.curvatures(s)
        return m * m - ell * ell

    lo, hi = 0.0, 0.5
    flo = gap(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0.0) == (flo > 0.0):
            lo, flo = mid, gap(mid)
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    with pytest.raises(EvoluteDegenerateError, match="degenerate at s"):
        ev.at(crossing)
    assert ev.branch(crossing - 0.05) is Branch.H2
    assert ev.branch(crossing + 0.05) is Branch.DS2


# -- catacaustic -----------------------------------------------------------------


def test_catacaustic_points_normalized_per_branch(astroid):
    cat = cons.catacaustic(astroid, Q_CENTER)
    for i in range(100):
        s = 6.283185307179586 * i / 99
        point, branch = cat.at_with_branch(s)
        norm = inner(point, point)
        assert abs(norm + (1.0 if branch is Branch.H2 else -1.0)) <= 1e-9


def test_catacaustic_touches_orthotomic_at_singular_parameters(wave_pair):
    # at a singular parameter of the orthotomic the caustic passes through it
    Q = MVec3(math.cosh(0.4), 0.0, math.sinh(0.4))
    m_zeros = scalar_zeros(lambda s: wave_pair.curvatures(s)[1],
                           lambda s: jets.derivative(wave_pair.curvature_jets(s, 1)[1], 1),
                           wave_pair.domain, samples=500)
    assert len(m_zeros) == 1
    cat = cons.catacaustic(wave_pair, Q)
    ort = cons.orthotomic(wave_pair, Q)
    for z in m_zeros:
        assert _max_dev_up_to_sign(cat.at(z), ort.at(z)) <= 1e-7


def test_catacaustic_requires_point_off_curve(cusp23):
    Q = MVec3(math.sqrt(3.0), 1.0, 1.0)  # = r(1)
    with pytest.raises(PedalPointOnCurveError):
        cons.catacaustic(cusp23, Q)


def _evolute_jet_evaluated_twice(curve, s0, order):
    """EvoluteCurve.jet computing r and v again at `order` after the curvature step."""
    pair = curve.formula_pair
    ell, m = pair.curvature_jets(s0, order)
    d2 = m * m - ell * ell
    d2c = jets.constant_part(d2)
    if abs(d2c) <= 1e-12 * max(jets.constant_part(m * m), jets.constant_part(ell * ell), 1.0):
        raise EvoluteDegenerateError(f"evolute degenerate at s={s0!r}")
    num = m * pair.r_jet(s0, order) - ell * pair.v_jet(s0, order)
    if d2c > 0.0:
        point = num / jets.sqrt(d2)
        return -point if jets.constant_part(point.x1) < 0.0 else point
    return num / jets.sqrt(-d2)


def _jet_outcome(fn):
    try:
        point = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [[repr(c) for c in comp.coeffs] for comp in point.components()]


@pytest.mark.parametrize("which", ["astroid", "cusp23", "astroid auto", "cusp23 auto",
                                   "astroid caustic", "cusp23 auto caustic"])
def test_evolute_jet_reuses_the_curvature_step_unchanged(which, astroid, cusp23, astroid_curve,
                                                         cusp23_curve):
    # r and v come from truncating the order + 1 jets of the curvature step;
    # above order 13 AutoDual picks its vanishing power at a higher order, so
    # this comparison is what shows truncation changes nothing there either
    name = which.split()[0]
    pair = {"astroid": astroid, "cusp23": cusp23}[name]
    if "auto" in which:
        source = {"astroid": astroid_curve, "cusp23": cusp23_curve}[name]
        pair = LegendrePair.with_auto_dual(source)
    Q = MVec3(math.cosh(0.7), math.sinh(0.7) * math.cos(1.0), math.sinh(0.7) * math.sin(1.0))
    curve = cons.catacaustic(pair, Q) if "caustic" in which else cons.evolute(pair)
    a, b = pair.domain
    for s0 in (a, 0.0, -0.0, 0.3, 0.5 * (a + b) + 0.41, b):
        for order in [*range(0, 8), *range(13, 21)]:
            assert (_jet_outcome(lambda: curve.jet(s0, order))
                    == _jet_outcome(lambda: _evolute_jet_evaluated_twice(curve, s0, order))), \
                (which, s0, order)


# -- generated derived-curve jets ----------------------------------------------------


_KINDS = {"pedal": cons.pedal, "orthotomic": cons.orthotomic,
          "evolute": lambda pair, Q: cons.evolute(pair), "catacaustic": cons.catacaustic}


def _formula_only(curve):
    """A copy of curve whose jets all run the `Jet` formula."""
    twin = copy.copy(curve)
    twin._programs = dict.fromkeys(range(jets.MAX_ORDER + 1))
    return twin


def _outcome(fn):
    """Each coefficient and base by repr, so the sign of zero counts, or the exception."""
    try:
        point = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [[repr(comp.base)] + [repr(c) for c in comp.coeffs] for comp in point.components()]


def _answers(call) -> bool:
    """Whether a generated call gives an answer or a final refusal, which it
    raises, rather than no answer."""
    try:
        return call() is not None
    except jets.JetDomainError:
        return True


@pytest.fixture(scope="module")
def auto_pairs(astroid_curve, cusp23_curve):
    return {"astroid": LegendrePair.with_auto_dual(astroid_curve),
            "cusp23": LegendrePair.with_auto_dual(cusp23_curve)}


@pytest.mark.parametrize("where", ["generic", "on the curve", "on the tangent geodesic"])
@pytest.mark.parametrize("which", ["astroid", "cusp23", "astroid auto", "cusp23 auto"])
def test_generated_jets_are_the_formula_jets(which, where, astroid, cusp23, auto_pairs):
    # a derived jet comes from a generated function, of inlined rows up to
    # order 3 (order 2 for the evolute and the caustic, whose curvature step
    # needs order + 1) and of whole coefficient lists above; the `Jet`
    # formula must give the same bits, or raise the same error
    name = which.split()[0]
    pair = auto_pairs[name] if "auto" in which else {"astroid": astroid, "cusp23": cusp23}[name]
    s1 = 0.7
    Q = {"generic": MVec3(math.cosh(0.7), math.sinh(0.7) * math.cos(1.0),
                          math.sinh(0.7) * math.sin(1.0)),
         "on the curve": pair.r(s1),
         "on the tangent geodesic": math.cosh(0.6) * pair.r(s1) + math.sinh(0.6) * pair.mu(s1)}[where]
    a, b = pair.domain
    generated = []
    for kind, make in _KINDS.items():
        try:
            curve = make(pair, Q)
        except PedalPointOnCurveError:
            assert (kind, where) == ("catacaustic", "on the curve")
            continue
        formula = _formula_only(curve)
        for s0 in (a, -0.0, 0.0, 0.3, s1, 0.5 * (a + b) + 0.41, b):
            for order in (0, 1, 2, 3, 4, 9):
                assert (_outcome(lambda: curve.jet(s0, order))
                        == _outcome(lambda: formula.jet(s0, order))), (kind, s0, order)
                generated.append(_answers(lambda: curve._program_coeffs(
                    s0, order, curve._run_program(s0, order))))
    assert sum(generated) >= 0.8 * len(generated)


def _branch_outcome(fn):
    """The point by repr with its branch, or the exception."""
    try:
        point, branch = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [repr(c) for c in point.components()], branch


@pytest.mark.parametrize("where", ["generic", "on the curve", "on the tangent geodesic"])
@pytest.mark.parametrize("which", ["astroid", "astroid auto"])
def test_caustic_samples_are_those_of_the_formula(which, where, astroid, auto_pairs,
                                                  monkeypatch):
    # a caustic float sample reads the induced pair's r and v jets at order 1,
    # recorded into the sample's function: on a read of the tapes for a
    # `from_curve` pair, on one generated read of r for an auto-dual pair;
    # with the generator off it runs the `Jet` formulas, and every sample must
    # be the same bits or the same error.
    # At Q = r(s1), <Q, r>^2 - 1 rounds to 0.0 or below at s1, so the
    # orthotomic's dual refuses its square root there; mutation: the
    # generated functions fed the tape's r where they read v
    pair = auto_pairs["astroid"] if "auto" in which else astroid
    grid = linspace(pair.domain, 60)
    s1 = linspace(pair.domain, 50)[4]
    Q = {"generic": MVec3(math.cosh(0.7), math.sinh(0.7) * math.cos(1.0),
                          math.sinh(0.7) * math.sin(1.0)),
         "on the curve": pair.r(s1),
         "on the tangent geodesic": math.cosh(0.6) * pair.r(s1) + math.sinh(0.6) * pair.mu(s1)}[where]

    def samples():
        induced = cons.OrthotomicInducedPair(pair, Q)
        caustic = cons.EvoluteCurve(induced, tag_pair=pair, Q=Q, kind="catacaustic")
        return [_branch_outcome(lambda: caustic.at_with_branch(s)) for s in (*grid, s1)], caustic

    generated, caustic = samples()
    assert read_of(caustic._programs[None]) == ("auto-dual" if "auto" in which else "tapes")
    monkeypatch.setattr(recording, "derived_program", lambda *args: None)
    assert generated == samples()[0]
    refused = (jets.JetDomainError, "jet domain error: sqrt requires a positive constant term")
    assert (where == "on the curve") == any(
        isinstance(out, tuple) and out[0] is refused[0] and out[1].startswith(refused[1])
        for out in generated)


def _rows_pair(r, v):
    """A `from_curve` pair of the expressions r and v, polynomials in s - 0.5
    whose jets at s0 = 0.5 hold the coefficient rows of their texts."""
    curve = expr.ParametricCurve("rows", tuple(map(expr.parse, r)), (-1.0, 1.0),
                                 dual_components=tuple(map(expr.parse, v)))
    return LegendrePair.from_curve(curve)


@pytest.mark.parametrize("case", ["vanishing divisor", "sqrt of a negative", "overflow"])
def test_generated_jets_fall_back_to_the_formula(case, monkeypatch):
    # where the function on a read of the curve's tapes returns None, the `Jet`
    # formula runs on the curve's reads and raises what it raises; where it
    # refuses with every value before finite, it raises that error itself;
    # mutation: not testing the finiteness of every value
    monkeypatch.setattr(expr, "_TAPES", {})  # the reads of fresh tapes
    Q = MVec3(1.0, 0.0, 0.0)
    if case == "vanishing divisor":
        # the pedal divides by sqrt(1 + <Q, v>^2) = 1 + 5e27 (s - s0)^2 + ...
        pair = _rows_pair(["1", "0", "0"], ["1e14*(s - 0.5)", "1", "0"])
        curve, order = cons.PedalCurve(pair, Q), 2
        error = (jets.JetDomainError, "jet division by vanishing germ")
    elif case == "sqrt of a negative":
        # <Q, r>^2 - 1 = -0.75 under the square root of the orthotomic's dual
        pair = _rows_pair(["0.5", "0", "0"], ["0", "1", "0"])
        curve = cons.EvoluteCurve(cons.OrthotomicInducedPair(pair, Q), tag_pair=pair, Q=Q,
                                  kind="catacaustic")
        order = 1
        error = (jets.JetDomainError,
                 "jet domain error: sqrt requires a positive constant term, got -0.75")
    else:
        # m = <v', mu> = 1e160, so m^2 overflows ahead of the branch decision,
        # which would call an infinite d2 degenerate
        pair = _rows_pair(["1", "0", "0"], ["0", "1", "1e160*(s - 0.5)"])
        curve, order = cons.evolute(pair), 1
        error = (ValueError, "non-finite jet coefficient")
    program = recording.derived_program(curve._formula, *curve._formula_args(), order)
    assert read_of(program) == "tapes"
    if case == "overflow":
        assert curve._program_coeffs(0.5, order, curve._run_program(0.5, order)) is None
    else:  # a final refusal
        with pytest.raises(error[0]) as refused:
            curve._run_program(0.5, order)
        assert str(refused.value) == error[1]
    assert (_outcome(lambda: curve.jet(0.5, order))
            == _outcome(lambda: _formula_only(curve).jet(0.5, order)) == error)


def test_generated_code_is_shared_by_every_pedal_point(monkeypatch):
    # the code of a formula is keyed by its structure, and Q is an argument,
    # so new pedal points compile nothing new: neither the jets nor the
    # samples, which run on reads of the curve's tapes, nor the off-curve scan
    # of the caustic's induced pair; mutation: Q in the source
    def compiled(points):
        for cache in (program._inline_function, recording._record_on_pair, recording._recorded):
            cache.cache_clear()
        monkeypatch.setattr(expr, "_TAPES", {})  # and the reads they hold
        pair = LegendrePair.from_curve(load_curve(CURVES / "astroid.json"))
        rng = random.Random(3)
        with mock.patch.object(jets, "compile_lines", wraps=jets.compile_lines) as compile_:
            for _ in range(points):
                Q = random_h2_point(rng)
                for make in _KINDS.values():
                    curve = make(pair, Q)
                    curve.jet(0.3, 2)
                    curve.at(0.3)
        return compile_.call_count

    one = compiled(1)
    assert one > 0
    assert compiled(20) <= one


def _compiling_tape() -> bool:
    """Whether the caller compiles a function of a curve's tapes: a read of
    them (`program.tape_read`, `frontal.auto_dual_read` with the dual jets it
    computes)."""
    tape_codes = (program.tape_read.__code__, frontal.auto_dual_read.__code__)
    frame = sys._getframe()
    while frame is not None and frame.f_code not in tape_codes:
        frame = frame.f_back
    return frame is not None


def test_an_evolute_point_is_one_generated_call(monkeypatch):
    # an evolute or caustic jet or sample decides its branch and divides in
    # the one function generated from its formula, so each is one call of it
    # besides the read of the curve's tapes, on a `from_curve` pair and on an
    # auto-dual pair alike; mutation: a second function after the branch
    # decision, as there was
    for cache in (program._inline_function, recording._record_on_pair, recording._recorded):
        cache.cache_clear()
    monkeypatch.setattr(expr, "_TAPES", {})  # and the programs they hold
    calls = []
    compile_lines = jets.compile_lines

    def counted(name, params, lines, bound=None):
        function = compile_lines(name, params, lines, bound)
        if params != "i, k" or _compiling_tape():  # a later part, or a tape's read
            return function

        def call(i, k):
            calls.append(function)
            return function(i, k)
        return call

    monkeypatch.setattr(jets, "compile_lines", counted)
    grid = linspace((0.1, 6.0), 7)
    astroid = load_curve(CURVES / "astroid.json")  # a fresh one, whose tapes keep no program
    for pair in (LegendrePair.from_curve(astroid), LegendrePair.with_auto_dual(astroid)):
        for curve in (cons.evolute(pair), cons.catacaustic(pair, Q_CENTER)):
            for evaluate in (curve.at_with_branch, lambda s: curve.jet(s, 2)):
                evaluate(grid[0])  # compiles
                for s in grid:
                    calls.clear()
                    evaluate(s)
                    assert len(calls) == 1, (pair.name, curve.kind, s)


def test_each_recorded_formula_is_compiled_once_for_every_curve(monkeypatch):
    # the samples and the jets up to order 2 of a `from_curve` pair's derived
    # curves run a read of the curve's tapes and the function of the formula,
    # recorded on no curve and keyed by its structure: after the first curve
    # only reads of the tapes are compiled; mutation: the function keyed by
    # the curve's tapes
    for cache in (program._inline_function, recording._record_on_pair, recording._recorded):
        cache.cache_clear()
    monkeypatch.setattr(expr, "_TAPES", {})
    compiled = []  # per compile: whether it is of a curve's tapes
    compile_lines = jets.compile_lines

    def counted(name, params, lines, bound=None):
        compiled.append(_compiling_tape())
        return compile_lines(name, params, lines, bound)

    monkeypatch.setattr(jets, "compile_lines", counted)
    Q = MVec3(math.cosh(0.4), math.sinh(0.4) * math.cos(2.0), math.sinh(0.4) * math.sin(2.0))
    per_curve = []
    for name in ("astroid", "cusp23", "cusp37", "circle"):
        pair = LegendrePair.from_curve(load_curve(CURVES / f"{name}.json"))
        a, b = pair.domain
        grid = [a + t * (b - a) for t in (0.31, 0.62, 0.83)]
        del compiled[:]
        for make in _KINDS.values():
            curve = make(pair, Q)
            sample = curve.at_with_branch if isinstance(curve, cons.EvoluteCurve) else curve.at
            for s in grid:
                sample(s)
                curve.jet(s, 2)
            assert all(read_of(p) == "tapes" for p in curve._programs.values())
        per_curve.append((compiled.count(True), compiled.count(False)))
    assert per_curve[0][0] > 0 and per_curve[0][1] > 0
    assert [recorded for _, recorded in per_curve[1:]] == [0, 0, 0]


@pytest.mark.parametrize("name", ["cusp23", "astroid auto"])
def test_jet_coefficient_lists_are_those_of_the_formula(name, monkeypatch):
    # `jet(..., coeffs=True)` gives a tuple of three lists, from a generated
    # function and from the `Jet` formula alike, so the two compare by repr
    curve = load_curve(CURVES / f"{name.split()[0]}.json")
    pair = (LegendrePair.with_auto_dual if "auto" in name else LegendrePair.from_curve)(curve)
    grid = linspace(pair.domain, 7)[1:-1]
    Q = MVec3(math.cosh(0.4), math.sinh(0.4) * math.cos(2.0), math.sinh(0.4) * math.sin(2.0))

    def outcomes():
        out = []
        for make in _KINDS.values():
            curve = make(pair, Q)
            for s in grid:
                for sample in (False, True):
                    try:
                        out.append(repr(curve.jet(s, 2, coeffs=True, sample=sample)))
                    except (ValueError, ArithmeticError) as exc:
                        out.append((type(exc), str(exc)))
        return out

    generated = outcomes()
    assert sum(isinstance(o, str) for o in generated) > len(generated) // 2
    monkeypatch.setattr(recording, "derived_program", lambda *args: None)
    assert outcomes() == generated


# -- singular point detection ------------------------------------------------------


def test_singular_points_m_zero(cusp37):
    points = cons.pedal(cusp37, Q_SIDE).singular_points(samples=800)
    assert len(points) == 1
    assert abs(points[0].s) <= 1e-8
    assert points[0].cause == "m_zero"


def test_singular_points_point_on_curve(cusp23):
    Q = MVec3(math.sqrt(3.0), 1.0, 1.0)
    points = cons.pedal(cusp23, Q).singular_points(samples=800)
    assert len(points) == 1
    assert abs(points[0].s - 1.0) <= 1e-8
    assert points[0].cause == "point_on_curve"


def test_singular_points_smooth_case_empty(cusp23):
    points = cons.pedal(cusp23, Q_SIDE).singular_points(samples=500)
    assert [p for p in points if -0.5 <= p.s <= 0.5] == []


def test_astroid_center_pedal_is_regular(astroid):
    assert cons.pedal(astroid, Q_CENTER).singular_points(samples=600) == []


def test_astroid_pedal_point_on_curve(astroid):
    Q = astroid.r(math.pi / 4.0)
    points = cons.pedal(astroid, Q).singular_points(samples=800)
    assert len(points) == 1
    assert abs(points[0].s - math.pi / 4.0) <= 1e-8
    assert points[0].cause == "point_on_curve"


def test_pedal_and_orthotomic_share_singular_parameters(cusp37, astroid):
    for pair, Q in ((cusp37, Q_SIDE), (astroid, astroid.r(math.pi / 4.0))):
        sp = [p.s for p in cons.pedal(pair, Q).singular_points(samples=600)]
        so = [p.s for p in cons.orthotomic(pair, Q).singular_points(samples=600)]
        assert len(sp) == len(so)
        assert all(abs(a - b) <= 1e-8 for a, b in zip(sp, so))


class _Source:
    """The source pair of a fake derived curve: m = 1, so a point found is of cause "other"."""

    domain = (0.0, 1.0)

    def curvatures(self, s):
        return 0.0, 1.0


class _Parabola:
    """s -> (0, (s - 0.41)^2, 0) on [0, 1], undefined on the open interval `hole`."""

    domain = (0.0, 1.0)
    pair = _Source()
    Q = None

    def __init__(self, hole):
        self.hole = hole

    def jet(self, s0, order):
        if self.hole[0] < s0 < self.hole[1]:
            raise cons.EvoluteDegenerateError(f"undefined at s={s0!r}")
        zero = jets.Jet.constant(0.0, s0, order)
        d = s0 - 0.41
        return MVec3(zero, jets.Jet(s0, (d * d, 2.0 * d, 1.0)), zero)


def test_singular_points_drop_a_bracket_whose_bisection_is_undefined():
    # on the grid 0, 0.1, ..., 1 the zero at 0.41 is bracketed by [0.4, 0.5]
    found = cons.singular_points(_Parabola((2.0, 3.0)), samples=11)
    assert len(found) == 1 and abs(found[0].s - 0.41) <= 1e-9
    assert found[0].speed == abs(2.0 * (found[0].s - 0.41)) and found[0].cause == "other"
    # the refiner's first probe, 0.43, is undefined: the bracket is a gap
    assert cons.singular_points(_Parabola((0.42, 0.44)), samples=11) == []
    # an undefined point outside the refinement changes nothing
    assert cons.singular_points(_Parabola((0.62, 0.65)), samples=11) == found


class _Skew:
    """A velocity (1, 1, 1) on [0, 1] but at s = 0.5, where it is tiny and
    its squares' sum rounds differently left to right and compensated."""

    domain = (0.0, 1.0)
    pair = _Source()
    Q = None

    def jet(self, s0, order):
        d1 = (1e-09, 7.380042128756378e-10, 3.458702014678692e-10) if s0 == 0.5 else (1.0,) * 3
        return MVec3(*(jets.Jet(s0, (0.0, c) + (0.0,) * (order - 1)) for c in d1))


def test_singular_point_speed_is_summed_left_to_right():
    # the same bits on every Python: from 3.12 on, builtin sum() compensates
    # a float sum, and sum(c * c for c in d1) would give 1.290068375895485e-09
    (point,) = cons.singular_points(_Skew(), samples=11)
    assert (point.s, point.speed, point.cause) == (0.5, 1.2900683758954848e-09, "other")


class _Line:
    """s -> (0, s, 0) on [0, 1]: unit speed, no singular point."""

    domain = (0.0, 1.0)
    Q = None

    def jet(self, s0, order):
        zero = jets.Jet.constant(0.0, s0, order)
        return MVec3(zero, jets.Jet.variable(s0, order), zero)


class _UndefinedCurvatures:
    def curvatures(self, s):
        raise cons.EvoluteDegenerateError(f"undefined at s={s!r}")


def test_singular_points_without_a_zero_leave_the_curvatures_unread():
    # the curvature scale only tags the cause of a found point
    line = _Line()
    line.pair = _UndefinedCurvatures()
    assert cons.singular_points(line, samples=11) == []


def test_scalar_zeros_on_plain_function():
    zeros = scalar_zeros(math.sin, math.cos, (-0.5, 7.0), samples=400)
    expected = [0.0, math.pi, 2.0 * math.pi]
    assert len(zeros) == 3
    assert all(abs(a - b) <= 1e-9 for a, b in zip(zeros, expected))


def test_singular_points_lie_at_the_known_parameters(cusp23, cusp37, astroid):
    # Q = (1, 0, 0) is the cusps' point r(0) and the astroid's centre
    for pair in (cusp23, cusp37):
        for construct in (cons.pedal, cons.orthotomic):
            points = construct(pair, Q_CENTER).singular_points(samples=200)
            assert len(points) == 1 and abs(points[0].s) <= 5e-11
    points = cons.catacaustic(astroid, Q_CENTER).singular_points(samples=200)
    assert len(points) == 6
    assert all(abs(p.s - round(p.s / (math.pi / 4)) * math.pi / 4) <= 5e-11 for p in points)


# -- the ITP refiner -----------------------------------------------------------------


class _Probes:
    """fn for `cons._itp`: records (probe, value) and fails beyond bisection's count + 1."""

    def __init__(self, lo, hi, width, value):
        self.limit = math.ceil(math.log2((hi - lo) / width)) + 1
        self.value = value
        self.seen = []

    def __call__(self, x):
        assert len(self.seen) < self.limit, "more probes than bisection + 1"
        fx = self.value(x)
        self.seen.append((x, fx))
        return fx


def _replay(lo, hi, flo, seen):
    """The bracket the refiner holds after its probes, rebuilt from their signs."""
    for x, fx in seen:
        assert lo < x < hi
        if fx is None or fx == 0.0:
            break
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi = x
    return lo, hi


_brackets = st.tuples(st.floats(-10.0, 10.0), st.floats(-9.0, 1.0),
                      st.sampled_from([1e-10, 1e-12]), st.sampled_from([-1.0, 1.0]))


def _noise(rng):
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)


@settings(max_examples=300, deadline=None)
@given(_brackets, st.randoms(use_true_random=False))
def test_itp_on_noise_keeps_bisections_count_plus_one(bracket, rng):
    # mutations: pure regula falsi (no truncation, no projection) runs past the
    # count; dropping the midpoint fallback lets an overflowed interpolation
    # probe outside the bracket
    start, log_length, width, sign = bracket
    lo, hi = start, start + 10.0 ** log_length
    flo, fhi = sign * abs(_noise(rng)), -sign * abs(_noise(rng))
    fn = _Probes(lo, hi, width, lambda x: _noise(rng))
    root = cons._itp(fn, lo, hi, flo, fhi, width)
    a, b = _replay(lo, hi, flo, fn.seen)
    assert lo <= root <= hi
    assert b - a <= width and root == 0.5 * (a + b)


@settings(max_examples=300, deadline=None)
@given(_brackets, st.floats(0.0, 1.0), st.floats(0.05, 20.0))
def test_itp_lands_within_half_the_width_of_a_simple_root(bracket, where, rate):
    # mutation: returning the last probe instead of the final bracket's midpoint
    start, log_length, width, sign = bracket
    lo, hi = start, start + 10.0 ** log_length
    x0 = lo + where * (hi - lo)

    def value(x):  # smooth, its sign that of sign * (x - x0) exactly
        return sign * math.expm1(rate * (x - x0)) * (2.0 + math.sin(x))

    flo, fhi = value(lo), value(hi)
    assume(flo != 0.0 and fhi != 0.0)
    fn = _Probes(lo, hi, width, value)
    root = cons._itp(fn, lo, hi, flo, fhi, width)
    assert abs(root - x0) <= 0.5 * width


def test_itp_ends_where_the_width_is_below_the_float_spacing():
    # floats near 1e6 are 1.2e-10 apart, so no bracket there is 1e-10 wide;
    # mutation: refining to the requested width probes on forever
    x0 = 1e6 + math.pi / 10

    def value(x):  # never exactly 0.0 on a float x
        return (x - 1e6) - math.pi / 10

    fn = _Probes(1e6, 1e6 + 1.0, 1e-10, value)
    root = cons._itp(fn, 1e6, 1e6 + 1.0, value(1e6), value(1e6 + 1.0), 1e-10)
    assert abs(root - x0) <= 8.0 * math.ulp(x0)


@given(st.integers(1, 40), st.sampled_from([None, 0.0]), st.randoms(use_true_random=False))
def test_itp_stops_at_an_undefined_or_exactly_zero_probe(k, stop, rng):
    # mutations: an undefined probe treated as a sign change; refining on past a zero
    state = rng.getstate()
    fn = _Probes(0.4, 0.5, 1e-10, lambda x: _noise(rng))
    cons._itp(fn, 0.4, 0.5, -1.0, 1.0, 1e-10)
    assume(k <= len(fn.seen))
    rng.setstate(state)
    stopped = _Probes(0.4, 0.5, 1e-10,
                      lambda x: stop if len(stopped.seen) == k - 1 else _noise(rng))
    got = cons._itp(stopped, 0.4, 0.5, -1.0, 1.0, 1e-10)
    assert [x for x, _ in stopped.seen] == [x for x, _ in fn.seen[:k]]
    assert got == (None if stop is None else fn.seen[k - 1][0])


# -- invariance properties -----------------------------------------------------------


def test_pedal_reparametrization_invariance(cusp23, astroid):
    def change(x):
        return x + x**3 / 3.0

    for pair, Q, xi_range in ((cusp23, Q_SIDE, (-1.1, 1.1)), (astroid, Q_CENTER, (0.0, 1.7))):
        tilted = reparametrized(pair, change, xi_range)
        ped = cons.pedal(pair, Q)
        ped_tilted = cons.pedal(tilted, Q)
        worst = 0.0
        for i in range(41):
            xi = xi_range[0] + (xi_range[1] - xi_range[0]) * i / 40
            worst = max(worst, _max_dev(ped.at(change(xi)), ped_tilted.at(xi)))
        assert worst <= 1e-10
