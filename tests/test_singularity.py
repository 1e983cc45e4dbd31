from __future__ import annotations

import json
import math
import random
from unittest import mock

import pytest

from conftest import CURVES
from hypedal import expr, jets, program, recording, singularity
from hypedal import constructions as cons
from hypedal.expr import ParametricCurve, parse
from hypedal.frontal import LegendrePair, reparametrized
from hypedal.io import load_curve
from hypedal.jets import Jet
from hypedal.minkowski import GeometryError, MVec3, boost_to_origin, inner
from hypedal.singularity import (
    SMOOTH, GermKind, LocationCase, Verdict, _det_jet, classify_pedal, detect_Ak,
    dual_identity_check, location_case, measure_exponents,
)

Q_CENTER = MVec3(1.0, 0.0, 0.0)
Q_SIDE = MVec3(math.sqrt(2.0), 1.0, 0.0)
Q_ON_23 = MVec3(math.sqrt(3.0), 1.0, 1.0)  # = cusp23 point at s=1


# -- germ detection -----------------------------------------------------------


def test_detect_Ak_on_curvature_germs(cusp23, cusp37):
    ell_jet, m_jet = cusp23.curvature_jets(0.0, 10)
    germ = detect_Ak(ell_jet)
    assert germ.kind is GermKind.AK and germ.k == 0 and germ.first_nonzero == 1
    assert detect_Ak(m_jet).kind is GermKind.NON_VANISHING

    ell_jet, m_jet = cusp37.curvature_jets(0.0, 10)
    assert detect_Ak(m_jet).k == 2
    assert detect_Ak(ell_jet).k == 1


def test_detect_Ak_constant_and_flat():
    base = Jet.constant(1.5, 0.0, 8)
    assert detect_Ak(base).kind is GermKind.NON_VANISHING
    flat = Jet.constant(0.0, 0.0, 8)
    assert detect_Ak(flat).kind is GermKind.UNDETERMINED


def test_detect_Ak_depth_cap():
    # s^6 in an order-8 jet: beyond the default cap of order-3 = 5
    j = Jet(0.0, (0.0,) * 6 + (1.0, 0.0, 0.0))
    assert detect_Ak(j).kind is GermKind.UNDETERMINED
    assert detect_Ak(j, max_depth=6).first_nonzero == 6


def test_detect_Ak_sign_invariance():
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randint(0, 5)
        coeffs = [0.0] * n + [rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
                              for _ in range(rng.randint(1, 5))]
        j = Jet(0.0, tuple(coeffs + [0.0] * 4))
        a = detect_Ak(j)
        b = detect_Ak(-j)
        assert (a.kind, a.k, a.first_nonzero) == (b.kind, b.k, b.first_nonzero)


# -- pedal point location ------------------------------------------------------


def test_location_cases(cusp23):
    assert location_case(cusp23, Q_ON_23, 1.0) is LocationCase.Q_EQUALS_CURVE_POINT
    assert location_case(cusp23, Q_CENTER, 0.0) is LocationCase.Q_EQUALS_CURVE_POINT
    # v(0) = (0, 0, -1), so <Q_SIDE, v(0)> = 0: on the tangent geodesic
    assert location_case(cusp23, Q_SIDE, 0.0) is LocationCase.Q_ON_TANGENT_GEODESIC
    assert location_case(cusp23, MVec3(math.sqrt(2.0), 0.0, 1.0), 0.0) is LocationCase.Q_GENERIC


# -- exponent measurement -------------------------------------------------------


def _embed_plane_germ(x: Jet, y: Jet) -> MVec3:
    return MVec3((1.0 + x * x + y * y).sqrt(), x, y)


def test_measure_exponents_cusp_model():
    t = Jet.variable(0.0, 12)
    P = _embed_plane_germ(t**2, t**3)
    assert measure_exponents(P) == (2, 3)
    # the area-density invariant behind the second exponent has order a+b-3
    Pt = P.map(lambda j: j.truncate(10))
    P1 = P.map(lambda j: j.d_ds()).map(lambda j: j.truncate(10))
    P2 = P.map(lambda j: j.d_ds()).map(lambda j: j.d_ds())
    from hypedal.minkowski import det3

    assert jets.vanishing_order(det3(Pt, P1, P2)) == 2


def test_measure_exponents_smooth_germ():
    t = Jet.variable(0.0, 8)
    P = _embed_plane_germ(t, t**3)
    assert measure_exponents(P) == SMOOTH


def test_measure_exponents_undetermined_when_flat():
    t = Jet.variable(0.0, 8)
    zero = Jet.constant(0.0, 0.0, 8)
    assert measure_exponents(_embed_plane_germ(zero, zero)) is None


def test_measure_exponents_synthetic_family():
    rng = random.Random(20240817)
    for _ in range(30):
        a = rng.randint(2, 8)
        b = rng.randint(a + 1, 9)
        t = Jet.variable(0.0, 22)
        x = t ** a
        y = t ** b
        for _ in range(rng.randint(0, 3)):
            x = x + rng.uniform(-0.4, 0.4) * t ** rng.randint(a + 1, 12)
            y = y + rng.uniform(-0.4, 0.4) * t ** rng.randint(b + 1, 12)
        assert measure_exponents(_embed_plane_germ(x, y)) == (a, b)


def test_measured_exponents_boost_invariant(cusp23):
    P = cons.pedal_point(Q_ON_23, cusp23.v_jet(1.0, 22))
    boosted = boost_to_origin(cusp23.r(1.0)).apply(P)
    assert measure_exponents(P) == measure_exponents(boosted) == (2, 3)


# -- classification ---------------------------------------------------------------


def test_classification_golden_suite(cusp23, cusp37):
    report = classify_pedal(cusp23, Q_ON_23, 1.0)
    assert report.predicted == report.measured == (2, 3)
    assert report.verdict is Verdict.MATCH
    assert report.location is LocationCase.Q_EQUALS_CURVE_POINT
    assert (report.j, report.k) == (0, 0)

    report = classify_pedal(cusp23, Q_CENTER, 0.0)
    assert report.predicted == report.measured == (3, 4)
    assert report.verdict is Verdict.MATCH
    assert (report.j, report.k) == (0, 1)

    report = classify_pedal(cusp37, Q_CENTER, 0.0)
    assert report.predicted == report.measured == (7, 11)
    assert report.verdict is Verdict.MATCH
    assert (report.j, report.k) == (3, 2)

    report = classify_pedal(cusp23, Q_SIDE, 0.0)
    assert report.predicted == report.measured == SMOOTH
    assert report.verdict is Verdict.MATCH
    assert report.location is LocationCase.REGULAR


def test_classification_generic_point_with_singular_dual(cusp37):
    # j = 3, k = 2, Q away from the tangent geodesic: exponents (j+1, j+k+2)
    Q = MVec3(math.sqrt(2.0), 0.0, 1.0)
    report = classify_pedal(cusp37, Q, 0.0, order=26)
    assert report.location is LocationCase.Q_GENERIC
    assert report.predicted == report.measured == (4, 7)
    assert report.verdict is Verdict.MATCH


def test_classification_undetermined_at_low_order(cusp37):
    report = classify_pedal(cusp37, Q_CENTER, 0.0, order=8)
    assert report.verdict is Verdict.UNDETERMINED
    assert report.measured is None


def test_classification_scaling_invariance(cusp37):
    scaled = reparametrized(cusp37, lambda x: 0.5 * x, (-4.0, 4.0))
    report = classify_pedal(scaled, Q_CENTER, 0.0)
    assert report.predicted == report.measured == (7, 11)
    assert report.verdict is Verdict.MATCH
    assert (report.j, report.k) == (3, 2)


def test_report_serialization(cusp23):
    doc = classify_pedal(cusp23, Q_CENTER, 0.0).to_dict()
    assert list(doc.keys()) == [
        "s0", "point", "m_germ", "ell_germ", "j", "k",
        "location_case", "predicted", "measured", "verdict",
    ]
    assert doc["predicted"] == [3, 4]
    assert doc["verdict"] == "match"


@pytest.mark.parametrize("s0", ["0", True, 0, False, -0.0])
def test_report_gives_s0_as_the_float_the_germs_were_taken_at(cusp23, s0):
    report = classify_pedal(cusp23, Q_CENTER, s0)
    assert type(report.s0) is float and repr(report.s0) == repr(float(s0))
    assert json.dumps(report.to_dict()["s0"]) == repr(float(s0))
    assert report.to_dict() == classify_pedal(cusp23, Q_CENTER, float(s0)).to_dict()


@pytest.mark.parametrize("s0, error", [
    ("abc", (ValueError, "could not convert string to float: 'abc'")),
    (10**400, (OverflowError, "int too large to convert to float")),
    (None, (TypeError, "float() argument must be a string or a real number, not 'NoneType'")),
    (math.nan, (ValueError, "non-finite jet base")),
])
def test_report_refuses_an_s0_that_is_no_finite_float(cusp23, s0, error):
    with pytest.raises(error[0]) as raised:
        classify_pedal(cusp23, Q_CENTER, s0)
    assert str(raised.value) == error[1]


# -- structural identities of the dual curve -----------------------------------------


def test_dual_identity_report(golden_pairs):
    rng = random.Random(53)
    for name, pair in golden_pairs.items():
        a, b = pair.domain
        for _ in range(6):
            s0 = rng.uniform(a, b)
            report = dual_identity_check(pair, s0)
            assert report.residual_vv <= 1e-8, (name, s0)
            assert report.residual_vmu <= 1e-8, (name, s0)
            if report.residual_higher is not None:
                assert report.residual_higher <= 1e-7, (name, s0)


def test_higher_identity_with_first_order_ell_germ(cusp23):
    # at s0 = 0 the germ order of ell is k = 1: the fourth dual derivative
    # pairs with the curve as -(3 m' ell' + m ell'')
    vj = cusp23.v_jet(0.0, 6)
    v4 = MVec3(*[jets.derivative(c, 4) for c in vj.components()])
    lhs = inner(v4, cusp23.r(0.0))
    ell_jet, m_jet = cusp23.curvature_jets(0.0, 4)
    rhs = -(3.0 * jets.derivative(m_jet, 1) * jets.derivative(ell_jet, 1)
            + m_jet.coeffs[0] * jets.derivative(ell_jet, 2))
    assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs), abs(rhs))
    report = dual_identity_check(cusp23, 0.0)
    assert report.k == 1
    assert report.max_residual <= 1e-7



# -- generated germs ------------------------------------------------------------------


def _lists_outcome(fn):
    """Coefficient lists by repr, so the sign of zero counts, or the exception."""
    try:
        return [[repr(c) for c in coeffs] for coeffs in fn()]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _report_outcome(fn):
    """The report by repr, or the exception."""
    try:
        return repr(fn())
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_CUSP_S0 = {"astroid": 0.5 * math.pi, "circle": 0.0, "cusp23": 0.0, "cusp37": 0.0}
_ORDERS = (4, 16, 22, 40, 60)


def _draws(pair, name, where):
    """(Q, s0, order) at a cusp parameter and a generic one, Q of one kind."""
    draws = []
    for s0 in (_CUSP_S0[name], 0.37):
        Q = {"generic": MVec3(math.cosh(0.7), math.sinh(0.7) * math.cos(1.0),
                              math.sinh(0.7) * math.sin(1.0)),
             "on the curve": pair.r(s0),
             "on the tangent geodesic": math.cosh(0.6) * pair.r(s0) + math.sinh(0.6) * pair.mu(s0),
             }[where]
        draws += [(Q, s0, order) for order in _ORDERS]
    return draws


@pytest.mark.parametrize("where", ["generic", "on the curve", "on the tangent geodesic"])
@pytest.mark.parametrize("name", ["astroid", "circle", "cusp23", "cusp37"])
def test_generated_germs_are_the_jet_formulas(name, where, golden_pairs, monkeypatch):
    # a from_curve pair's ell, m, pedal germ P and det(P, P', P'') come from
    # generated functions; the `Jet` formulas must give the same bits, and
    # the generated functions no answer, or the error of a final refusal,
    # only where those raise it.  Mutations:
    # the pedal germ read from r, the tape's r and v swapped
    pair = golden_pairs[name]
    draws = _draws(pair, name, where)
    generated = []
    for Q, s0, order in draws:
        def formulas():
            P = cons.pedal_point(Q, pair.v_jet(s0, order))
            return [j.coeffs for j in (*pair.curvature_jets(s0, order), *P.components())]

        germs = recording.pedal_germs(pair, Q, s0, order)
        expected = _lists_outcome(formulas)
        generated.append(germs is not None)
        if germs.__class__ is jets.JetDomainError:  # a final refusal
            assert (type(germs), str(germs)) == expected, (s0, order)
            continue
        if germs is None:
            assert isinstance(expected, tuple), (s0, order)
            continue
        base, ell, m, P = germs
        assert _lists_outcome(lambda: [ell, m, *P]) == expected, (s0, order)
        det = recording.pedal_det(P)
        jet_det = _lists_outcome(lambda: [_det_jet(MVec3(*(Jet(base, tuple(c)) for c in P))).coeffs])
        if det is None:
            assert isinstance(jet_det, tuple), (s0, order)
        else:
            assert _lists_outcome(lambda: [det]) == jet_det, (s0, order)
    assert sum(generated) >= 0.7 * len(generated)
    reports = [_report_outcome(lambda: classify_pedal(pair, Q, s0, order)) for Q, s0, order in draws]
    monkeypatch.setattr(recording, "pedal_germs", lambda *args: None)  # the `Jet` path alone
    assert reports == [_report_outcome(lambda: classify_pedal(pair, Q, s0, order))
                       for Q, s0, order in draws]


def _overflow_pair():
    # r has coefficients of 1e200, so ell = <r', r ^ v> overflows at s0 = 0.5
    curve = ParametricCurve("overflow", (parse("1 + 1e200*s^2"), parse("1e200*s^2"), parse("0")),
                            (-1.0, 1.0), dual_components=(parse("0"), parse("0"), parse("1")))
    return LegendrePair.from_curve(curve)


@pytest.mark.parametrize("case", ["cusp37 order 40", "cusp37 order 60", "overflow",
                                  "no v", "no v order 60", "det"])
def test_generated_germs_fall_back_to_the_jet_formulas(case, cusp37, cusp37_curve, monkeypatch):
    # where a generated function gives no answer, or a pair has none, the
    # `Jet` formulas run and return or raise what they did before
    Q, s0, order = MVec3(1.0, 0.0, 0.0), 0.5, 22
    pair = cusp37
    error = None
    if case.startswith("cusp37"):  # the pinned example of a refused divisor
        order = int(case.split()[-1])
        error = (jets.JetDomainError, "jet division by vanishing germ")
    elif case == "overflow":
        pair = _overflow_pair()
        error = (ValueError, "non-finite jet coefficient")
    elif case.startswith("no v"):  # a curve file without "v"
        pair = LegendrePair.with_auto_dual(cusp37_curve)
        if case.endswith("60"):
            order = 60
            error = (jets.JetDomainError, "jet division by vanishing germ")
    else:  # det(P, P', P'') from the `Jet` formula, Q = r(0)
        monkeypatch.setattr(recording, "pedal_det", lambda P: None)
        s0 = 0.0
    assert recording.pedal_germs(pair, Q, s0, order) is None or case == "det"
    outcome = _report_outcome(lambda: classify_pedal(pair, Q, s0, order))
    if case == "det":
        assert "measured=(7, 11)" in outcome
    with mock.patch.object(recording, "pedal_germs", lambda *args: None):
        assert outcome == _report_outcome(lambda: classify_pedal(pair, Q, s0, order))
    assert (outcome if error else None) == error


def test_a_final_refusal_is_raised_after_the_location_case(cusp23, monkeypatch):
    # at order 60, P's divisor is refused with every value before it finite,
    # so the generated germs' refusal is final and no `Jet` formula runs; the
    # formulas raise it only after `location_case`, whose own error comes
    # first; mutation: classify_pedal raising the refusal before it
    Q = math.cosh(0.6) * cusp23.r(0.0) + math.sinh(0.6) * cusp23.mu(0.0)
    refused = recording.pedal_germs(cusp23, Q, 0.0, 60)
    assert refused.__class__ is jets.JetDomainError
    assert (_report_outcome(lambda: classify_pedal(cusp23, Q, 0.0, 60))
            == (jets.JetDomainError, "jet division by vanishing germ"))
    # a tol that is no float fails the germ decisions first, as without the generator
    with pytest.raises(TypeError) as odd:
        classify_pedal(cusp23, Q, 0.0, 60, 1j)
    with mock.patch.object(recording, "pedal_germs", lambda *args: None):
        with pytest.raises(TypeError, match=str(odd.value)):
            classify_pedal(cusp23, Q, 0.0, 60, 1j)

    def located(*args):
        raise GeometryError("Q not located")

    monkeypatch.setattr(singularity, "location_case", located)
    expected = (GeometryError, "Q not located")
    assert _report_outcome(lambda: classify_pedal(cusp23, Q, 0.0, 60)) == expected
    with mock.patch.object(recording, "pedal_germs", lambda *args: None):
        assert _report_outcome(lambda: classify_pedal(cusp23, Q, 0.0, 60)) == expected


@pytest.mark.parametrize("what", ["pedal jet", "classify"])
def test_generated_code_stops_at_the_maximum_order(what, cusp23):
    # a from_curve pair's programs run up to jets.MAX_ORDER and no
    # further, as the tape's reads do, so past it the formulas raise what
    # they raise without them; mutation: the programs' order unbounded
    Q, s0, top = Q_CENTER, 0.5, jets.MAX_ORDER
    error = (ValueError, f"jet order {top + 1} exceeds the configured maximum {top}")
    if what == "pedal jet":  # reads v at its order
        curve = cons.pedal(cusp23, Q)
        assert curve._run_program(s0, top) is not None
        assert curve._run_program(s0, top + 1) is None
        assert _report_outcome(lambda: curve.jet(s0, top + 1)) == error
        assert _report_outcome(lambda: curve._formula_jet(s0, top + 1)) == error
    else:  # reads r and v at order + 1
        assert recording.pedal_germs(cusp23, Q, s0, top - 1) is not None
        assert recording.pedal_germs(cusp23, Q, s0, top) is None
        assert _report_outcome(lambda: classify_pedal(cusp23, Q, s0, top)) == error
        with mock.patch.object(recording, "pedal_germs", lambda *args: None):
            assert _report_outcome(lambda: classify_pedal(cusp23, Q, s0, top)) == error


def test_classify_code_is_shared_by_every_pedal_point(monkeypatch):
    # the germ and det programs are recorded once per order and their code
    # is keyed by its structure, with Q as arguments, so new pedal points
    # compile nothing new; the germs' read of the curve's tapes is kept with
    # them, so each count starts from fresh tapes; mutation: the
    # recordings and the code uncached
    rng = random.Random(5)
    # Q = r(s0), where the pedal germ is singular, or a generic Q
    draws = [(0.0, None)] + [(rng.uniform(-1.5, 1.5), rng.choice([None, MVec3(
        math.cosh(0.7), math.sinh(0.7) * math.cos(phi), math.sinh(0.7) * math.sin(phi))]))
        for phi in (rng.uniform(0.0, 6.0) for _ in range(19))]

    def compiled(points):
        for cache in (program._inline_function, recording._record_on_pair,
                      recording._det_program, recording._recorded):
            cache.cache_clear()
        monkeypatch.setattr(expr, "_TAPES", {})  # and the reads they hold
        pair = LegendrePair.from_curve(load_curve(CURVES / "cusp23.json"))
        pair.r(0.3), pair.v(0.3)  # the curve's own float programs
        with mock.patch.object(jets, "compile_lines", wraps=jets.compile_lines) as compile_:
            for s0, Q in draws[:points]:
                classify_pedal(pair, pair.r(s0) if Q is None else Q, s0)
        return sum(call.args[0] == "_program" for call in compile_.call_args_list)

    one = compiled(1)
    assert one >= 2  # the germs and det(P, P', P'')
    assert compiled(20) <= one
