from __future__ import annotations

import math
import random

import pytest

from hypedal import jets
from hypedal.frontal import (
    AutoDual, CurveSingularError, DualUndeterminedError, LegendrePair, frenet_regular,
    reparametrized,
)
from hypedal.io import curve_from_dict
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
