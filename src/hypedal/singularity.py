"""Germ analysis and classification of pedal-curve singularities.

The curvature functions ell and m are analyzed as jets: a germ has an
A_k singularity when derivatives 0..k vanish and derivative k+1 does not.
Writing j for the first non-vanishing derivative index of m and k for the
one of ell at s0, the local model of the pedal map-germ is

    m(s0) != 0, Q != r(s0)          -> smooth
    m(s0) != 0, Q  = r(s0)          -> t |-> (t^(k+2), t^(k+3))
    j >= 1,     Q  = r(s0)          -> t |-> (t^(j+k+2), t^(2j+k+3))
    j >= 1,     Q on tangent geodesic, Q != r(s0)
                                    -> t |-> (t^(j+1),   t^(2j+k+3))
    j >= 1,     Q generic           -> t |-> (t^(j+1),   t^(j+k+2))

Every prediction is cross-checked by an independent measurement that never
looks at the curvature functions: the minimum vanishing order of the
ambient components gives the first exponent a, and the vanishing order d
of the triple product det(P, P', P'') (the intrinsic area pairing on the
hyperboloid) gives the second through b = d - a + 3.  Both quantities are
diffeomorphism invariants of germs equivalent to (t^a, t^b).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import jets
from .constructions import pedal_point
from .decide import GERM_TOL, coincident
from .frontal import LegendrePair, _const, _d, _truncate
from .minkowski import MVec3, _vec, det3, inner, require_upper_sheet, wedge

SMOOTH = "smooth"

DEFAULT_CLASSIFY_ORDER = 22


class GermKind(Enum):
    NON_VANISHING = "non_vanishing"  # A_{-1}: the germ itself does not vanish
    AK = "ak"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class GermOrder:
    kind: GermKind
    k: int | None = None  # A_k index, set only for kind AK
    first_nonzero: int | None = None  # index of the first non-vanishing derivative

    def to_dict(self):
        return {"kind": self.kind.value, "k": self.k, "first_nonzero": self.first_nonzero}


def detect_Ak(f: jets.Jet, tol: float = GERM_TOL, max_depth: int | None = None) -> GermOrder:
    """Classify a scalar germ from its jet.

    The detection depth is capped at order - 3 by default so the exponent
    oracle always has headroom; beyond the cap the result is Undetermined,
    never a guess.
    """
    if max_depth is None:
        max_depth = max(1, f.order - 3)
    v = jets.vanishing_order(f, tol)
    if v is None or v > max_depth:
        return GermOrder(GermKind.UNDETERMINED)
    if v == 0:
        return GermOrder(GermKind.NON_VANISHING, first_nonzero=0)
    return GermOrder(GermKind.AK, k=v - 1, first_nonzero=v)


class LocationCase(Enum):
    Q_EQUALS_CURVE_POINT = "q_equals_curve_point"
    Q_ON_TANGENT_GEODESIC = "q_on_tangent_geodesic"
    Q_GENERIC = "q_generic"
    REGULAR = "regular"  # report-only: the pedal germ is regular at s0


def location_case(pair: LegendrePair, Q: MVec3, s0: float, tol: float = GERM_TOL) -> LocationCase:
    """Geometric position of Q relative to the tangent geodesic at s0.

    The geodesic tangent to mu at r(s0) is the hyperboloid section by the
    plane <x, v(s0)> = 0, so membership is the vanishing of <Q, v(s0)>.
    """
    if coincident(inner(Q, pair.r(s0)), tol):
        return LocationCase.Q_EQUALS_CURVE_POINT
    if abs(inner(Q, pair.v(s0))) <= tol:
        return LocationCase.Q_ON_TANGENT_GEODESIC
    return LocationCase.Q_GENERIC


class Verdict(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SingularityReport:
    s0: float
    Q: MVec3
    m_germ: GermOrder
    ell_germ: GermOrder
    j: int | None
    k: int | None
    location: LocationCase
    predicted: tuple[int, int] | str | None
    measured: tuple[int, int] | str | None
    verdict: Verdict

    def to_dict(self):
        def exponents(x):
            if x is None or x == SMOOTH:
                return x
            return list(x)

        return {
            "s0": self.s0,
            "point": [self.Q.x1, self.Q.x2, self.Q.x3],
            "m_germ": self.m_germ.to_dict(),
            "ell_germ": self.ell_germ.to_dict(),
            "j": self.j,
            "k": self.k,
            "location_case": self.location.value,
            "predicted": exponents(self.predicted),
            "measured": exponents(self.measured),
            "verdict": self.verdict.value,
        }


def measure_exponents(P: MVec3, tol: float = GERM_TOL):
    """Measured normal-form exponents (a, b) of a curve germ given as jets.

    a is the minimum vanishing order of the shifted ambient components;
    d is the vanishing order of det(P, P', P''), and b = d - a + 3.
    Returns SMOOTH when a = 1 and None when the orders exceed truncation.
    """
    return _exponents([c.coeffs for c in P.components()], tol, lambda: _det_jet(P).coeffs)


def _exponents(P: list, tol: float, det):
    """`measure_exponents` of a germ whose components have the coefficient
    sequences P; det() gives the coefficients of det(P, P', P'')."""
    order = min(map(len, P)) - 1
    # each component shifted to vanish at s0, as P - P(s0) computes it
    comp_orders = [jets.vanishing_order([c[0] - c[0], *c[1:]], tol) for c in P]
    comp_orders = [v for v in comp_orders if v is not None]
    if not comp_orders:
        return None
    a = min(comp_orders)
    if a == 1:
        return SMOOTH
    if a > order - 3:
        return None
    d = jets.vanishing_order(det(), tol)
    if d is None:
        return None
    b = d - a + 3
    if b <= a:
        return None
    return (a, b)


def _det_jet(P: MVec3) -> jets.Jet:
    """det(P, P', P''), at the order of P''."""
    order = min(c.order for c in P.components())
    return det3(_truncate(P, order - 2), _truncate(_d(P), order - 2), _d(_d(P)))


def classify_pedal(pair: LegendrePair, Q: MVec3, s0: float,
                   order: int = DEFAULT_CLASSIFY_ORDER, tol: float = GERM_TOL) -> SingularityReport:
    """Predict the pedal germ's normal form and verify it independently.

    The prediction follows the decision table in the module docstring; the
    measurement runs on the pedal jets themselves.  Germ orders that are
    flat to truncation yield an Undetermined verdict rather than a guess.
    Q must lie on the upper hyperboloid sheet, as for `constructions.pedal`.
    """
    require_upper_sheet(Q, "pedal point")
    # the jets from generated functions where they give an answer (see
    # `recording.pedal_germs`), or else from the `Jet` formulas
    from .recording import pedal_germs

    germs = pedal_germs(pair, Q, s0, order)
    if germs is None:
        ell_jet, m_jet = pair.curvature_jets(s0, order)
    else:
        base, ell, m, P = germs
        ell_jet, m_jet = jets._jet(base, tuple(ell)), jets._jet(base, tuple(m))
    m_germ = detect_Ak(m_jet, tol)
    ell_germ = detect_Ak(ell_jet, tol)
    geo = location_case(pair, Q, s0, tol)

    j = m_germ.first_nonzero
    k = ell_germ.first_nonzero
    location = geo
    predicted: tuple[int, int] | str | None

    if m_germ.kind is GermKind.UNDETERMINED:
        predicted = None
    elif j == 0:
        if geo is not LocationCase.Q_EQUALS_CURVE_POINT:
            predicted = SMOOTH
            location = LocationCase.REGULAR
        elif ell_germ.kind is GermKind.UNDETERMINED:
            predicted = None
        else:
            predicted = (k + 2, k + 3)
    else:
        if ell_germ.kind is GermKind.UNDETERMINED:
            predicted = None
        elif geo is LocationCase.Q_EQUALS_CURVE_POINT:
            predicted = (j + k + 2, 2 * j + k + 3)
        elif geo is LocationCase.Q_ON_TANGENT_GEODESIC:
            predicted = (j + 1, 2 * j + k + 3)
        else:
            predicted = (j + 1, j + k + 2)

    if germs is None:
        measured = measure_exponents(pedal_point(Q, pair.v_jet(s0, order)), tol)
    else:
        measured = _exponents(P, tol, lambda: _generated_det(base, P))

    if predicted is None or measured is None:
        verdict = Verdict.UNDETERMINED
    elif predicted == measured:
        verdict = Verdict.MATCH
    else:
        verdict = Verdict.MISMATCH

    return SingularityReport(
        s0=float(s0), Q=Q, m_germ=m_germ, ell_germ=ell_germ,  # the base the germs were taken at
        j=j, k=k, location=location,
        predicted=predicted, measured=measured, verdict=verdict,
    )


def _generated_det(base: float, P: list) -> list:
    """The coefficients of det(P, P', P'') of the pedal germ P given as
    coefficient lists, from its generated function, or else from the `Jet`
    formula, which raises what it raises."""
    from .recording import pedal_det

    det = pedal_det(P)
    return _det_jet(_vec(*[jets._jet(base, tuple(c)) for c in P])).coeffs if det is None else det


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the structural identities of the dual curve."""

    residual_vv: float       # <v'', v> + m^2
    residual_vmu: float      # <v'', mu> - m'
    residual_higher: float | None  # <v^(k+3), r> + (k+2) m' ell^(k) + m ell^(k+1)
    k: int | None

    @property
    def max_residual(self) -> float:
        rs = [self.residual_vv, self.residual_vmu]
        if self.residual_higher is not None:
            rs.append(self.residual_higher)
        return max(rs)


def dual_identity_check(pair: LegendrePair, s0: float, depth: int = 8, tol: float = GERM_TOL) -> IdentityReport:
    """Evaluate the dual-curve differentiation identities from jets at s0.

    The first two hold for every validated pair; the third needs the germ
    order k of ell at s0 and is evaluated pointwise there.
    """
    probe_ell, _ = pair.curvature_jets(s0, depth)
    ell_germ = detect_Ak(probe_ell, tol, max_depth=depth - 3)
    order = depth + 4
    if ell_germ.first_nonzero is not None:
        order = max(order, ell_germ.first_nonzero + 5)
    rj = pair.r_jet(s0, order)
    vj = pair.v_jet(s0, order)
    mu = _truncate(wedge(rj, vj), order - 2)
    vdd = _d(_d(vj))
    ell_jet, m_jet = pair.curvature_jets(s0, order - 2)

    lhs_vv = inner(vdd, _truncate(vj, order - 2))
    rhs_vv = m_jet * m_jet
    residual_vv = _rel_jet(lhs_vv + rhs_vv, rhs_vv)

    lhs_vmu = inner(vdd, mu)
    rhs_vmu = m_jet.d_ds()
    residual_vmu = _rel_jet(lhs_vmu.truncate(order - 3) - rhs_vmu, rhs_vmu)

    residual_higher = None
    k = None
    if ell_germ.first_nonzero is not None:
        k = ell_germ.first_nonzero
        vk3 = vj.map(lambda c: jets.derivative(c, k + 3))
        lhs = inner(vk3, _const(rj))
        mprime = jets.derivative(m_jet, 1)
        m0 = m_jet.coeffs[0]
        ellk = jets.derivative(ell_jet, k)
        ellk1 = jets.derivative(ell_jet, k + 1)
        rhs = -(k + 2) * mprime * ellk - m0 * ellk1
        scale = max(1.0, abs(lhs), abs(rhs))
        residual_higher = abs(lhs - rhs) / scale
    return IdentityReport(residual_vv, residual_vmu, residual_higher, k)


def _rel_jet(residual_jet: jets.Jet, reference: jets.Jet) -> float:
    scale = max(1.0, max(abs(c) for c in reference.coeffs))
    return max(abs(c) for c in residual_jet.coeffs) / scale
