"""The numerical decisions: each threshold, defined once, and each rule that
more than one module applies; it imports nothing from hypedal.  Besides these,
`singularity.location_case` puts Q on the tangent geodesic at s0 where
|<Q, v(s0)>| <= tol, an absolute test, once `coincident` says Q != r(s0)."""

GERM_TOL = 1e-8  # classify --tol: `first_nonzero` of l, m (j, k), of the pedal (a, b); Q's place
FLAT_TOL = 1e-9  # AutoDual: `first_nonzero` of r''s lists, the least of the three is p
DIV_REL_TOL = 1e-13  # `DIVISOR_REFUSED`
COMPOSE_TOL = 1e-9  # jets.compose refuses |inner's value - outer's base| > tol * max(1, |base|)
VALIDATE_TOL = 1e-9  # check --tol: the largest relative Legendrian residual that passes
REGULARITY_RTOL = 1e-7  # frenet_regular: singular where |r'|^2 <= (tol * max(1, b - a))^2
DUAL_PICK_TOL = 1e-12  # AutoDual signs its first dual by x3, by x1 or x2 where x3 is this small
ON_CURVE_TOL = 1e-9  # `coincident`: Q = r(s) refuses induced pairs and tags "point_on_curve"
SINGULAR_TOL = 1e-7  # derived commands' --tol: a zero where speed <= tol * the largest grid speed
CANDIDATE_GATE = 0.05  # refine a slope sign change where a neighbour's size <= gate * max
M_ZERO_TOL = 1e-6  # the "m_zero" tag: |m| <= tol * max(1, the largest |m| on 101 points)
DEGENERACY_RTOL = 1e-12  # evolute: lightlike where |m^2 - l^2| <= tol * max(m^2, l^2, 1)
LIGHTLIKE_TOL = 1e-9  # causal_class: lightlike where |<u, u>| <= tol * max(1, |u|_euclid^2)
SHEET_TOL = 1e-9  # on_hyperboloid: |<u, u> + 1| <= tol * max(1, x1^2); on_desitter: absolute
FIGURE_SHEET_TOL = 1e-6  # the sheet test of figure points, which carry a curve's rounding

# Refusals of a/b and sqrt(a) as conditions on their operands' source text, true at a nan too:
# `hypedal.jets`' kernels test the functions made from them, `hypedal.program` emits them.
DIVISOR_REFUSED = f"not abs({{b0}}) > {DIV_REL_TOL!r} * {{scale}}"  # scale: max_k |b_k|
SQRT_REFUSED = "not {a0} > 0.0"
refuses_divisor = eval("lambda b0, scale: " + DIVISOR_REFUSED.format(b0="b0", scale="scale"))
refuses_sqrt = eval("lambda a0: " + SQRT_REFUSED.format(a0="a0"))
# The evolute's lightlike test on the constant terms of d2 = m^2 - ell^2, m^2 and ell^2, false at
# a nan d2: `constructions.EvoluteCurve` tests the function, `hypedal.program` emits the template.
DEGENERATE = f"abs({{d2}}) <= {DEGENERACY_RTOL!r} * max({{mm}}, {{ll}}, 1.0)"
degenerate = eval("lambda d2, mm, ll: " + DEGENERATE.format(d2="d2", mm="mm", ll="ll"))
# The evolute's signs, each +-1.0: its branch, 1.0 (hyperbolic) where d2 > 0.0, once d2 is not
# `DEGENERATE` (`branch_sign`); and the upper-sheet sign of a branch sign and the point's x1, -1.0
# where a hyperbolic point lies below the sheet.  `hypedal.program` emits the templates, its
# step functions and `constructions.EvoluteCurve` call the functions.
BRANCH = "1.0 if {d2} > 0.0 else -1.0"
SHEET = "-1.0 if {sign} > 0.0 and {x1} < 0.0 else 1.0"
on_branch = eval("lambda d2: " + BRANCH.format(d2="d2"))
upper_sheet = eval("lambda sign, x1: " + SHEET.format(sign="sign", x1="x1"))


def first_nonzero(coeffs, tol: float, stop: int | None = None) -> int | None:
    """The first index below `stop` (default: all) whose coefficient c is not
    zero, |c| > tol * max(1, max |coeffs|); None where there is none."""
    bound = tol * max(1.0, max(map(abs, coeffs)))
    for i in range(len(coeffs) if stop is None else stop):
        if abs(coeffs[i]) > bound:
            return i
    return None


def coincident(d: float, tol: float) -> bool:
    """Q = r, for upper-sheet points Q and r with d = <Q, r>: |d + 1| <= tol * max(1, |d|)."""
    return abs(d + 1.0) <= tol * max(1.0, abs(d))


def branch_sign(mm: float, ll: float) -> float:
    """The evolute's branch sign of the constant terms of m^2 and ell^2: 0.0
    where their difference d2 is `DEGENERATE`, else `BRANCH` of it."""
    d2 = mm - ll
    return 0.0 if degenerate(d2, mm, ll) else on_branch(d2)
