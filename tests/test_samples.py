"""Float samples, curvature pairs and the singular-point scan on generated programs.

`LegendrePair.curvatures`, `DerivedCurve.at`, `EvoluteCurve.at_with_branch`
and the scan's speed run functions generated from their formulas
(`recording.derived_program` with order None, and the jets' programs for
the scan).  With the generator off every one of them runs its formula, and
each must then give the same bits, compared by repr so that the sign of
zero counts, or raise the same error.
"""

from __future__ import annotations

import inspect
import math
import traceback
from collections import Counter

import pytest
from hypothesis import settings, strategies as st
from hypothesis import example, given

from conftest import CURVES, read_of
from test_expr import _exprs
from test_frontal import _R, _S
from hypedal import cli
from hypedal import constructions as cons
from hypedal import expr, frontal, jets, program, recording
from hypedal.constructions import EvoluteDegenerateError
from hypedal.expr import ParametricCurve, linspace
from hypedal.frontal import LegendrePair
from hypedal.io import curve_from_dict, load_curve
from hypedal.minkowski import MVec3

NAMES = ("astroid", "cusp23", "cusp37", "circle")
CUSPS = {"astroid": (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi), "cusp23": (0.0,),
         "cusp37": (0.0,), "circle": (), "flat-cusp": (0.0,),
         "p-split": (0.0,), "p-split-17": (0.0,)}
WHERE = ("generic", "on the curve", "on the tangent geodesic")


@pytest.fixture(scope="module")
def pairs():
    """Each shipped curve with its dual from the file, and derived by `AutoDual`,
    on shared tapes of their own, so that the sign grids and cause scales that
    the tests compare with the generator off are computed here, not kept from
    an earlier module."""
    out = {}
    with pytest.MonkeyPatch.context() as tapes:
        tapes.setattr(expr, "_TAPES", {})
        for name in NAMES:
            curve = load_curve(CURVES / f"{name}.json")
            out[name] = LegendrePair.from_curve(curve)
            out[name + " auto"] = LegendrePair.with_auto_dual(curve)
    return out


def _point(pair, where):
    if where == "generic":
        return MVec3(math.cosh(0.7), math.sinh(0.7) * math.cos(1.0),
                     math.sinh(0.7) * math.sin(1.0))
    a, b = pair.domain
    s1 = a + 0.37 * (b - a)
    return {"on the curve": pair.r(s1),
            "on the tangent geodesic": math.cosh(0.6) * pair.r(s1) + math.sinh(0.6) * pair.mu(s1),
            }[where]


def _parameters(name, pair):
    """A grid, -0.0, the domain ends and the cusp parameters."""
    return (*linspace(pair.domain, 23), -0.0, *pair.domain, *CUSPS[name])


def _outcome(fn):
    """The value by repr (a point's components, with its branch), or the exception."""
    try:
        value = fn()
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)
    if isinstance(value, tuple) and isinstance(value[0], MVec3):
        return [repr(c) for c in value[0].components()], value[1]
    if isinstance(value, MVec3):
        return [repr(c) for c in value.components()]
    return repr(value)


def _curves(pair, Q):
    """Each derived curve that samples, and the pairs whose curvatures it reads;
    the induced pairs are built without the off-curve check, so that Q on the
    curve is covered too."""
    induced = cons.OrthotomicInducedPair(pair, Q)
    curves = {"pedal": cons.PedalCurve(pair, Q), "orthotomic": cons.OrthotomicCurve(pair, Q),
              "evolute": cons.EvoluteCurve(pair),
              "catacaustic": cons.EvoluteCurve(induced, tag_pair=pair, Q=Q, kind="catacaustic")}
    return curves, {"source": pair, "pedal-induced": cons.PedalInducedPair(pair, Q),
                    "orthotomic-induced": induced}


def _samples(pair, Q, grid):
    curves, induced = _curves(pair, Q)
    out = {}
    for kind, curve in curves.items():
        sample = curve.at_with_branch if isinstance(curve, cons.EvoluteCurve) else curve.at
        out[kind] = [_outcome(lambda: sample(s)) for s in grid]
    for kind, p in induced.items():
        out[kind + " curvatures"] = [_outcome(lambda: p.curvatures(s)) for s in grid]
    return out


def _answered(pair, Q, grid):
    """The share of samples and curvature pairs that a generated function gave."""
    curves, induced = _curves(pair, Q)
    answers = [curve._sampled(s) is not None for curve in curves.values() for s in grid]
    for p in induced.values():
        for s in grid:
            out = frontal._generated(p._samplers, frontal._curvatures, frontal._curvatures, p,
                                     None, None, s)
            answers.append(out is not None)
    return sum(answers) / len(answers)


def _formula_only(monkeypatch):
    monkeypatch.setattr(recording, "derived_program", lambda *args: None)


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("which", [*NAMES, *(name + " auto" for name in NAMES)])
def test_samples_and_curvatures_are_those_of_the_formulas(which, where, pairs, monkeypatch):
    # mutations: the H2 sign flip of the evolute's tail dropped; coefficient 0
    # read where the curvature pair reads r' and v'
    pair = pairs[which]
    Q = _point(pair, where)
    grid = _parameters(which.split()[0], pair)
    generated = _samples(pair, Q, grid)
    assert _answered(pair, Q, grid) >= 0.8
    _formula_only(monkeypatch)
    assert generated == _samples(pair, Q, grid)


def _speeds(curve, grid):
    """The scan's (speed, slope) at each parameter, or None where it is a gap."""
    captured = []
    real = cons._zeros

    def zeros(f, *args):
        captured.append(f)
        return []

    cons._zeros = zeros
    try:
        cons.singular_points(curve, samples=len(grid))
    finally:
        cons._zeros = real
    return [repr(captured[0](s)) for s in grid]


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("which", ["astroid", "cusp23", "astroid auto", "cusp37 auto"])
def test_the_scan_reads_the_speeds_of_the_formulas(which, where, pairs, monkeypatch):
    pair = pairs[which]
    Q = _point(pair, where)
    grid = _parameters(which.split()[0], pair)
    generated = {kind: _speeds(curve, grid) for kind, curve in _curves(pair, Q)[0].items()}
    _formula_only(monkeypatch)
    assert generated == {kind: _speeds(curve, grid) for kind, curve in _curves(pair, Q)[0].items()}


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("name", NAMES)
def test_the_off_curve_scan_reads_the_gaps_of_the_formula(name, where, pairs):
    # -(<Q, r> + 1) on the scan's grid, on a read of the curve's float tape,
    # is the formula's to the bit, for a `from_curve` and an auto-dual pair
    # alike; an auto-dual pair's formulas that read v run on its auto-dual read
    grid = linspace(pairs[name].domain, cons._ON_CURVE_SAMPLES)
    Q = _point(pairs[name], where)
    for pair in (pairs[name], pairs[name + " auto"]):
        program = recording.derived_program(cons._off_curve_gap, pair, Q, None)
        assert read_of(program) == "tapes"
        assert ([repr(program(s)[0]) for s in grid]
                == [repr(cons._off_curve_gap(pair, Q, s, None)[0]) for s in grid])
    auto = pairs[name + " auto"]
    for formula in (cons.PedalCurve._sample, frontal._curvatures, frontal._frame):
        assert read_of(recording.derived_program(formula, auto, Q, None)) == "auto-dual"


def test_a_larger_curve_is_read_wherever_its_parts_inline(monkeypatch):
    # the caustic sample of this curve reads more than 400 tape steps, the
    # most a recorded program or a tape program inlines alone, and each tape
    # program inlines alone, as does the recorded formula: the sample is one
    # read of the curve's tapes and the function that every curve shares;
    # mutation: the read held to 400 steps
    f = " + ".join(f"{i + 1}*s^{i}/{i + 7}" for i in range(14))
    g = " + ".join(f"sin({i + 1}*s)/{i + 3}" for i in range(12))
    h = " + ".join(f"cos({i + 2}*s)/{i + 5}" for i in range(16))
    norm = f"sqrt(({f})^2 + ({h})^2)"
    pair = LegendrePair.from_curve(curve_from_dict({
        "schema": 1, "name": "larger", "r": [f"sqrt(1 + ({f})^2 + ({g})^2)", f, g],
        "v": ["0", f"({h})/{norm}", f"-({f})/{norm}"], "domain": [-1.0, 1.0]}))
    monkeypatch.setattr(expr, "_TAPES", {})
    sizes = []
    inline_program = program.inline_program

    def spied(steps, *args, **kw):
        sizes.append(len(steps))
        return inline_program(steps, *args, **kw)

    monkeypatch.setattr(program, "inline_program", spied)
    Q = _point(pair, "generic")
    caustic = _curves(pair, Q)[0]["catacaustic"]
    grid = linspace(pair.domain, 9)
    generated = [_outcome(lambda: caustic.at_with_branch(s)) for s in grid]
    assert max(sizes) > program._INLINE_STEPS
    sample = caustic._programs[None]
    assert read_of(sample) == "tapes"
    recorded = recording._record_on_pair(cons.EvoluteCurve._sample, (cons.OrthotomicInducedPair,),
                                         False, None)
    assert sample.args[2] is recorded[0]
    assert all(caustic._sampled(s) is not None for s in grid)
    _formula_only(monkeypatch)
    caustic = _curves(pair, Q)[0]["catacaustic"]
    assert generated == [_outcome(lambda: caustic.at_with_branch(s)) for s in grid]


@pytest.mark.parametrize("leaves", [
    (("r", None), ("v", None)),
    (("r", 1), ("v", None)),
    (("r", 1), ("v", 2)),  # r's c2 is 1e308 + 1e308, which the truncation drops
    (("v", 2),),
])
@pytest.mark.parametrize("s", [0.0, -0.0, 1e-200, 0.5, -1.0, 1e154, math.inf, math.nan])
def test_a_read_of_the_tapes_answers_only_finite_values(leaves, s):
    # a read of a curve's tapes (`program.tape_read`) hands on each value with
    # the step loop's bits, jets truncated from the highest order read, and
    # answers only where each value that the step loop computes is finite, what
    # a truncation drops included; it states each jet's bound on its degree,
    # above which every coefficient is 0.0: 2 for s + s*s*1e308 + s*s*1e308,
    # 0 for v's constant 0 and the order read for the rest; mutations: the
    # read's finiteness test left out, or only its outputs tested
    tapes = ParametricCurve(
        "read", tuple(map(expr.parse, ("sqrt(1 + s^2)", "s + s*s*1e308 + s*s*1e308", "1/(1 + s)"))),
        (-2.0, 2.0), dual_components=tuple(map(expr.parse, ("0", "cos(s)", "sin(s)"))))._tape_set()
    reads = tuple((recording._GROUPS[kind], k, i) for kind, k in leaves for i in range(3))
    degree = max([1] + [k for _, k, _ in reads if k is not None])
    read, bounds = program.tape_read(tapes, reads)
    assert bounds == tuple(None if k is None else {(0, 1): min(k, 2), (1, 0): 0}.get((group, i), k)
                           for group, k, i in reads)
    try:
        answered = read(s, None)
    except jets.DOMAIN_ERRORS:
        answered = None
    values = {}
    for group, k, _ in reads:
        if (group, k is None) not in values:
            point = expr._TapePoint(tapes[k is not None], s, 0 if k is None else degree)
            try:
                values[group, k is None] = point.outputs(group)
            except jets.DOMAIN_ERRORS:
                values[group, k is None] = None
                continue
            # floats, jets' lists and the (sin, cos) pairs of lists of each node
            computed = [c for v in point.values if v is not None
                        for c in (v if isinstance(v, list) else [v] if isinstance(v, float)
                                  else v[0] + v[1])]
            if not all(map(math.isfinite, computed)):
                values[group, k is None] = None
    if any(v is None for v in values.values()):
        assert answered is None
    else:
        expected = tuple(values[group, True][i] if k is None else values[group, False][i][:k + 1]
                         for group, k, i in reads)
        assert repr(answered) == repr(expected)
        assert all(c == 0.0 for value, bound in zip(answered, bounds) if bound is not None
                   for c in value[bound + 1:])


# -- validation on floats --------------------------------------------------------


def _vector_residuals(pair, samples):
    """`LegendrePair.validate`'s residuals as `MVec3`s and `inner` compute them,
    or the exception it raises."""
    from hypedal.minkowski import inner

    def sup(vec):
        return max(abs(vec.x1), abs(vec.x2), abs(vec.x3))

    worst = {"r_unit": 0.0, "v_unit": 0.0, "rv_orth": 0.0, "tangency": 0.0}
    for s in linspace(pair.domain, samples):
        try:
            rj = pair.r_jet(s, 1)
            r0 = MVec3(*(c.coeffs[0] for c in rj.components()))
            rd = MVec3(*(c.coeffs[1] for c in rj.components()))
            v0 = pair.v(s)
        except (ValueError, ArithmeticError) as exc:
            raise jets.at_parameter(exc, s) from None
        nr, nv, nd = (max(1.0, sup(vec)) for vec in (r0, v0, rd))
        worst["r_unit"] = max(worst["r_unit"], abs(inner(r0, r0) + 1.0) / (nr * nr))
        worst["v_unit"] = max(worst["v_unit"], abs(inner(v0, v0) - 1.0) / (nv * nv))
        worst["rv_orth"] = max(worst["rv_orth"], abs(inner(r0, v0)) / (nr * nv))
        worst["tangency"] = max(worst["tangency"], abs(inner(rd, v0)) / (nd * nv))
    return worst


def _validations(pair, Q, samples):
    """The residuals of the pair and of its two induced pairs, or the exceptions."""
    return {kind: _outcome(lambda: p.validate(samples=samples).residuals)
            for kind, p in _curves(pair, Q)[1].items()}


@pytest.mark.parametrize("which", [*NAMES, *(name + " auto" for name in NAMES)])
def test_validation_residuals_are_those_of_the_vector_formula(which, pairs, monkeypatch):
    # `validate` reads r, r' and v as floats from a generated function (on a
    # read of the curve's tapes for a `from_curve` pair) and does `inner`'s float
    # operations in its order, so each residual keeps its bits, as it does
    # where the formula runs; mutation: <r, v> summed in another order
    def fresh():  # a pair keeps the programs it made
        curve = load_curve(CURVES / f"{which.split()[0]}.json")
        return (LegendrePair.with_auto_dual if "auto" in which else LegendrePair.from_curve)(curve)

    pair = pairs[which]
    Q = _point(pair, "generic")
    expected = {kind: _outcome(lambda: _vector_residuals(p, 57))
                for kind, p in _curves(pair, Q)[1].items()}
    assert _validations(pair, Q, 57) == expected
    answered = frontal._generated(pair._samplers, frontal._frame, frontal._frame, pair, None,
                                  None, 0.25)
    assert answered is not None
    assert (read_of(pair._samplers[frontal._frame]) == "tapes") == ("auto" not in which)
    _formula_only(monkeypatch)
    assert _validations(fresh(), Q, 57) == expected


@pytest.mark.parametrize("r, v, error", [
    (["sqrt(1 + s^2)", "s", "sqrt(s)"], ["0", "0", "1"], "sqrt requires a positive constant term"),
    (["sqrt(1 + s^2)", "s", "0"], ["0", "0", "1e308*(s + 2)"], "non-finite vector component"),
])
def test_a_validation_that_fails_raises_what_the_formula_raises(r, v, error, monkeypatch):
    # where r's jet or v cannot be evaluated, the generated function gives no
    # answer and the formula raises, with the parameter in its message
    def validated():
        pair = LegendrePair.from_curve(curve_from_dict({
            "schema": 1, "name": "failing", "r": r, "v": v, "domain": [-1.0, 1.0]}))
        return _outcome(lambda: pair.validate(samples=11)), _outcome(
            lambda: _vector_residuals(pair, 11))

    generated, expected = validated()
    assert generated == expected and error in expected[1]
    _formula_only(monkeypatch)
    assert validated() == (expected, expected)


# -- where a generated function gives no answer ----------------------------------


def test_a_program_without_an_answer_runs_the_formula(monkeypatch):
    # every function of a formula, run on a read of the curve's tapes, gives
    # no answer, by returning None and then by raising, so each sample and
    # curvature pair runs its formula
    def fresh():  # a pair keeps the programs it made, the curve's tapes theirs
        monkeypatch.setattr(expr, "_TAPES", {})
        return LegendrePair.from_curve(load_curve(CURVES / "astroid.json"))

    pair = fresh()
    Q = _point(pair, "generic")
    grid = _parameters("astroid", pair)
    generated = _samples(pair, Q, grid)
    make = recording._record_on_pair
    for answer in (lambda i, k: None, lambda i, k: 1.0 / 0.0):
        def silent(*args, answer=answer):
            made = make(*args)
            return None if made is None else (answer, *made[1:])

        monkeypatch.setattr(recording, "_record_on_pair", silent)
        assert _answered(fresh(), Q, grid) == 0.0
        assert _samples(fresh(), Q, grid) == generated


@pytest.mark.parametrize("name", NAMES)
def test_fused_programs_read_nothing_of_the_tape_memo(name, pairs, monkeypatch):
    # the scans and samples of a `from_curve` pair's derived curves, the
    # caustic's included, run reads of the curve's tapes, which take s, and
    # functions on them, and read nothing through the curve's own reads
    # (`ParametricCurve._tape_values`), which only the formulas run where a
    # function gives no answer; mutation: a program of `hypedal.recording`
    # that runs the formula on the pair's jets
    pair = pairs[name]
    Q = _point(pair, "generic")
    grid = _parameters(name, pair)
    callers = []  # per read, the modules on the stack
    tape_values = ParametricCurve._tape_values

    def spied(self, *args):
        callers.append({frame.f_globals["__name__"] for frame, _ in traceback.walk_stack(None)})
        return tape_values(self, *args)

    monkeypatch.setattr(ParametricCurve, "_tape_values", spied)
    for curve in _curves(pair, Q)[0].values():
        cons.singular_points(curve, samples=60)
        for s in grid:
            curve._sampled(s)
        assert set(curve._programs) == {None, 2}
        assert all(read_of(program) == "tapes" for program in curve._programs.values())
    assert not any("hypedal.recording" in modules for modules in callers)
    pair.r(0.5)  # the spy sees the curve's reads
    assert "hypedal.expr" in callers[-1]


def _huge_dual_pair():
    # v = (0, 0, 1e160): <Q, v> v overflows in the pedal and the orthotomic,
    # and ell^2 in the evolute's squares, ahead of its branch decision
    return LegendrePair.from_curve(curve_from_dict({
        "schema": 1, "name": "huge-dual", "r": ["sqrt(1 + s^2)", "s", "0"],
        "v": ["0", "0", "1e160"], "domain": [-1.0, 1.0]}))


@pytest.mark.parametrize("kind, error", [
    ("pedal", (ValueError, "non-finite vector component")),
    ("orthotomic", (ValueError, "non-finite vector component")),
    ("evolute", (EvoluteDegenerateError, "evolute degenerate at s=0.5")),
])
def test_a_non_finite_value_raises_what_the_formula_raises(kind, error, monkeypatch):
    # mutation: the generated functions' finiteness test skipped
    pair = _huge_dual_pair()
    Q = _point(pair, "generic")
    curve = _curves(pair, Q)[0][kind]
    sample = curve.at_with_branch if kind == "evolute" else curve.at
    assert curve._sampled(0.5) is None
    assert _outcome(lambda: sample(0.5)) == error
    _formula_only(monkeypatch)
    assert _outcome(lambda: sample(0.5)) == error


def test_a_jet_at_a_non_finite_parameter_raises_what_the_formula_raises():
    # v is constant, so a generated pedal jet would compute finite
    # coefficients at s = nan or inf; the formula refuses the base; mutation:
    # s not tested finite before a read
    pair = LegendrePair.from_curve(curve_from_dict({
        "schema": 1, "name": "constant-dual", "r": ["sqrt(1 + s^2)", "s", "0"],
        "v": ["0", "0", "1"], "domain": [-1.0, 1.0]}))
    curve = _curves(pair, _point(pair, "generic"))[0]["pedal"]
    assert curve.jet(0.5, 2) is not None and curve._programs[2] is not None
    for s in (math.nan, math.inf, -math.inf):
        assert _outcome(lambda: curve.jet(s, 2)) == (ValueError, "non-finite jet base")


def _degenerate_parameter(lo, hi, sign):
    """A parameter in [lo, hi] where the branch sign, 1.0 at lo and -1.0 at
    hi, is 0.0, degenerate, bisected to it."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sign(mid) == 0.0:
            return mid
        lo, hi = (mid, hi) if sign(mid) > 0.0 else (lo, mid)
    raise AssertionError("no degenerate parameter")


def test_the_branch_decision_raises_on_the_generated_values(pairs, monkeypatch):
    # the sample's and the scan's generated functions decide the branch from
    # m^2 - ell^2, and answer the sign 0.0 alone where it is degenerate: both
    # raise there as the formula does, and the scan makes the parameter a gap
    pair = pairs["cusp23"]
    ev = cons.evolute(pair)
    crossing = _degenerate_parameter(0.0, 0.5, lambda s: ev._sampled(s)[0])
    assert ev._sampled(crossing) == (0.0,)
    error = (EvoluteDegenerateError, f"evolute degenerate at s={crossing!r}")
    assert _outcome(lambda: ev.at_with_branch(crossing)) == error
    # the jet's d2 may differ from the sample's in its last bits, far inside the
    # band that is degenerate (nearer the crossing, its divisor is refused)
    assert ev._run_program(crossing, 2) == (crossing, (0.0,))
    with pytest.raises(EvoluteDegenerateError):
        ev.jet(crossing, 2, coeffs=True)
    assert _speeds(ev, [crossing]) == ["None"]
    _formula_only(monkeypatch)
    assert _outcome(lambda: cons.evolute(pair).at_with_branch(crossing)) == error
    assert _speeds(cons.evolute(pair), [crossing]) == ["None"]


# -- the cause of a singular point ------------------------------------------------


def test_an_undefined_curvature_pair_is_left_out_of_the_cause_scale():
    # s^3 * s / s is undefined at s = 0, which the 101-point grid of the cause
    # scale holds and the scan's 100-point grid does not
    curve = curve_from_dict({"schema": 1, "name": "gap",
                             "r": ["sqrt(1 + s^4 + s^6)", "s^2", "s^3 * s / s"],
                             "domain": [-1, 1], "samples": 100})
    pair = LegendrePair.with_auto_dual(curve)
    with pytest.raises(ValueError):
        pair.curvatures(0.0)
    found = cons.evolute(pair).singular_points(samples=100)
    assert [p.cause for p in found] == ["other", "other"]


# -- auto-dual pairs' programs on one generated read -------------------------------
#
# The derived-curve jets and samples of a pair of `LegendrePair.with_auto_dual`,
# and the jets of the pairs induced from it, read every r and v leaf from one
# generated order-17 read of r per call (`recording._run`).  From
# order 14, w reaches past that read where p >= 3, as at the flat cusp below,
# and those jets run the formula on the tape memo, as with the generator off.
# Orders 14-16 cost the formula most, so they are compared on every fourth
# grid point and the special parameters alone, which keeps tier-1 in budget.

_INDUCED_JETS = ("r_jet", "v_jet", "mu_jet")


def _auto_jets(name, pair):
    """(s, order) of the jets compared: orders 0-3 at `_parameters`, and 14-16
    at every fourth grid point, -0.0, the domain ends and the cusps."""
    special = (-0.0, *pair.domain, *CUSPS[name])
    return ([(s, k) for s in _parameters(name, pair) for k in (0, 1, 2, 3)]
            + [(s, k) for s in (*linspace(pair.domain, 23)[::4], *special) for k in (14, 15, 16)])


def _auto_outcomes(pair, Q, grid, at):
    """Each derived jet and the induced pairs' jets at each (s, order) of `at`,
    and each sample, curvature pair and `validate` frame on `grid`, by repr,
    or the exception."""
    curves, induced = _curves(pair, Q)
    out = _samples(pair, Q, grid)
    for kind, curve in curves.items():
        out[kind + " jets"] = [_outcome(lambda: curve.jet(s, k)) for s, k in at]
    for kind, p in induced.items():
        out[kind + " frames"] = [_outcome(lambda: _frame(p, s)) for s in grid]
        if kind != "source":
            for name in _INDUCED_JETS:
                out[kind, name] = [_outcome(lambda: getattr(p, name)(s, k)) for s, k in at]
    return out


def _frame(pair, s):
    """r, r' and v at s, as `LegendrePair.validate` reads them."""
    out = frontal._generated(pair._samplers, frontal._frame, frontal._frame, pair, None, None, s)
    return frontal._frame(pair, None, s, None) if out is None else out


_MADE = {
    # r' vanishes to order p = 3 at s = 0, so that w reaches past the read from order 14
    "flat-cusp": ["sqrt(1 + s^8 + s^10)", "s^4", "s^5"],
    # at s = 0, coefficient 18 of x2' puts its coefficient 0 under the zero
    # test's scale: p is 0 on r' to degree 18 (order 15), 1 from degree 19
    "p-split": ["sqrt(1 + (0.001*s + 10000000*s^19)^2 + s^4)", "0.001*s + 10000000*s^19",
                "s^2"],
    # the same with coefficient 16 of x2': p is 0 on r' to degree 16, 1 on the
    # order-17 read at which jets of orders 0-3 decide it
    "p-split-17": ["sqrt(1 + (0.001*s + 100000*s^17)^2 + s^4)", "0.001*s + 100000*s^17", "s^2"],
}


@pytest.mark.parametrize("name", [*NAMES, *_MADE])
def test_auto_dual_programs_are_the_formulas(name, pairs, monkeypatch):
    # mutations: p decided on the whole read where a leaf's own degree is
    # lower (p-split); the read one degree short (p-split-17); the float
    # dual's sign applied with + 0.0
    def fresh():  # a pair keeps the programs it made; the sign grid is kept with the tapes
        if name in _MADE:
            return LegendrePair.with_auto_dual(curve_from_dict(
                {"schema": 1, "name": name, "r": _MADE[name], "domain": [-1.0, 1.0]}))
        return LegendrePair.with_auto_dual(pairs[name + " auto"]._r_curve)

    pair = fresh()
    Q = _point(pair, "generic")
    grid, at = _parameters(name, pair), _auto_jets(name, pair)
    generated = _auto_outcomes(pair, Q, grid, at)
    programs = [read_of(program) for program in pair._samplers.values()]
    assert programs and set(programs) == {"auto-dual"}
    _formula_only(monkeypatch)
    assert generated == _auto_outcomes(fresh(), Q, grid, at)


@pytest.mark.parametrize("name", NAMES)
def test_auto_dual_pedals_read_no_tape_point_and_no_dual_jet(name, fresh_tapes, monkeypatch):
    # an auto-dual pair's pedal, orthotomic, evolute and caustic (its
    # off-curve scan included), their samples and order-2 scan jets, its
    # curvature pairs and its validation read r's floats and lists from one
    # call of the curve's generated functions each, read nothing through the
    # curve's own reads, build no tape point and evaluate no dual through
    # `AutoDual`'s evaluators; mutations: the jets read through
    # `AutoDual.jet`, r's floats read through `ParametricCurve.point`, the
    # off-curve scan's slope read through `ParametricCurve.point_jet`
    calls = []

    def spy(owner, attribute):
        real = getattr(owner, attribute)

        def spied(*args):
            calls.append(attribute)
            return real(*args)

        monkeypatch.setattr(owner, attribute, spied)

    spy(frontal.AutoDual, "jet")  # before the pair binds it
    spy(frontal.AutoDual, "__call__")
    spy(expr._TapePoint, "__init__")
    spy(expr.ParametricCurve, "_tape_values")
    pair = LegendrePair.with_auto_dual(load_curve(CURVES / f"{name}.json"))
    Q = _point(pair, "generic")
    curves = (cons.pedal(pair, Q), cons.orthotomic(pair, Q), cons.evolute(pair),
              cons.catacaustic(pair, Q))
    grid = linspace(pair.domain, 60)
    for curve in curves:
        sample = curve.at_with_branch if isinstance(curve, cons.EvoluteCurve) else curve.at
        for s in grid:
            curve.jet(s, 2, coeffs=True)
            sample(s)
    for s in grid:
        pair.curvatures(s)
    pair.validate(samples=60)
    assert calls == []
    programs = [*pair._samplers.values(),
                *(program for curve in curves for program in curve._programs.values())]
    assert {read_of(program) for program in programs} == {"auto-dual"}


def _unsigned_grid(dual):
    """A sign grid of zeros, on which every dual keeps the sign it has."""
    return memoryview(bytearray(24 * dual._n)).cast("d")


@pytest.mark.parametrize("r, domain, jet_error, sample_error", [
    # <w, w> overflows to a nan: the float dual is not finite
    (["1e160*sqrt(1 + s^4 + s^6)", "1e160*s^2", "1e160*s^3"], [-1.0, 1.0],
     (ValueError, "non-finite jet coefficient"), (ValueError, "non-finite vector component")),
    # r' overflows where r does not
    (["1", "s + 1e308*s^2", "s^2"], [-0.01, 0.01],
     (ValueError, "non-finite jet coefficient"), (ValueError, "non-finite jet coefficient")),
    # a divisor refused at order 3: the generated read gives no answer
    (["1", "s/(1 + 100000000000000*s^3)", "s^2"], [0.0, 1.0],
     (jets.JetDomainError, "jet division by vanishing germ"),
     (jets.JetDomainError, "jet division by vanishing germ")),
])
def test_auto_dual_pedals_fall_back_to_the_memoised_path(r, domain, jet_error, sample_error,
                                                         fresh_tapes, monkeypatch):
    # where the read gives no answer, r' is not finite, or the float dual is
    # not, a pedal's jet and sample raise what `AutoDual`'s memoised path
    # raises, as with the generator off; the sign grid, which raises on these
    # curves, is left unsigned
    monkeypatch.setattr(frontal.AutoDual, "_signed_grid", _unsigned_grid)
    curve = curve_from_dict({"schema": 1, "name": "made", "r": r, "domain": domain})
    s = curve.domain[0]

    def outcomes():
        pedal = cons.pedal(LegendrePair.with_auto_dual(curve), _point(None, "generic"))
        return _outcome(lambda: pedal.jet(s, 2)), _outcome(lambda: pedal.at(s))

    assert outcomes() == (jet_error, sample_error)
    _formula_only(monkeypatch)
    assert outcomes() == (jet_error, sample_error)


def _mixed_grid(dual, sign=1.0):
    """A sign grid of three points whose signs differ, so that `_sign_at` flips
    the duals of some parameters and keeps those of others; `sign` -1.0 flips
    those it keeps and keeps those it flips (where the dot product is not 0),
    such as the dual (0, 0, 1) of a cusp at s = 0."""
    grid = memoryview(bytearray(72)).cast("d")
    grid[2], grid[3], grid[5], grid[7] = sign, -sign, sign, sign
    return grid


_Q = st.builds(lambda rho, phi: MVec3(math.cosh(rho), math.sinh(rho) * math.cos(phi),
                                      math.sinh(rho) * math.sin(phi)),
               st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=6.3))


def _cusp(a, b):
    """(sqrt(1 + s^2a + s^2b), s^a, s^b), whose r' vanishes at s = 0 to p = a - 1."""
    return tuple(expr.parse(text) for text in (f"sqrt(1 + s^{2 * a} + s^{2 * b})", f"s^{a}",
                                               f"s^{b}"))


# random r at random s, and cusps with 2 <= a < b <= 5 at s = 0
_R_AT_S = st.tuples(_R, _S) | st.sampled_from(
    [(_cusp(a, b), 0.0) for a in range(2, 6) for b in range(a + 1, 6)])


@settings(max_examples=150, deadline=5000)
@given(_R_AT_S, _Q, st.sampled_from([1.0, -1.0]))
def test_auto_dual_programs_on_random_curves_are_the_formulas(r_at_s, Q, sign):
    # on random r without v, and on cusps at s = 0, the pedal, orthotomic and
    # evolute jets of orders 1-3, their samples, the caustic's sample and the
    # curvature pair from `recording._run` must be the bits of the
    # formulas on `AutoDual`'s evaluators, or raise what they raise, under a
    # sign grid whose signs are drawn; a program is made wherever r's jet tape
    # reads at degree 17; mutations: r's leaves cut one coefficient short, r's
    # floats taken from its jets, the read one degree short
    trees, s = r_at_s

    def outcomes():
        pair = LegendrePair.with_auto_dual(ParametricCurve("random", trees, (-2.0, 2.0),
                                                           samples=3))
        caustic = cons.EvoluteCurve(cons.OrthotomicInducedPair(pair, Q), tag_pair=pair, Q=Q,
                                    kind="catacaustic")
        curves = (cons.PedalCurve(pair, Q), cons.OrthotomicCurve(pair, Q), cons.EvoluteCurve(pair))
        out = [_outcome(lambda: pair.curvatures(s)), _outcome(lambda: caustic.at_with_branch(s))]
        for derived in curves:
            evolute = isinstance(derived, cons.EvoluteCurve)
            sample = derived.at_with_branch if evolute else derived.at
            out += [_outcome(lambda: derived.jet(s, k)) for k in (1, 2, 3)]
            out.append(_outcome(lambda: sample(s)))
        programs = [*pair._samplers.values(),
                    *(p for derived in (*curves, caustic) for p in derived._programs.values())]
        return out, {read_of(p) for p in programs}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "_TAPES", {})  # the sign grid kept here is made up
        patch.setattr(frontal.AutoDual, "_signed_grid", lambda dual: _mixed_grid(dual, sign))
        generated, runs = outcomes()
        read = program.tape_read(ParametricCurve("random", trees, (-2.0, 2.0))._tape_set(),
                                 tuple((0, 17, i) for i in range(3)))
        patch.setattr(recording, "derived_program", lambda *args: None)
        expected, none = outcomes()
    assert runs == {None if read is None else "auto-dual"} and none == {None}
    assert generated == expected


# random trees for each component of r and of v, whether or not they make a frontal
_TREES = st.tuples(*[_exprs(jet_ops=True)] * 3)


def _rows(*texts):
    return tuple(expr.parse(text) for text in texts)


@settings(max_examples=150, deadline=None)
@given(_TREES, _TREES, _S, _Q)
# the pedal's divisor sqrt(1 + <Q, v>^2) = 1 + 5e27 (s - 0.5)^2 + ..., refused
# at order 2 with every value finite: a final refusal
@example(_rows("1", "0", "0"), _rows("1e14*(s - 0.5)", "1", "0"), 0.5, MVec3(1.0, 0.0, 0.0))
# the evolute's divisor sqrt(m^2 - ell^2) near a lightlike point, refused at
# order 2 while the sample answers
@example(load_curve(CURVES / "cusp23.json").components,
         load_curve(CURVES / "cusp23.json").dual_components, 0.45888662338256836,
         MVec3(1.0, 0.0, 0.0))
def test_from_curve_programs_on_random_curves_are_the_formulas(r, v, s, Q):
    # on random r and v, the pedal, orthotomic and evolute jets of orders 1-3,
    # the catacaustic's of orders 1-2 and their samples, and `classify_pedal`'s
    # germs at orders 22 and jets.MAX_ORDER - 1, wide programs, each a read of
    # the curve's tapes and the formula's function, must be the bits of the
    # formulas on the curve's reads, or raise what they raise, a final
    # refusal included, whose error the formula would raise.  A wide function
    # binds each product's kernel, from the degree bounds its read states,
    # and never the unbound `jets.mul_coeffs`.  Mutations: a final refusal
    # for a tape step, or one whose message is not the kernel's; a read that
    # hands its values on in another order, or states a bound one too low
    def outcomes():
        pair = LegendrePair.from_curve(ParametricCurve("random", r, (-2.0, 2.0),
                                                       dual_components=v))
        caustic = cons.EvoluteCurve(cons.OrthotomicInducedPair(pair, Q), tag_pair=pair, Q=Q,
                                    kind="catacaustic")
        curves = (cons.PedalCurve(pair, Q), cons.OrthotomicCurve(pair, Q), cons.EvoluteCurve(pair),
                  caustic)
        out = []
        for derived in curves:
            evolute = isinstance(derived, cons.EvoluteCurve)
            sample = derived.at_with_branch if evolute else derived.at
            out += [_outcome(lambda: derived.jet(s, k)) for k in ((1, 2) if derived is caustic
                                                                  else (1, 2, 3))]
            out.append(_outcome(lambda: sample(s)))
        wide = [recording.derived_program(recording._germs, pair, Q, order)
                for order in (22, jets.MAX_ORDER - 1)]
        out += [_germs_outcome(pair, Q, s, order) for order in (22, jets.MAX_ORDER - 1)]
        programs = [*wide, *(p for derived in curves for p in derived._programs.values())]
        return out, {read_of(p) for p in programs}, [p.args[2] for p in wide if p is not None]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "_TAPES", {})
        generated, runs, functions = outcomes()
        patch.setattr(recording, "derived_program", lambda *args: None)
        expected, none, _ = outcomes()
    assert runs <= {"tapes", None} and none == {None}
    assert generated == expected
    assert not any("mul" in part.__code__.co_names for f in functions for part in _parts(f))


def _germs_outcome(pair, Q, s0, order):
    """The germs that `classify_pedal` takes, ell, m and P's components, by
    repr of their coefficient lists, or the error of a final refusal: from
    `recording.pedal_germs` where it answers, else from the `Jet` formulas."""
    germs = recording.pedal_germs(pair, Q, s0, order)
    if germs.__class__ is jets.JetDomainError:
        return type(germs), str(germs)
    if germs is None:
        def formulas():
            P = cons.pedal_point(Q, pair.v_jet(s0, order))
            return [list(j.coeffs) for j in (*pair.curvature_jets(s0, order), *P.components())]

        return _outcome(formulas)
    _, ell, m, P = germs
    return repr([ell, m, *P])


def _parts(function):
    """The compiled functions of a generated function, one or a chain of parts
    (`program._chained`)."""
    nonlocals = inspect.getclosurevars(function).nonlocals
    return [nonlocals["first"], *nonlocals["rest"]] if "first" in nonlocals else [function]


def _scanned(pair, kind, Q, samples, one_pass):
    """The samples on the grid and the singular points of a fresh derived curve
    of `kind` (`cli._build`), by repr, from one scan that samples the grid
    (`singular_points` with `points`) or from `at` on the grid and then the
    scan, as two passes; or the exception.  With the derived curve, or None."""
    curve, points = None, []
    try:
        curve = cli._build(pair, kind, Q)
        if one_pass:
            singular = curve.singular_points(samples=samples, points=points)
        else:
            for s in linspace(pair.domain, samples):
                try:
                    points.append(curve.at(s))
                except jets.DOMAIN_ERRORS:
                    points.append(None)
            singular = curve.singular_points(samples=samples)
    except Exception as exc:  # compared, whatever it is
        return (type(exc), str(exc)), curve
    return (repr(points), repr(singular)), curve


@pytest.mark.parametrize("kind", ["pedal", "evolute", "caustic"])
def test_a_from_curve_scan_reads_the_tapes_once_a_grid_point(kind, monkeypatch):
    # a `from_curve` pair's evolute and caustic, as an auto-dual pair's
    # derived curves, sample and scan each grid point from one read of the
    # curve's tapes, of the union of the sample's and the order-2 jet's leaves
    # (`recording.sampled_jet_program`), since both read jets of r and v; the
    # pedal's sample reads v's floats and its jet v's jets, no tape program in
    # common, so it keeps the two reads and compiles no third; mutations: the
    # union for auto-dual pairs alone, or for every from_curve pair
    monkeypatch.setattr(expr, "_TAPES", {})  # reads made from here on are spied
    reads = []  # (the read's function, s) of each read of the tapes
    read = program._read
    monkeypatch.setattr(program, "_read", lambda function, consts, s, sign_at: (
        reads.append((function, s)) or read(function, consts, s, sign_at)))
    pair = LegendrePair.from_curve(load_curve(CURVES / "cusp23.json"))
    curve = cli._build(pair, kind, MVec3(1.5, 1.0, 0.5))
    union = curve._sampled_jet_program(2)
    assert (union is None) == (kind == "pedal")
    grid = linspace(pair.domain, 50)
    # the cause scale, kept with the tapes, whose curvature pairs read what
    # the evolute's sample reads, at the grid's ends too
    cons._m_scale(pair)
    del reads[:]
    points = []
    curve.singular_points(samples=50, points=points)
    assert len(points) == 50 and all(p is not None for p in points)
    sample, jet = (recording.derived_program(formula, pair, curve.Q, order).args[0].args[0]
                   for formula, order in ((curve._sample, None), (curve._formula, 2)))
    at_grid = Counter(function for function, s in reads
                      if function in (sample, jet, union and union.args[0].args[0]) and s in grid)
    assert at_grid == ({sample: 50, jet: 50} if union is None else {union.args[0].args[0]: 50})


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(NAMES),
       kind=st.sampled_from(["pedal", "orthotomic", "evolute", "caustic"]), Q=_Q,
       samples=st.integers(min_value=2, max_value=60), unread=st.booleans(),
       auto=st.booleans())
def test_one_pass_scan_is_the_samples_and_then_the_scan(pairs, name, kind, Q, samples, unread,
                                                        auto):
    # on a curve with v (a read of its tapes) or without (`auto`, an auto-dual
    # read), the scan that samples each grid point from one call, in which
    # one read of the union of the sample's and the jet's leaves serves both
    # generated functions where their reads share a tape program, must give
    # the bits of `at` on the grid and then the scan, or raise what they
    # raise; `unread`: the union read gives no answer, and each point runs
    # the two calls; mutations: a leaf's values shifted by one in the union,
    # the sample taken from coefficient 0 of the jet, the two calls skipped
    pair = pairs[name + " auto"] if auto else pairs[name]
    with pytest.MonkeyPatch.context() as patch:
        if unread:
            patch.setattr(recording, "_each", lambda *args: None)
        one_pass, curve = _scanned(pair, kind, Q, samples, True)
    two_pass, _ = _scanned(pair, kind, Q, samples, False)
    assert one_pass == two_pass
    if curve is not None and isinstance(one_pass[0], str) and not unread:
        # a pedal's or orthotomic's reads of the tapes share no tape program
        union = curve._programs[None, 2]
        assert (union is None) == (not auto and kind in ("pedal", "orthotomic"))
        assert union is None or any(union(s) is not None for s in linspace(pair.domain, samples))
