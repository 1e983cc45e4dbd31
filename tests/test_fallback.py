"""Generated functions fall back to the checked path only where they refuse.

Every call of a generated function goes through `jets.answer`, which turns a
domain error into no answer and lets any other exception propagate, so a
fault of the code generator shows instead of running the slow path.  With
the generator off, every command must print and write the same bytes.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from conftest import CURVES, generator_off
from hypedal import constructions as cons
from hypedal import expr, jets
from hypedal.cli import main
from hypedal.frontal import LegendrePair
from hypedal.minkowski import MVec3

SOURCES = Path(jets.__file__).resolve().parent

# (module, function): the handlers that catch every exception, and why
_CATCH_ALL = {
    ("expr", "_fold"): "records the exception, whatever it is; the tape raises it at run time",
    ("jets", "require_finite"): "the scan after it raises what the sum raised, or what comes first",
    ("constructions", "sampled"): "samples the rest of the grid as `at` would, then re-raises",
}


def _catch_alls(path: Path) -> list:
    """The innermost function holding each bare `except`, or one naming
    `Exception` or `BaseException`, in the module at path."""
    found = []

    def catches_all(handler):
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                   for t in types)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and catches_all(child):
                found.append(function)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_listed_handlers_catch_every_exception():
    # a generated call wrapped in its own `except Exception:` hides a fault of
    # the generator behind the slow path; such calls go through `jets.answer`
    found = sorted((path.stem, function) for path in SOURCES.glob("*.py")
                   for function in _catch_alls(path))
    assert found == sorted(_CATCH_ALL)


def test_answer_refuses_domain_errors_only():
    def raising(exc):
        raise exc

    assert jets.answer(lambda a, b: a + b, 1, 2) == 3
    assert jets.answer(lambda: None) is None
    for exc in (ValueError("x"), jets.JetDomainError("x"), ZeroDivisionError(), OverflowError()):
        assert jets.answer(raising, exc) is None
    for exc in (IndexError, NameError, TypeError, KeyError, AttributeError):
        with pytest.raises(exc):
            jets.answer(raising, exc())
    # a final refusal, which a generated function returns, is not no answer:
    # `jets.answer` raises it, the error that the kernel raises
    for refusal, kernel in ((jets.refused_division, lambda: jets.div_coeffs([1.0], [0.0])),
                            (lambda: jets.refused_sqrt(-0.0), lambda: jets.sqrt_coeffs([-0.0]))):
        with pytest.raises(jets.JetDomainError) as checked:
            kernel()
        with pytest.raises(jets.JetDomainError) as answered:
            jets.answer(refusal)
        assert str(answered.value) == str(checked.value)


_POINT = "1.5,1,0.5"
# each command but check writes its output to a file, csv a sidecar beside
# it; the formats differ only in what is written, so one command has all three
_COMMANDS = [
    ["check", "--samples", "40"],
    ["curvatures", "--samples", "40", "--out"],
    *([kind, *([] if kind == "evolute" else ["--point", _POINT]), "--samples", "40", "--out"]
      for kind in ("evolute", "pedal", "orthotomic")),
    *(["caustic", "--point", _POINT, "--format", fmt, "--samples", "40", "--out"]
      for fmt in ("csv", "json", "svg")),
    ["classify", "--point", "1,0,0", "--s0", "0", "--out"],
]


def _runs(paths, tmp: Path) -> list:
    """(exit code, stdout, stderr, output file, sidecar) of every command on
    every curve."""
    out_path, sidecar = tmp / "out.txt", tmp / "out.singular.json"
    results = []
    for path in paths:
        for command, *args in _COMMANDS:
            for stale in (out_path, sidecar):
                stale.unlink(missing_ok=True)
            argv = [command, "--curve", path, *args] + ([str(out_path)] if args[-1:] == ["--out"]
                                                          else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            results.append((argv, code, stdout.getvalue(), stderr.getvalue(),
                            *(p.read_bytes() if p.exists() else None for p in (out_path, sidecar))))
    return results


def test_every_command_gives_the_same_bytes_with_the_generator_off(tmp_path, monkeypatch):
    # the end-to-end form of the generated functions' contract: they answer
    # with the checked path's bits, or refuse where it raises; mutations: a
    # generated function that raises IndexError on one input, a refusal where
    # the formula answers (caught by the unit tests; here the bytes stay)
    doc = json.loads((CURVES / "cusp23.json").read_text())
    del doc["v"]
    auto = tmp_path / "cusp23_auto.json"
    auto.write_text(json.dumps(doc))
    paths = [str(CURVES / f"{name}.json") for name in ("astroid", "circle", "cusp23", "cusp37")]
    paths.append(str(auto))
    monkeypatch.setattr(expr, "_TAPES", {})
    on = _runs(paths, tmp_path)
    with generator_off():
        off = _runs(paths, tmp_path)
    assert [r[1] for r in on].count(0) > len(on) // 2
    for a, b in zip(on, off):
        assert a == b, a[0]


_Q = MVec3(math.cosh(0.7), math.sinh(0.7) * math.cos(1.0), math.sinh(0.7) * math.sin(1.0))
# no number, one that is no float, and floats that are not finite
_ODD_S = [None, "abc", 10 ** 400, 1j, math.nan, math.inf]


def _odd_outcomes(curve) -> list:
    """What each read of a pair and of its derived curves gives at each odd s:
    the exception's class and message, or the value by repr."""
    out = []
    for pair in (LegendrePair.from_curve(curve), LegendrePair.with_auto_dual(curve)):
        calls = [pair.v, lambda s: pair.r_jet(s, 3), lambda s: pair.v_jet(s, 20), pair.curvatures]
        for d in (cons.pedal(pair, _Q), cons.evolute(pair), cons.catacaustic(pair, _Q)):
            calls += [d.at, lambda s, d=d: d.jet(s, 2),
                      lambda s, d=d: d.jet(s, 2, coeffs=True, sample=True)]
        for s in _ODD_S:
            for call in calls:
                try:
                    out.append(repr(call(s)))
                except Exception as exc:  # compared, whatever it is
                    out.append((type(exc), str(exc)))
    return out


def test_a_parameter_that_is_no_finite_float_raises_as_with_the_generator_off(
        astroid_curve, monkeypatch):
    # a generated call converts s as the checked path does, so a value that
    # float() refuses, or a non-finite one, raises or answers the same
    monkeypatch.setattr(expr, "_TAPES", {})
    on = _odd_outcomes(astroid_curve)
    with generator_off():
        assert _odd_outcomes(astroid_curve) == on
    assert any(isinstance(o, tuple) and o[0] is TypeError for o in on)


def _evolutes(curve) -> list:
    """The evolute and the caustic of each kind of pair of the curve."""
    curves = []
    for pair in (LegendrePair.from_curve(curve), LegendrePair.with_auto_dual(curve)):
        curves += [cons.evolute(pair), cons.catacaustic(pair, _Q)]
    return curves


def _branch_outcomes(curves, grid) -> list:
    """What `at_with_branch` and `branch` give on each curve at each s: the
    value by repr, or the exception's class and message."""
    out = []
    for curve in curves:
        for s in grid:
            for call in (curve.at_with_branch, curve.branch):
                try:
                    out.append(repr(call(s)))
                except Exception as exc:  # compared, whatever it is
                    out.append((type(exc), str(exc)))
    return out


def _degenerate_s(pair, lo, hi) -> float:
    """A parameter where m^2 - ell^2 changes sign, bisected to rounding."""
    def d2(s):
        ell, m = pair.curvatures(s)
        return m * m - ell * ell

    above = d2(lo) > 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (d2(mid) > 0.0) == above else (lo, mid)
    return 0.5 * (lo + hi)


def test_evolute_branches_are_those_with_the_generator_off(cusp23_curve, monkeypatch):
    # the generated functions decide the branch, take the square root and
    # flip the point to the upper sheet as the formulas do: on both branches,
    # with and without the flip, and at a degenerate parameter, which raises;
    # mutation: the upper-sheet flip on the de Sitter branch too
    monkeypatch.setattr(expr, "_TAPES", {})
    curves = _evolutes(cusp23_curve)
    grid = [*expr.linspace(cusp23_curve.domain, 41), _degenerate_s(curves[0].pair, 0.0, 0.5)]
    on = _branch_outcomes(curves, grid)
    with generator_off():
        assert _branch_outcomes(_evolutes(cusp23_curve), grid) == on
    # each branch, the flip and the degenerate parameter are met
    branches = {(curve.branch(s), curve._numerator(
        *curve.formula_pair.curvatures(s), curve.formula_pair.r(s), curve.formula_pair.v(s)
    ).x1 < 0.0) for curve in curves for s in grid[:-1]}
    assert branches == {(cons.Branch.H2, False), (cons.Branch.H2, True), (cons.Branch.DS2, False),
                        (cons.Branch.DS2, True)}
    degenerate = (cons.EvoluteDegenerateError, f"evolute degenerate at s={grid[-1]!r}")
    assert _branch_outcomes(curves[::2], grid[-1:]) == [degenerate] * 4  # the two evolutes


def _lightlike_outcomes(curve, s) -> list:
    """What the order-2 jet at s, alone and with the sample (which an
    auto-dual pair reads in one generated call), of the evolute and the
    caustic of each kind of pair gives: the value by repr, or the
    exception's class and message."""
    out = []
    for derived in _evolutes(curve):
        for sample in (False, True):
            try:
                out.append(repr(derived.jet(s, 2, sample=sample)))
            except Exception as exc:  # compared, whatever it is
                out.append((type(exc), str(exc)))
    return out


def test_a_refusal_with_finite_values_raises_without_the_formula(cusp23_curve, monkeypatch):
    # near a lightlike point the evolute's divisor sqrt(+-(m^2 - ell^2)) is
    # refused with every value before it finite: the generated function's
    # refusal is final, so the `Jet` formula, which would raise just that, does
    # not run; with the generator off it raises the same; mutation: a final
    # refusal emitted without the test that every value so far is finite
    s = 0.45888662338256836
    calls = []
    formula, div_coeffs = cons.EvoluteCurve._formula, jets.div_coeffs

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    def formula_at_s(cls, pair, Q, s0, order):
        if s0 == s:  # on the pair's jets; a recording runs it at 0.0
            calls.append("_formula")
        return formula(pair, Q, s0, order)

    monkeypatch.setattr(expr, "_TAPES", {})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cons.EvoluteCurve, "_formula", classmethod(formula_at_s))
        for module in (jets, expr):  # `Jet` division, and the tape's step loop
            patch.setattr(module, "div_coeffs", counted("div_coeffs", div_coeffs))
        on = _lightlike_outcomes(cusp23_curve, s)
    assert calls == []
    refused = (jets.JetDomainError, "jet division by vanishing germ")
    # the evolutes, each call; the caustics, from _Q, answer
    assert [on[i] for i in (0, 1, 4, 5)] == [refused] * 4
    with generator_off():
        assert _lightlike_outcomes(cusp23_curve, s) == on


# the arithmetic operators of `Jet`, the checked path's formulas
_JET_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__")


def _checked_runs(argv_list) -> tuple:
    """(exit codes, calls) of the commands: the calls counted of the checked
    path's arithmetic, `jets.mul_coeffs` (and `expr`'s binding of it), the
    step loop (`expr._TapePoint._run`) and `Jet`'s operators on exact `Jet`s,
    not a recording's `Node`s."""
    calls = collections.Counter()

    def counted(name, fn, exact=False):
        def call(*args):
            if not exact or type(args[0]) is jets.Jet:
                calls[name] += 1
            return fn(*args)
        return call

    codes = []
    with pytest.MonkeyPatch.context() as patch:
        for module in (jets, expr):
            patch.setattr(module, "mul_coeffs", counted("mul_coeffs", jets.mul_coeffs))
        patch.setattr(expr._TapePoint, "_run", counted("step loop", expr._TapePoint._run))
        for name in _JET_OPERATORS:
            patch.setattr(jets.Jet, name, counted("Jet", jets.Jet.__dict__[name], exact=True))
        for argv in argv_list:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    return codes, dict(calls)


def test_only_the_known_paths_run_the_checked_jet_arithmetic(tmp_path, monkeypatch):
    # with the generator on, every command on the shipped curves and on their
    # copies without "v", classify at order 22 included, runs generated code
    # alone; the one path known to run the checked path is named below, so
    # that one more shows here.  Mutation: a derived curve's
    # program that gives no answer (`recording.derived_program` -> None)
    monkeypatch.setattr(expr, "_TAPES", {})
    shipped = [str(CURVES / f"{name}.json") for name in ("astroid", "circle", "cusp23", "cusp37")]
    copies = []
    for path in shipped:
        doc = json.loads(Path(path).read_text())
        del doc["v"]
        copies.append(tmp_path / Path(path).name)
        copies[-1].write_text(json.dumps(doc))
    out = str(tmp_path / "out.csv")
    argv = []
    for path in [*shipped, *map(str, copies)]:
        curve = ["--curve", path, "--samples", "20"]
        argv += [["check", *curve], ["curvatures", *curve, "--out", out],
                 ["evolute", *curve, "--out", out]]
        argv += [[kind, *curve, "--point", _POINT, "--out", out]
                 for kind in ("pedal", "orthotomic", "caustic")]
    classify = ["classify", "--point", "1,0,0", "--s0", "0"]
    argv += [[*classify, "--curve", str(path), "--order", "22"] for path in [*shipped, *copies]]
    codes, calls = _checked_runs(argv)
    assert codes.count(0) == len(codes) and calls == {}
    # cusp37 at orders 40 and 60: v's divisor is refused at the read's degree,
    # and a tape step's refusal is plain, so the step loop and the formulas run
    # to raise it again; on the copy without "v", the auto-dual read's dual
    # jet refuses its divisor plainly, so the `Jet` formulas run to raise it
    codes, calls = _checked_runs([["classify", "--curve", shipped[3], "--point", "1,0,0",
                                   "--s0", "0.5", "--order", order] for order in ("40", "60")])
    assert codes == [3, 3] and calls.get("step loop", 0) > 0
    codes, calls = _checked_runs([["classify", "--curve", str(copies[3]), "--point", "1,0,0",
                                   "--s0", "0.5", "--order", order] for order in ("40", "60")])
    assert codes == [3, 3] and calls.get("Jet", 0) > 0
