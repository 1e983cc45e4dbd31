"""The contract of the library's value classes: their constructors and
defaults, repr text, equality, hashing, immutability and validation errors,
that one base defines their shared methods, and an import of the command
line that builds them without generating code."""

from __future__ import annotations

import ast
import math
import subprocess
import sys

import pytest

from hypedal.constructions import SingularPoint
from hypedal.expr import BinOp, Call, Neg, Num, ParametricCurve, Pi, Pow, Var, _Token, parse
from hypedal.frontal import FrenetData, ValidationReport
from hypedal.jets import Jet
from hypedal.minkowski import LorentzMap, MVec3
from hypedal.singularity import (
    GermKind, GermOrder, IdentityReport, LocationCase, SingularityReport, Verdict,
)

from conftest import ROOT

_X = MVec3(1.0, 0.0, 0.0)
_AK = GermOrder(GermKind.AK, k=1, first_nonzero=2)
_NON_VANISHING = GermOrder(GermKind.NON_VANISHING, first_nonzero=0)

# (class, positional arguments, keyword arguments, defaults, repr): the
# keyword arguments build what the positional ones build, and the class
# called with each field up to the defaults gives those defaults
_VALUES = [
    (Num, (1.5,), {"value": 1.5}, {}, "Num(value=1.5)"),
    (Var, (), {}, {}, "Var()"),
    (Pi, (), {}, {}, "Pi()"),
    (Neg, (Var(),), {"arg": Var()}, {}, "Neg(arg=Var())"),
    (BinOp, ("+", Num(2.0), Var()), {"op": "+", "left": Num(2.0), "right": Var()}, {},
     "BinOp(op='+', left=Num(value=2.0), right=Var())"),
    (Pow, (Var(), 3), {"base": Var(), "exponent": 3}, {}, "Pow(base=Var(), exponent=3)"),
    (Call, ("sin", Var()), {"name": "sin", "arg": Var()}, {}, "Call(name='sin', arg=Var())"),
    (_Token, ("num", "2.5", 3), {"kind": "num", "text": "2.5", "pos": 3}, {},
     "_Token(kind='num', text='2.5', pos=3)"),
    (ParametricCurve, ("c", (Var(), Var(), Var()), (0.0, 1.0), (Pi(), Pi(), Pi()), 7),
     {"name": "c", "components": (Var(), Var(), Var()), "domain": (0.0, 1.0),
      "dual_components": (Pi(), Pi(), Pi()), "samples": 7},
     {"dual_components": None, "samples": 1000},
     "ParametricCurve(name='c', components=(Var(), Var(), Var()), domain=(0.0, 1.0), "
     "dual_components=(Pi(), Pi(), Pi()), samples=7)"),
    (Jet, (0.5, (1.0, -0.0, 2.5)), {"base": 0.5, "coeffs": (1.0, -0.0, 2.5)}, {},
     "Jet(base=0.5, coeffs=(1.0, -0.0, 2.5))"),
    (MVec3, (1.0, 0.0, 0.0), {"x1": 1.0, "x2": 0.0, "x3": 0.0}, {}, "MVec3(x1=1.0, x2=0.0, x3=0.0)"),
    (LorentzMap, (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),),
     {"rows": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))}, {},
     "LorentzMap(rows=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))"),
    (ValidationReport, ({"a": 1e-12, "b": 0.5}, 1e-9, 100),
     {"residuals": {"a": 1e-12, "b": 0.5}, "tol": 1e-9, "samples": 100}, {},
     "ValidationReport(residuals={'a': 1e-12, 'b': 0.5}, tol=1e-09, samples=100)"),
    (FrenetData, (0.25, _X, MVec3(0.0, 1.0, 0.0), 1.5, 2.0),
     {"s": 0.25, "T": _X, "N": MVec3(0.0, 1.0, 0.0), "kappa": 1.5, "speed": 2.0}, {},
     "FrenetData(s=0.25, T=MVec3(x1=1.0, x2=0.0, x3=0.0), N=MVec3(x1=0.0, x2=1.0, x3=0.0), "
     "kappa=1.5, speed=2.0)"),
    (GermOrder, (GermKind.AK, 2, 3), {"kind": GermKind.AK, "k": 2, "first_nonzero": 3},
     {"k": None, "first_nonzero": None},
     "GermOrder(kind=<GermKind.AK: 'ak'>, k=2, first_nonzero=3)"),
    (SingularityReport,
     (0.0, _X, _AK, _NON_VANISHING, 1, None, LocationCase.Q_GENERIC, (3, 4), "smooth",
      Verdict.MATCH),
     {"s0": 0.0, "Q": _X, "m_germ": _AK, "ell_germ": _NON_VANISHING, "j": 1, "k": None,
      "location": LocationCase.Q_GENERIC, "predicted": (3, 4), "measured": "smooth",
      "verdict": Verdict.MATCH}, {},
     "SingularityReport(s0=0.0, Q=MVec3(x1=1.0, x2=0.0, x3=0.0), "
     "m_germ=GermOrder(kind=<GermKind.AK: 'ak'>, k=1, first_nonzero=2), "
     "ell_germ=GermOrder(kind=<GermKind.NON_VANISHING: 'non_vanishing'>, k=None, "
     "first_nonzero=0), j=1, k=None, location=<LocationCase.Q_GENERIC: 'q_generic'>, "
     "predicted=(3, 4), measured='smooth', verdict=<Verdict.MATCH: 'match'>)"),
    (IdentityReport, (1e-10, 2e-10, None, None),
     {"residual_vv": 1e-10, "residual_vmu": 2e-10, "residual_higher": None, "k": None}, {},
     "IdentityReport(residual_vv=1e-10, residual_vmu=2e-10, residual_higher=None, k=None)"),
    (SingularPoint, (0.5, "m_zero", 1e-9), {"s": 0.5, "cause": "m_zero", "speed": 1e-9}, {},
     "SingularPoint(s=0.5, cause='m_zero', speed=1e-09)"),
]
_FROZEN = [value for value in _VALUES if value[0] is not ValidationReport]


def _named(values):
    return [pytest.param(*value, id=value[0].__name__) for value in values]


@pytest.mark.parametrize("cls, args, kw, defaults, text", _named(_VALUES))
def test_values_are_built_and_shown_as_before(cls, args, kw, defaults, text):
    # positional and keyword construction build equal values, with equal
    # hashes where the class is frozen, and the repr names every field
    value = cls(*args)
    assert repr(value) == repr(cls(**kw)) == text
    assert value == cls(**kw) and not value != cls(**kw)
    if cls is not ValidationReport:
        assert hash(value) == hash(cls(**kw))
    given = len(args) - len(defaults)
    made = cls(*args[:given])
    assert {name: getattr(made, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, args, kw, defaults, text", _named(_FROZEN))
def test_frozen_values_refuse_assignment(cls, args, kw, defaults, text):
    # every field, and any other name, is read-only, as in a frozen dataclass
    value = cls(*args)
    for name in [*kw, "other"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, kw, defaults, text", _named(_FROZEN))
def test_a_frozen_value_hashes_as_its_fields_in_constructor_order(cls, args, kw, defaults, text):
    # the hash of the fields' tuple, which keeps the iteration order of a set of values
    assert hash(cls(*args)) == hash(tuple(kw.values()))


def test_one_module_defines_the_value_methods():
    # repr, equality, hash and immutability are written once, in the base of
    # the value classes, as a method or as an assignment such as `__hash__ = None`
    shared = {"__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"}
    defined = []
    for path in sorted((ROOT / "src" / "hypedal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(path.name, name) for name in shared.intersection(names)]
    assert sorted(defined) == sorted(("values.py", name) for name in shared)


def test_equality_compares_class_and_fields():
    assert Var() == Var() and Var() != Pi()
    assert Num(1.0) != 1.0 and MVec3(1.0, 0.0, 0.0) != (1.0, 0.0, 0.0)
    assert parse("sin(s)^2 - pi/2") == parse("sin(s)^2-pi/2") != parse("sin(s)^2 - pi/3")
    assert {parse("s + 1"): 1}[BinOp("+", Var(), Num(1.0))] == 1
    assert GermOrder(GermKind.AK, 1, 2) != GermOrder(GermKind.AK, 1, 3)
    assert Jet(0.0, (1.0, 2.0)) != Jet(0.0, (1.0, 2.0, 0.0))
    # fields compare as tuples do, each object equal to itself
    nan = float("nan")
    assert Num(nan) == Num(nan) and Num(nan) != Num(float("nan"))
    assert MVec3(1, 2, 3) == MVec3(1.0, 2.0, 3.0)


def test_a_curve_compares_and_shows_its_fields_alone():
    # the tapes a curve reads are kept out of its repr, equality and hash
    trees = (parse("cosh(s)"), parse("sinh(s)"), Num(0.0))
    read, fresh = ParametricCurve("c", trees, (-1.0, 1.0)), ParametricCurve("c", trees, (-1.0, 1.0))
    before = hash(read)
    read.point(0.5)
    assert read == fresh and hash(read) == hash(fresh) == before
    assert repr(read) == repr(fresh) == (
        "ParametricCurve(name='c', components=(Call(name='cosh', arg=Var()), "
        "Call(name='sinh', arg=Var()), Num(value=0.0)), domain=(-1.0, 1.0), "
        "dual_components=None, samples=1000)")
    assert read != ParametricCurve("c", trees, (-1.0, 1.0), samples=999)


def test_a_validation_report_is_mutable_and_unhashable():
    report = ValidationReport({"a": 2e-9}, 1e-9, 10)
    assert not report.passed
    report.tol = 1e-8
    assert report.passed and report == ValidationReport({"a": 2e-9}, 1e-8, 10)
    del report.samples
    with pytest.raises(TypeError, match="unhashable type: 'ValidationReport'"):
        hash(report)


@pytest.mark.parametrize("make, message", [
    (lambda: Jet(0.0, ()), "a jet needs at least its constant coefficient"),
    (lambda: Jet(0.0, (0.0,) * 66), "jet order 65 exceeds the maximum 64"),
    (lambda: Jet(math.inf, (1.0,)), "non-finite jet base"),
    (lambda: Jet(0.0, (1.0, math.nan)), "non-finite jet coefficient"),
    (lambda: MVec3(1.0, -math.inf, 0.0), "non-finite vector component"),
    (lambda: ParametricCurve("c", (Var(),) * 3, (1.0, 1.0)), r"degenerate domain \[1.0, 1.0\]"),
    (lambda: ParametricCurve("c", (Var(),) * 3, (0.0, 1.0), samples=1), "need at least 2 samples"),
])
def test_values_refuse_what_they_always_refused(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_importing_the_command_line_generates_no_classes():
    # the value classes' methods are written once, in their base, so importing
    # the library loads neither `dataclasses` nor `inspect` (-S: no site
    # packages either)
    code = ("import sys; sys.path.append(sys.argv[1]); import hypedal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
