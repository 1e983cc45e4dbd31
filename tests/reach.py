"""The functions of hypedal that no command enters, measured and listed.

Runs a matrix of in-process `hypedal.cli.main` calls under `sys.setprofile`,
once with the generator on and once with it off (`conftest.generator_off`),
and keys each function that a call enters by its module and qualified name,
read from the source with `ast`.  Two sets are compared with the tables
below, which give one reason per entry:

- `NEVER`: the functions that neither run enters;
- `OFF_ONLY`: those that only the run with the generator off enters.

The functions that `perfbench/tracing.py` wraps stay for its tracer, which
reads each by name; that file is their reason, and they are in no table.

    PYTHONPATH=src:tests python tests/reach.py

It is a script, not a pytest test: it takes about 20 s.  It exits 1 and prints the difference when a function joins or leaves either
set, when a command's exit code differs between the two runs, or when an
error run does not exit with its documented code.  After a change that
deletes such a function, or adds one that no command enters, move its entry
as printed, with a reason.  The float sums of some paths differ from
Python 3.12 on, which could move a branch, so the tables are those of 3.11.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CURVES = ROOT / "curves"

_ENTERED = set()  # the code objects that a call entered, while the profile runs


def _profile(frame, event, arg):
    if event == "call":
        _ENTERED.add(frame.f_code)


_PEDAL_PAIR = "the pedal's induced pair (`pedal_induced`), which acceptance criterion 4 checks"
_EMITTED = "a step's meaning, emitted inline; the step loop of tests/test_expr.py runs it"
_REPARAMETRIZED = "of `reparametrized`, which acceptance criterion 7 calls"
_GRAMMAR = "a tape step of grammar that no shipped curve uses on jets"
_JET_API = "a `Jet` method of the library API (`hypedal.Jet`), which the formulas do not call"
_VALUES = "the value classes' shared behaviour, which tests/test_values.py pins"
_STEP_LOOP = "a tape step that the step loop runs where a read gives no answer"

# (module, qualified name): why it stays, though no command enters it
NEVER = {
    ("constructions", "PedalInducedPair.__init__"): _PEDAL_PAIR,
    ("constructions", "_pedal_dual"): _PEDAL_PAIR,
    ("constructions", "_pedal_frame_normal"): _PEDAL_PAIR,
    ("constructions", "_jet_vector"): "`DerivedCurve.jet` as jets, which no command asks for",
    ("constructions", "scalar_zeros.<locals>.f"): "of `scalar_zeros`, for acceptance criterion 3",
    ("expr", "_k_abs"): _GRAMMAR,
    ("expr", "_k_neg"): _GRAMMAR,
    ("expr", "_k_tanh"): _GRAMMAR,
    ("frontal", "FrenetData.__init__"): "of `frenet_regular`, which tests/test_frontal.py calls",
    ("frontal", "reparametrized.<locals>.composed"): _REPARAMETRIZED,
    ("frontal", "reparametrized.<locals>.composed.<locals>.at"): _REPARAMETRIZED,
    ("frontal", "reparametrized.<locals>.r"): _REPARAMETRIZED,
    ("frontal", "reparametrized.<locals>.v"): _REPARAMETRIZED,
    ("jets", "Jet._sin_cos"): _JET_API,
    ("jets", "Jet._sinh_cosh"): _JET_API,
    ("jets", "_sinh_cosh_kernel"): "the kernel of sinh and cosh, which no shipped curve uses",
    ("jets", "sinh_cosh_coeffs"): "the kernel of sinh and cosh, which no shipped curve uses",
    ("jets", "refused_sqrt"): "a final refusal of a square root, which no command meets",
    ("minkowski", "LorentzMap.__init__"): "of `boost_to_origin`, which test_minkowski.py calls",
    ("program", "_f_branch"): _EMITTED,
    ("program", "_f_const"): _EMITTED,
    ("program", "_f_sheet"): _EMITTED,
    ("program", "_k_coeff"): _EMITTED,
    ("program", "_k_d"): _EMITTED,
    ("program", "_k_flip"): _EMITTED,
    ("program", "_k_trunc"): _EMITTED,
    ("program", "_k_var"): _EMITTED,
    ("program", "_lead"): "of `_f_branch` and `_f_sheet`",
    ("recording", "Node._unrecorded"): "refuses to record a `Jet` operation that no step records",
    ("singularity", "IdentityReport.__init__"): "of `dual_identity_check`, for test_singularity.py",
    ("singularity", "IdentityReport.max_residual"): "of `dual_identity_check`",
    ("singularity", "_rel_jet"): "of `dual_identity_check`",
    ("values", "Record.__eq__"): _VALUES,
    ("values", "Record.__repr__"): _VALUES,
    ("values", "Record._field_values"): _VALUES,
    ("values", "Value.__delattr__"): _VALUES,
    ("values", "Value.__hash__"): _VALUES,
    ("values", "Value.__setattr__"): _VALUES,
}

# (module, qualified name): why it stays, though only the run with the
# generator off enters it
OFF_ONLY = {
    ("decide", "branch_sign"): "the evolute's branch rule as the checked path runs it; "
                               "generated code emits its template, `decide.BRANCH`",
    ("expr", "_f_call"): _STEP_LOOP,
    ("expr", "_f_pow"): _STEP_LOOP,
    ("expr", "_k_half"): _STEP_LOOP,
    ("expr", "_k_pair"): _STEP_LOOP,
    ("expr", "_k_sub"): _STEP_LOOP,
    ("jets", "_scalar"): "lifts a scalar operand of a `Jet` operator, which only the checked "
                         "path's formulas run",
    ("jets", "sin_cos_coeffs"): "the kernel of sin and cos, which the step loop runs",
}

_POINTS = ("1,0,0", "1.5,1,0.5", "3,2,2")


def _matrix(tmp: Path) -> list:
    """The argument lists of the calls: on each shipped curve and its copy
    without "v", check, curvatures, evolute, pedal, orthotomic and caustic
    at three points (each format for each kind), a plot of all four kinds,
    and classify at three s0 and two points, and at orders 4, 40 and 60."""
    out = str(tmp / "out.txt")
    argv = []
    for name in ("astroid", "circle", "cusp23", "cusp37"):
        doc = json.loads((CURVES / f"{name}.json").read_text())
        del doc["v"]
        copy = tmp / f"{name}_no_v.json"
        copy.write_text(json.dumps(doc))
        for path in (str(CURVES / f"{name}.json"), str(copy)):
            curve = ["--curve", path, "--samples", "40"]
            argv += [["check", *curve], ["curvatures", *curve, "--out", out],
                     ["evolute", *curve, "--out", out]]
            argv += [[kind, *curve, "--point", point,
                      "--format", ("csv", "json", "svg")[(i + j) % 3], "--out", out]
                     for i, kind in enumerate(("pedal", "orthotomic", "caustic"))
                     for j, point in enumerate(_POINTS)]
            argv.append(["plot", *curve, "--point", _POINTS[1],
                         "--kind", "pedal,orthotomic,evolute,caustic", "--out", out])
            classify = ["classify", "--curve", path, "--out", out]
            argv += [[*classify, "--point", point, "--s0", s0]
                     for s0 in ("0", "0.3", "0.5") for point in _POINTS[:2]]
            argv += [[*classify, "--point", "1,0,0", "--s0", "0.5", "--order", order]
                     for order in ("4", "40", "60")]
    return argv


def _errors(tmp: Path) -> list:
    """(argument list, documented exit code) of one call per error exit."""
    files = {"not_json.json": "{"}
    for name, r in (("bad_expression", ["sqrt(1 + s^2", "s", "0"]),
                    ("divides_by_zero", ["sqrt(1 + s^2 + (1/0)^2)", "s", "1/0"])):
        files[f"{name}.json"] = json.dumps({"schema": 1, "name": name, "r": r, "domain": [0, 1]})
    doc = json.loads((CURVES / "circle.json").read_text())
    doc["v"] = ["0", "1", "0"]  # a unit vector, but no dual of r
    files["no_dual.json"] = json.dumps(doc)
    for name, text in files.items():
        (tmp / name).write_text(text)
    return [(["pedal", "--curve", str(CURVES / "astroid.json")], 1),  # usage: no --point
            (["check", "--curve", str(tmp / "not_json.json")], 1),
            (["check", "--curve", str(tmp / "bad_expression.json")], 1),  # a parse error
            (["check", "--curve", str(tmp / "no_dual.json"), "--samples", "40"], 2),
            (["check", "--curve", str(tmp / "divides_by_zero.json"), "--samples", "40"], 3)]


def _codes(main, argv_list) -> list:
    """The exit code of main(argv) for each argument list, its output discarded."""
    codes = []
    for argv in argv_list:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    return codes


def _functions(sources: Path) -> tuple:
    """(keys, lines): (file, first line, name) of each function of the
    modules in `sources`, its first line that of its first decorator, as its
    code object gives them -> (module, qualified name); (module, qualified
    name) -> the number of lines from its `def` to its end."""
    found, lines = {}, {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = found[str(path), first, child.name] = path.stem, prefix + child.name
                lines[key] = child.end_lineno - child.lineno + 1
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(sources.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found, lines


def _wrapped() -> set:
    """The (module, qualified name) of each function and method that
    `perfbench/tracing.py` wraps."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return ({(module, name) for module, name, _ in tracing._FUNCTIONS}
            | {(module, f"{cls}.{name}") for module, cls, names, _ in tracing._METHODS
               for name in names})


def _entered(functions: dict) -> set:
    """The (module, qualified name) of the functions entered since the last
    call, which it forgets."""
    codes = list(_ENTERED)  # a copy: the profile still runs
    _ENTERED.clear()
    keys = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in codes}
    return {functions[key] for key in keys if key in functions}


def _differences(name: str, measured: set, table: dict) -> list:
    """A line per function that joined the set (not in the table) or left it."""
    return ([f"{name}: joined {module}.{function}"
             for module, function in sorted(measured - table.keys())]
            + [f"{name}: left {module}.{function}"
               for module, function in sorted(table.keys() - measured)])


def main() -> int:
    start = time.perf_counter()
    # before hypedal is imported, so that functions run at import count as entered
    sys.setprofile(_profile)
    from conftest import generator_off
    from hypedal import cli

    functions, lines = _functions(Path(os.path.realpath(cli.__file__)).parent)
    with tempfile.TemporaryDirectory() as tmp:
        matrix = _matrix(Path(tmp))
        errors = _errors(Path(tmp))
        argv_list = matrix + [argv for argv, _ in errors]
        on = _codes(cli.main, argv_list)
        entered_on = _entered(functions)
        with generator_off():
            off = _codes(cli.main, argv_list)
        entered_off = _entered(functions)
    sys.setprofile(None)
    wrapped = _wrapped()
    never = set(lines) - entered_on - entered_off
    off_only = entered_off - entered_on
    problems = _differences("never entered", never - wrapped, NEVER)
    problems += _differences("entered only with the generator off", off_only - wrapped, OFF_ONLY)
    problems += [f"exit {a} with the generator on, {b} off: {' '.join(argv)}"
                 for argv, a, b in zip(argv_list, on, off) if a != b]
    problems += [f"exit {code}, not {expected}: {' '.join(argv)}"
                 for (argv, expected), code in zip(errors, on[len(matrix):]) if code != expected]

    def counted(found):
        return (f"{len(found)} functions ({sum(lines[f] for f in found)} lines, "
                f"{len(found & wrapped)} of them wrapped by perfbench/tracing.py)")

    print(f"{len(argv_list)} calls, with the generator on and off, in "
          f"{time.perf_counter() - start:.1f} s; never entered: {counted(never)}; "
          f"entered only with the generator off: {counted(off_only)}")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
