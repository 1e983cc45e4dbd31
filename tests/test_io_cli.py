from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import xml.dom.minidom
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CURVES, FIXTURES
from hypedal import cli, constructions, expr, jets, minkowski, program, recording
from hypedal.cli import main
from hypedal.io import (
    CurveFileError, csv_text, curve_from_dict, format_float, json_text,
    load_curve, parse_csv, project_poincare, render_svg,
)
from hypedal.expr import linspace
from hypedal.frontal import LegendrePair
from hypedal.minkowski import GeometryError, MVec3


# -- curve files -----------------------------------------------------------


def test_load_curve_fields():
    curve = load_curve(CURVES / "astroid.json")
    assert curve.name == "hyperbolic-astroid"
    assert curve.samples == 1000
    assert curve.domain == (0.0, 6.283185307179586)
    assert curve.has_dual()


def test_curve_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CurveFileError, match="not valid JSON"):
        load_curve(bad)
    with pytest.raises(CurveFileError, match="missing field 'r'"):
        curve_from_dict({"schema": 1, "name": "x", "domain": [0, 1]})
    with pytest.raises(CurveFileError, match="position"):
        curve_from_dict({"schema": 1, "name": "x", "r": ["s", "s +", "s"], "domain": [0, 1]})
    with pytest.raises(CurveFileError, match="domain"):
        curve_from_dict({"schema": 1, "name": "x", "r": ["s", "s", "s"], "domain": [0]})
    with pytest.raises(CurveFileError, match="schema"):
        curve_from_dict({"schema": 2, "name": "x", "r": ["s", "s", "s"], "domain": [0, 1]})
    with pytest.raises(CurveFileError, match="degenerate domain"):
        curve_from_dict({"schema": 1, "name": "x", "r": ["s", "s", "s"], "domain": [1, 1]})


# -- serialization ----------------------------------------------------------


def test_float_format_roundtrips():
    for x in (0.1, 1.0 / 3.0, math.pi, 1e-300, 123456.789, -0.0):
        assert float(format_float(x)) == x
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_csv_roundtrip_bit_exact():
    rows = [(0.1, 2.0 / 3.0, -math.pi, 1e-17), (5.5, 0.0, 7.0, 2.0 ** -40)]
    text = csv_text(["s", "x1", "x2", "x3"], rows)
    header, parsed = parse_csv(text)
    assert header == ["s", "x1", "x2", "x3"]
    assert [tuple(r) for r in parsed] == rows
    assert text.endswith("\n") and "\r" not in text


def test_csv_rows_are_formatted_as_each_value_is():
    # a row is formatted by one "%" after one finiteness test, the sum's, and
    # only where the sum is not finite each value's; mutations: a sum test
    # alone (the two largest floats refuse), no per-value test (nan passes)
    big = 1.7976931348623157e308
    values = [-0.0, 5e-324, big, big, 3, True, 0.1]
    header = [f"c{i}" for i in range(len(values))]
    expected = ",".join(header) + "\n" + ",".join(map(format_float, values)) + "\n"
    assert csv_text(header, [values]) == expected
    assert csv_text(header, [tuple(values)] * 2) == expected + expected.split("\n")[1] + "\n"
    for odd in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^non-finite number in output$"):
            csv_text(header, [values[:-1] + [odd]])


def test_json_text_deterministic_order():
    doc = {"b": 1, "a": [1.5, {"z": 0.1}], "c": None, "d": True}
    out = json_text(doc)
    assert out.index('"b"') < out.index('"a"') < out.index('"c"') < out.index('"d"')
    parsed = json.loads(out)
    assert parsed["a"][1]["z"] == 0.1


# -- projection --------------------------------------------------------------


def test_project_poincare_golden():
    assert project_poincare(MVec3(1.0, 0.0, 0.0)) == (0.0, 0.0)
    u, v = project_poincare(MVec3(math.sqrt(2.0), 1.0, 0.0))
    assert abs(u - 1.0 / (1.0 + math.sqrt(2.0))) < 1e-12 and v == 0.0


def test_project_poincare_stays_inside_disk():
    for t in (1.0, 5.0, 20.0):
        u, v = project_poincare(MVec3(math.cosh(t), math.sinh(t), 0.0))
        assert u * u + v * v < 1.0
    assert project_poincare(MVec3(math.cosh(20.0), math.sinh(20.0), 0.0))[0] > 0.999


def test_project_poincare_rejects_off_sheet():
    with pytest.raises(GeometryError):
        project_poincare(MVec3(0.0, 1.0, 0.0))


# -- CLI contract ---------------------------------------------------------------


def _curve_arg(name):
    return str(CURVES / name)


def test_check_passes_and_fails(tmp_path, capsys):
    assert main(["check", "--curve", _curve_arg("astroid.json")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    broken = tmp_path / "broken.json"
    doc = json.loads((CURVES / "astroid.json").read_text())
    doc["v"][0] = "-(" + doc["v"][0] + ")"
    broken.write_text(json.dumps(doc))
    assert main(["check", "--curve", str(broken)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["check"]) == 1
    assert main(["classify", "--curve", _curve_arg("cusp23.json"),
                 "--point", "1,0", "--s0", "0"]) == 1
    assert main(["check", "--curve", "/nonexistent/file.json"]) == 1
    capsys.readouterr()


def test_the_parser_is_built_once_and_keeps_its_texts(monkeypatch, capsys):
    # mutations: the parser built on every call; a handler bound in it
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self.prog)

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli._build_parser.cache_clear()
    try:
        runs = [[run(argv) for argv in (["--help"], ["--version"], ["check"], ["pedal", "--help"])]
                for _ in range(2)]
        assert built.count("hypedal") == 1
        monkeypatch.setattr(cli, "_cmd_check", lambda ns: 7)  # looked up when it runs
        assert main(["check", "--curve", _curve_arg("astroid.json")]) == 7
    finally:
        cli._build_parser.cache_clear()
    assert runs[0] == runs[1]
    (help_code, help_text, _), version, usage, (pedal_code, pedal_help, _) = runs[0]
    assert help_code == 0 and help_text == cli._build_parser().format_help()
    assert help_text.startswith("usage: hypedal [-h] [--version]")
    assert version == (0, f"hypedal {cli.__version__}\n", "")
    assert usage == (1, "", "hypedal: error: the following arguments are required: --curve\n")
    assert pedal_code == 0 and pedal_help.startswith("usage: hypedal pedal [-h] --curve CURVE")


def test_a_second_run_of_the_same_commands_compiles_nothing(tmp_path):
    # generated code is cached by structure (`program._inline_function`), and
    # reads also with the tapes that curves of the same expressions share,
    # so a second round of the benchmark's commands reloads every curve file
    # and compiles nothing; mutation: both caches too small for one round
    # (`expr.TAPES_SIZE` 1 and a code cache of 32; either alone still passes)
    out = str(tmp_path / "out.csv")
    point = _ASTROID_SIDE_POINT
    argv = []
    for name in ("astroid", "cusp23", "cusp37", "circle"):
        curve = ["--curve", _curve_arg(f"{name}.json"), "--samples", "30"]
        argv += [["check", *curve], ["curvatures", *curve, "--out", out],
                 ["evolute", *curve, "--out", out]]
        argv += [[kind, *curve, "--point", point, "--out", out]
                 for kind in ("pedal", "orthotomic", "caustic")]
        argv.append(["classify", "--curve", _curve_arg(f"{name}.json"), "--point", point,
                     "--s0", "0.3", "--out", out])

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return [main(args) for args in argv]

    first = run()
    with mock.patch.object(jets, "compile_lines", wraps=jets.compile_lines) as compile_:
        assert run() == first
    assert compile_.call_count == 0


# Python's json reads Infinity, NaN and 1e999; none of them, no bool and no
# width beyond the float range make a domain
_INFINITE = "field 'domain' must be [a, b] with a finite width b - a"


@pytest.mark.parametrize("domain, message", [
    ("[0, Infinity]", _INFINITE), ("[-Infinity, 0]", _INFINITE), ("[0, NaN]", _INFINITE),
    ("[0, 1e999]", _INFINITE), ("[-1e308, 1e308]", _INFINITE),
    ("[0, 1%s]" % ("0" * 400), _INFINITE),
    ("[true, 2]", "field 'domain' must be [a, b]"),
])
def test_bad_curve_file_domains_exit_1(domain, message, tmp_path, capsys):
    path = tmp_path / "bad_domain.json"
    path.write_text('{"schema": 1, "name": "x", "r": ["sqrt(1+s^2)", "s", "0"], "domain": %s}'
                    % domain)
    assert main(["check", "--curve", str(path)]) == 1
    assert capsys.readouterr().err == f"hypedal: error: {path}: {message}\n"


def _curve_file(x2: str) -> bytes:
    return json.dumps({"schema": 1, "name": "x", "r": ["sqrt(1+s^2)", x2, "0"],
                       "domain": [0, 1]}).encode()


@pytest.mark.parametrize("content, message", [
    (b"\xff" + _curve_file("s"), "not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000 + b"]" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
    (_curve_file("s^²"), "in field 'r': unexpected character '²' (at position 2)"),
    (_curve_file("2*²"), "in field 'r': unexpected character '²' (at position 2)"),
    (_curve_file("(" * 1000 + "s" + ")" * 1000), "in field 'r': expression nested too deeply"),
    (_curve_file("+".join(["s"] * 1000)), "in field 'r': expression deeper than 200 levels"),
    (_curve_file("0*s^" + "1" * 5000),
     "in field 'r': exponent of 5000 digits is too long (at position 4)"),
], ids=["not-utf-8", "deep-json", "superscript-exponent", "superscript-operand", "deep-parens",
        "long-sum", "long-exponent"])
def test_malformed_curve_files_exit_1(content, message, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    assert main(["check", "--curve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"hypedal: error: {path}: ") and message in err


def test_nested_large_powers_end_in_an_exit_code(tmp_path, capsys):
    # each power of a 301-digit exponent compiles to about 2,000 products in a
    # chain, which the tape's program walk used to follow by recursion
    exponent = "1" + "0" * 300
    path = tmp_path / "powers.json"
    path.write_bytes(_curve_file("0*(((((s^%s)^%s)^%s)^%s)^%s)" % ((exponent,) * 5)))
    assert main(["curvatures", "--curve", str(path), "--samples", "5"]) == 3
    assert capsys.readouterr().err == "hypedal: math domain failure: dual undetermined at s=0.0\n"


@pytest.mark.parametrize("args", [["check"], ["curvatures"],
                                  ["classify", "--point", "1,0,0", "--s0", "0.5"]],
                         ids=["check", "curvatures", "classify"])
def test_a_failing_parameter_is_named_once(args, tmp_path, capsys):
    # a constant curve has no dual: the message that frontal.AutoDual raises
    # already ends in the parameter, and no caller appends it again
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"name": "flat", "r": ["cosh(1)", "sinh(1)", "0*s"],
                                "domain": [0.0, 1.0], "samples": 10}))
    assert main([args[0], "--curve", str(path), *args[1:]]) == 3
    assert capsys.readouterr().err == "hypedal: math domain failure: dual undetermined at s=0.0\n"


_CUSP23 = ["--curve", str(CURVES / "cusp23.json")]
_CLASSIFY = ["classify", *_CUSP23, "--point", "1,0,0"]


@pytest.mark.parametrize("argv, message", [
    (["check", *_CUSP23, "--samples", "1"], "--samples must be at least 2, got 1"),
    (["pedal", *_CUSP23, "--point", "1,0,0", "--samples", "-3"], "--samples must be at least 2, got -3"),
    (["curvatures", *_CUSP23, "--samples", "0"], "--samples must be at least 2, got 0"),
    (_CLASSIFY + ["--s0", "0.5", "--order", "-1"], "--order must be between 0 and 63, got -1"),
    (_CLASSIFY + ["--s0", "0.5", "--order", "100"], "--order must be between 0 and 63, got 100"),
    (_CLASSIFY + ["--s0", "5"], "--s0 5.0 lies outside the curve's domain [-2.0, 2.0]"),
    (["classify", "--curve", str(CURVES / "astroid.json"), "--point", "1,0,0", "--s0", "0",
      "--tol", "nan"], "--tol must be finite and non-negative, got nan"),
    (_CLASSIFY + ["--s0", "0.5", "--tol=-1e-08"], "--tol must be finite and non-negative, got -1e-08"),
    (["pedal", *_CUSP23, "--point", "1,0,0", "--tol", "inf"], "--tol must be finite and non-negative, got inf"),
    (["pedal", *_CUSP23, "--point", "1,0,0", "--tol", "nan"], "--tol must be finite and non-negative, got nan"),
    (["caustic", *_CUSP23, "--point", "1,0,0", "--tol", "-1"], "--tol must be finite and non-negative, got -1.0"),
    (["check", *_CUSP23, "--tol", "nan"], "--tol must be finite and non-negative, got nan"),
    (["check", *_CUSP23, "--tol=-inf"], "--tol must be finite and non-negative, got -inf"),
])
def test_bad_numeric_arguments_exit_1(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"hypedal: error: {message}\n"


def _without_dual(tmp_path, name):
    doc = json.loads((CURVES / name).read_text())
    del doc["v"]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("s0", ["0.5", "0"])
def test_classify_high_orders_on_auto_dual_curves_end_in_an_exit_code(tmp_path, s0, capsys):
    # AutoDual.jet evaluates the curve three orders above the v jet it returns
    argv = ["classify", "--curve", _without_dual(tmp_path, "cusp23.json"), "--point", "1,0,0",
            "--s0", s0, "--out", str(tmp_path / "c.json")]
    for order in range(58, 61):
        assert main(argv + ["--order", str(order)]) in (0, 3, 4, 5)
    for order in range(61, 64):
        capsys.readouterr()
        assert main(argv + ["--order", str(order)]) == 1
        assert capsys.readouterr().err == (
            f"hypedal: error: --order must be between 0 and 60, got {order}\n")


def test_classify_past_the_jet_maximum_is_a_math_domain_failure(tmp_path, capsys):
    # r' vanishes to order 3 at s = 0: the v jet of order 61 needs a point jet of order 65
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"schema": 1, "name": "flat-cusp", "domain": [-1.0, 1.0],
                                "samples": 41, "r": ["sqrt(1 + s^8 + s^10)", "s^4", "s^5"]}))
    assert main(["classify", "--curve", str(path), "--point", "1,0,0", "--s0", "0",
                 "--order", "60"]) == 3
    assert "math domain failure: dual undetermined at s=0.0" in capsys.readouterr().err


def test_derived_commands_read_each_grid_point_once(tmp_path, fresh_tapes, monkeypatch):
    # on a curve without v, a derived-curve command samples and scans each
    # grid point from one order-17 read of r's jet tape: within one command
    # no (tape, degree, s) is read twice at a grid parameter, except at a
    # singular point that it reports, whose cause tag reads the curvature
    # pair there again.  The tapes are fresh, so that their reads
    # (`program.tape_read`) are made, and wrapped, here; each command runs
    # once before it is counted, since the first command on a curve makes the
    # sign grid and the cause scale, which the tapes keep.  Mutation:
    # `cli._derive` sampling the grid with `at` before the scan
    reads = []
    real = program._tape_read

    def made(tapes, reads_of):
        out = real(tapes, reads_of)
        degree = max((k for _, k, _ in reads_of if k is not None), default=None)
        if out is None or degree is None:
            return out

        def counted(s, sign_at, read=out[0]):
            reads.append((id(tapes), max(degree, 1), s.hex()))
            return read(s, sign_at)
        return counted, out[1]

    monkeypatch.setattr(program, "_tape_read", made)
    out = tmp_path / "out.json"
    for name in ("astroid", "circle", "cusp23", "cusp37"):
        path = _without_dual(tmp_path, f"{name}.json")
        grid = linspace(load_curve(path).domain, 40)
        for point in ("1.5430806348152437,1.1752011936438014,0", _ASTROID_SIDE_POINT):
            for command in ("pedal", "orthotomic", "caustic"):
                argv = [command, "--curve", path, "--point", point, "--samples", "40",
                        "--format", "json", "--out", str(out)]
                with contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
                    reads.clear()
                    code = main(argv)
                if code != 0:  # Q on the circle: no scan
                    continue
                singular = json.loads(out.read_text())["singular_points"]
                at_grid = {s.hex() for s in grid} - {float(p["s"]).hex() for p in singular}
                assert 17 in {degree for _, degree, _ in reads}, (name, command)
                repeated = [key for key, n in Counter(reads).items() if n > 1 and key[2] in at_grid]
                assert repeated == [], (name, point, command)


def test_svg_evaluates_each_sample_once(monkeypatch, tmp_path):
    pair = LegendrePair.from_curve(load_curve(CURVES / "cusp37.json"))
    Q = MVec3(math.sqrt(2.0), 1.0, 0.0)
    markers = len(constructions.pedal(pair, Q).singular_points(samples=60))
    assert markers >= 1
    calls = []
    real = constructions.PedalCurve.at
    monkeypatch.setattr(constructions.PedalCurve, "at",
                        lambda self, s: calls.append(s) or real(self, s))
    assert main(["pedal", "--curve", str(CURVES / "cusp37.json"), "--point", f"{Q.x1!r},1,0",
                 "--samples", "60", "--format", "svg", "--out", str(tmp_path / "p.svg")]) == 0
    assert len(calls) == 60 + markers


def test_each_command_loads_its_curve_file_once(monkeypatch, capsys):
    loaded = []
    real = cli.io.load_curve
    monkeypatch.setattr(cli.io, "load_curve", lambda path: loaded.append(path) or real(path))
    assert main(["curvatures", *_CUSP23]) == 0  # default grid from the file
    assert main(_CLASSIFY + ["--s0", "1"]) in (0, 4, 5)
    assert len(loaded) == 2
    capsys.readouterr()


def test_math_domain_failure_exits_3(tmp_path, capsys):
    doc = {"schema": 1, "name": "bad-domain", "r": ["sqrt(s)", "s", "s"], "domain": [-1.0, 1.0]}
    f = tmp_path / "bad_domain.json"
    f.write_text(json.dumps(doc))
    assert main(["check", "--curve", str(f)]) == 3
    assert "math domain failure" in capsys.readouterr().err


def test_classify_refuses_a_point_off_the_sheet(capsys):
    assert main(["classify", *_CUSP23, "--point", "2,0,0", "--s0", "1"]) == 3
    assert capsys.readouterr().err == ("hypedal: math domain failure: pedal point (2.0, 0.0, 0.0) "
                                       "is not on the upper hyperboloid sheet\n")


def test_a_far_pedal_point_typed_to_17_digits_is_on_the_sheet(capsys):
    # <Q,Q> + 1 rounds to -3e-8 here, above an absolute 1e-9, within 1e-9 * x1^2
    point = f"{math.cosh(10.0)!r},{math.sinh(10.0)!r},0"
    for command in ("pedal", "caustic"):
        assert main([command, *_CUSP23, "--point", point, "--samples", "20"]) == 0
    assert main(["classify", *_CUSP23, "--point", point, "--s0", "1"]) == 0
    capsys.readouterr()


def test_curvatures_csv(tmp_path):
    out = tmp_path / "lm.csv"
    assert main(["curvatures", "--curve", _curve_arg("cusp23.json"),
                 "--samples", "9", "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["s", "l", "m"]
    assert len(rows) == 9
    mid = rows[4]
    assert mid[0] == 0.0 and abs(mid[1]) < 1e-12 and abs(mid[2] - 1.5) < 1e-12


def test_pedal_csv_and_sidecar(tmp_path):
    out = tmp_path / "pedal.csv"
    code = main(["pedal", "--curve", _curve_arg("cusp23.json"),
                 "--point", "1.7320508075688772,1,1", "--samples", "101", "--out", str(out)])
    assert code == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["s", "x1", "x2", "x3"]
    assert len(rows) == 101
    sidecar = tmp_path / "pedal.singular.json"
    doc = json.loads(sidecar.read_text())
    assert list(doc.keys()) == ["schema", "operation", "curve", "point",
                                "singular_points", "skipped_parameters"]
    assert len(doc["singular_points"]) == 1
    assert abs(doc["singular_points"][0]["s"] - 1.0) <= 1e-8
    assert doc["singular_points"][0]["cause"] == "point_on_curve"


def test_pedal_json_format(tmp_path):
    out = tmp_path / "pedal.json"
    assert main(["pedal", "--curve", _curve_arg("astroid.json"), "--point", "1,0,0",
                 "--samples", "32", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["samples"]) == 32
    assert doc["singular_points"] == []


def test_classify_exit_codes_and_layout(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify", "--curve", _curve_arg("cusp23.json"),
                 "--point", "1.7320508075688772,1,1", "--s0", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc.keys()) == ["schema", "tool", "version", "operation",
                                "input", "parameters", "results"]
    assert doc["results"]["predicted"] == [2, 3]
    assert doc["results"]["measured"] == [2, 3]
    assert doc["results"]["verdict"] == "match"

    # truncation too short to certify the (7,11) germ: undetermined, exit 5
    assert main(["classify", "--curve", _curve_arg("cusp37.json"),
                 "--point", "1,0,0", "--s0", "0", "--order", "8",
                 "--out", str(tmp_path / "u.json")]) == 5

    capsys.readouterr()


def test_classify_mismatch_exit_4(cusp23, tmp_path, capsys):
    # a pedal point within location tolerance of the curve but not exactly on
    # it: predicted cusp, measured smooth
    p = cusp23.r(1.0 + 1e-5)
    point = f"{p.x1!r},{p.x2!r},{p.x3!r}"
    code = main(["classify", "--curve", _curve_arg("cusp23.json"),
                 "--point", point, "--s0", "1", "--out", str(tmp_path / "m.json")])
    assert code == 4
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["results"]["verdict"] == "mismatch"
    capsys.readouterr()


def test_evolute_command(tmp_path):
    out = tmp_path / "evolute.csv"
    assert main(["evolute", "--curve", _curve_arg("circle.json"),
                 "--samples", "41", "--out", str(out)]) == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["s", "x1", "x2", "x3"]
    for row in rows:
        assert abs(row[1] - 1.0) <= 1e-10 and abs(row[2]) <= 1e-10 and abs(row[3]) <= 1e-10


@pytest.mark.parametrize("curve", ["astroid", "circle", "cusp23", "cusp37"])
@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_evolute_on_every_curve(curve, fmt, tmp_path):
    # degenerate parameters (|m^2 - l^2| ~ 0) are gaps, in sampling and in the singular-point scan
    out = tmp_path / f"evolute.{fmt}"
    assert main(["evolute", "--curve", _curve_arg(f"{curve}.json"), "--samples", "60",
                 "--format", fmt, "--out", str(out)]) == 0
    if fmt == "svg":
        assert out.read_text().startswith("<svg ")
        return
    if fmt == "csv":
        _, rows = parse_csv(out.read_text())
        doc = json.loads((tmp_path / "evolute.singular.json").read_text())
    else:
        doc = json.loads(out.read_text())
        rows = doc["samples"]
    assert len(rows) + len(doc["skipped_parameters"]) == 60
    assert all(math.isfinite(x) for row in rows for x in row)


_ASTROID_SIDE_POINT = "1.6685185538222564,-0.87303744856929,-1.0108213382416986"


# the circle's expressions on [0, 1e308], written by the test that names it:
# the off-curve scan's brackets are 1e305 wide, and their squares overflow
_WIDE_CIRCLE = "wide-circle.json"


@pytest.mark.parametrize("argv", [
    ["evolute", "--curve", str(CURVES / "astroid.json"), "--samples", "150"],
    ["plot", "--curve", str(CURVES / "astroid.json"), "--kind", "evolute"],
    ["caustic", "--curve", str(CURVES / "astroid.json"), "--point", _ASTROID_SIDE_POINT,
     "--samples", "120"],
    ["caustic", "--curve", _WIDE_CIRCLE, "--point", "1.5,1,0.5", "--samples", "100"],
])
def test_bisection_into_an_undefined_parameter_leaves_a_gap(argv, tmp_path):
    doc = json.loads((CURVES / "circle.json").read_text())
    doc["domain"] = [0.0, 1e308]
    (tmp_path / _WIDE_CIRCLE).write_text(json.dumps(doc))
    argv = [str(tmp_path / arg) if arg == _WIDE_CIRCLE else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("args", [
    ["evolute"],
    ["caustic", "--point", "1.1276259652063807,0.3126571832962484,0.41687624439499793"],
])
def test_a_parameter_undefined_off_the_scan_grid_is_a_gap(args, tmp_path):
    # s^3 * s / s is undefined at s = 0, which the 100-point scan does not
    # sample, but the 101-point grid of the curvature scale that tags the
    # cause of each singular point does; it is a gap there too
    doc = {"schema": 1, "name": "gap", "r": ["sqrt(1 + s^4 + s^6)", "s^2", "s^3 * s / s"],
           "domain": [-1, 1], "samples": 100}
    f = tmp_path / "gap.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main([*args, "--curve", str(f), "--samples", "100", "--out", str(out)]) == 0
    sidecar = json.loads(out.with_name("out.singular.json").read_text())
    assert len(sidecar["singular_points"]) == 2


_SINGULAR = json.loads((FIXTURES / "singular_points.json").read_text())


@pytest.mark.parametrize("key", list(_SINGULAR))
def test_singular_point_sidecars_match_fixture(key, tmp_path):
    command, curve = key.split()
    out = tmp_path / "derived.csv"
    assert main([command, "--curve", _curve_arg(f"{curve}.json"), "--point", "1,0,0",
                 "--samples", "200", "--out", str(out)]) == 0
    sidecar = (tmp_path / "derived.singular.json").read_text()
    assert sidecar == json_text(_SINGULAR[key]) + "\n"


def test_svg_fixture_pedal_bytes(tmp_path):
    out = tmp_path / "pedal.svg"
    assert main(["pedal", "--curve", _curve_arg("astroid.json"), "--point", "1,0,0",
                 "--format", "svg", "--samples", "1000", "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "astroid_pedal_center.svg").read_bytes()


def test_svg_fixture_caustic_bytes(tmp_path):
    out = tmp_path / "caustic.svg"
    assert main(["caustic", "--curve", _curve_arg("astroid.json"), "--point", "1,0,0",
                 "--format", "svg", "--samples", "500", "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "astroid_caustic_center.svg").read_bytes()


def test_svg_points_inside_unit_disk():
    text = (FIXTURES / "astroid_pedal_center.svg").read_text()
    for points in re.findall(r'points="([^"]+)"', text):
        for token in points.split():
            u, v = map(float, token.split(","))
            assert u * u + v * v < 1.0


def test_plot_command(tmp_path):
    out = tmp_path / "figure.svg"
    assert main(["plot", "--curve", _curve_arg("astroid.json"), "--point", "1,0,0",
                 "--kind", "pedal,orthotomic", "--samples", "200", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polyline") >= 3
    assert "#1565c0" in text and "#2e7d32" in text and "#f9a825" in text
    assert main(["plot", "--curve", _curve_arg("astroid.json"), "--kind", "pedal"]) == 1


def _markers(argv, out):
    assert main(argv + ["--out", str(out)]) == 0
    return re.findall(r'<circle cx="[^"]+" cy="[^"]+" r="0\.0[0-9]+" fill="[^"]+"/>', out.read_text())


def test_plot_marks_each_curve_at_its_own_singular_points(tmp_path):
    plot = ["plot", *_CUSP23, "--point", "1.7320508075688772,1,1", "--samples", "101", "--kind"]
    both = _markers(plot + ["evolute,pedal"], tmp_path / "both.svg")
    evolute = _markers(plot + ["evolute"], tmp_path / "evolute.svg")
    pedal = _markers(plot + ["pedal"], tmp_path / "pedal.svg")
    # Q = r(1): the pedal's cusp at s = 1 is a point_on_curve marker
    assert '<circle cx="0.366025" cy="-0.366025" r="0.012" fill="#b71c1c"/>' in pedal
    assert both == evolute + pedal[1:]  # Q's marker once, then each curve's own


def test_render_svg_marker_layout():
    text = render_svg([([(0.1, 0.2), (0.3, 0.4)], "#000000", 0.01)],
                      [(0.5, 0.5, "#ff0000", 0.02)], title="demo")
    assert text.startswith("<svg ")
    assert "<title>demo</title>" in text
    assert '<circle cx="0.500000" cy="-0.500000"' in text
    assert text.endswith("</svg>\n")


def test_svg_title_escapes_the_curve_name(tmp_path):
    # the curve name is XML text in <title>; unescaped, "R&D <astroid>" made a
    # figure that no XML parser reads ("not well-formed (invalid token)")
    doc = json.loads((CURVES / "astroid.json").read_text())
    doc["name"] = name = "R&D <astroid> ]]>"
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "named.svg"
    assert main(["pedal", "--curve", str(path), "--point", "1,0,0", "--format", "svg",
                 "--samples", "50", "--out", str(out)]) == 0
    title = xml.dom.minidom.parse(str(out)).getElementsByTagName("title")[0]
    assert title.firstChild.data == name


# -- output digests --------------------------------------------------------------

# The CSV and JSON a command prints, pinned by digest: the curvature pair, each
# derived curve as JSON and classifications at two points and at four orders, on
# every shipped curve as shipped and as a copy without "v", so that
# frontal.AutoDual derives the dual.
_DIGEST_POINT = "1.5,1,0.5"
_DIGEST_COMMANDS = {
    "curvatures": ["curvatures", "--samples", "40"],
    **{kind: [kind, *([] if kind == "evolute" else ["--point", _DIGEST_POINT]),
              "--format", "json", "--samples", "40"]
       for kind in ("evolute", "pedal", "orthotomic", "caustic")},
    **{f"classify s0={s0}": ["classify", "--point", "1,0,0", "--s0", s0] for s0 in ("0", "1")},
    # the jet kernels at low, middling and near-maximal truncation orders
    **{f"classify order={n}": ["classify", "--point", "1,0,0", "--s0", "0.5", "--order", n]
       for n in ("4", "17", "40", "60")},
}


def _output_digests(tmp) -> dict[str, str]:
    """{"<command> <curve>[ auto]": sha256 of exit code, stdout and stderr} for every run;
    the curve path, which classify echoes, reads <curve> in what is hashed."""
    digests = {}
    for name in ("astroid", "circle", "cusp23", "cusp37"):
        for auto in (False, True):
            path = _without_dual(tmp, f"{name}.json") if auto else _curve_arg(f"{name}.json")
            for label, (command, *args) in _DIGEST_COMMANDS.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--curve", path, *args])
                text = f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(path, "<curve>")
                key = f"{label} {name}" + (" auto" if auto else "")
                digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_csv_and_json_outputs_match_their_digests(tmp_path):
    expected = json.loads((FIXTURES / "output_digests.json").read_text())
    assert _output_digests(tmp_path) == expected


def test_outputs_are_unchanged_with_the_geometry_rebound(monkeypatch):
    # the benchmark's tracer rebinds public functions in every module that
    # holds them, so nothing may dispatch on their identity: a table keyed on
    # them made every traced caustic raise KeyError; mutation: keying the
    # induced pairs' recorded jets on their point formula
    argv = [[command, "--curve", _curve_arg("astroid.json"), "--point", _ASTROID_SIDE_POINT,
             "--samples", "150"] for command in ("caustic", "pedal")]

    def outputs():
        texts = []
        for args in argv:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(args) == 0
            texts.append(out.getvalue())
        return texts

    plain = outputs()
    for module, name in ((constructions, "orthotomic_point"), (constructions, "pedal_point"),
                         (minkowski, "inner"), (minkowski, "wedge")):
        fn = getattr(module, name)
        wrapper = functools.wraps(fn)(lambda *args, fn=fn, **kw: fn(*args, **kw))
        for held in list(sys.modules.values()):
            if getattr(held, "__name__", "").startswith("hypedal") and vars(held).get(name) is fn:
                monkeypatch.setattr(held, name, wrapper)
    # recorded again, through the wrappers
    recording._record_on_pair.cache_clear()
    recording._recorded.cache_clear()
    monkeypatch.setattr(expr, "_TAPES", {})  # and the reads they hold
    assert outputs() == plain


# -- no tracebacks --------------------------------------------------------------

_HOSTILE = ["nan", "inf", "-inf", "0.0", "-0.0", "1e300", "-1e300", "1e-300", "-1e-300"]
_NUMBER = st.sampled_from(_HOSTILE) | st.floats(-3.0, 3.0).map(repr)
_POINT = (st.sampled_from(["1,0,0", "1.4142135623730951,1,0", _ASTROID_SIDE_POINT])
          | st.lists(_NUMBER, min_size=3, max_size=3).map(",".join))
_KIND_NAMES = ["pedal", "orthotomic", "evolute", "caustic"]


@st.composite
def _cli_argv(draw):
    """(argv, whether the curve file is read from a copy without "v")."""
    command = draw(st.sampled_from(["check", "curvatures", *_KIND_NAMES, "classify", "plot"]))
    curve = draw(st.sampled_from(["astroid", "circle", "cusp23", "cusp37"]))
    argv = [command, "--curve", str(CURVES / f"{curve}.json")]
    if command != "classify":
        argv += ["--samples", str(draw(st.integers(2, 40)))]
    if command in ("pedal", "orthotomic", "caustic", "classify") or (
            command == "plot" and draw(st.booleans())):
        argv.append("--point=" + draw(_POINT))
    if command in ("check", *_KIND_NAMES, "classify"):
        argv.append("--tol=" + draw(_NUMBER))
    if command in _KIND_NAMES:
        argv += ["--format", draw(st.sampled_from(["csv", "json", "svg"]))]
    if command == "classify":
        argv += ["--s0=" + draw(_NUMBER),
                 "--order=" + draw(st.sampled_from(_HOSTILE) | st.integers(-2, 66).map(str))]
    if command == "plot":
        argv += ["--kind", ",".join(draw(st.lists(st.sampled_from(_KIND_NAMES), min_size=1, max_size=3)))]
    return argv, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_cli_argv())
# the pedal jets overflow: a plain ValueError, which is a math domain failure (exit 3)
@example((["classify", "--curve", str(CURVES / "circle.json"), "--point=1e300,0,0", "--s0=0",
           "--order=0"], False))
def test_cli_never_ends_in_a_traceback(drawn):
    argv, without_v = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if without_v:  # so that `AutoDual` derives the dual
            at = argv.index("--curve") + 1
            argv = [*argv[:at], _without_dual(Path(tmp), Path(argv[at]).name), *argv[at + 1:]]
        if argv[0] != "check":
            argv = argv + ["--out", f"{tmp}/out"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 5


if __name__ == "__main__":
    # regenerates tests/fixtures/output_digests.json after an intended output change
    with tempfile.TemporaryDirectory() as tmp:
        digests = _output_digests(Path(tmp))
    (FIXTURES / "output_digests.json").write_text(json.dumps(digests, indent=1) + "\n")
