"""Every numerical decision has one home, `hypedal.decide`."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

from hypedal import decide, expr, program
from hypedal.cli import main
from hypedal.jets import JetDomainError, div_coeffs, sqrt_coeffs

SOURCES = Path(decide.__file__).resolve().parent

# (module, function, literal): the small floats that decide nothing, ITP's
# x-widths, to which a bracket is refined
_NOT_DECISIONS = {
    ("constructions", "_zeros", 1e-10),
    ("constructions", "_require_off_curve", 1e-12),
}


def _small_floats(path: Path):
    """(function, value) of each float literal in (0, 1e-5] in the module at path,
    the function the innermost def that holds it (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Constant) and isinstance(child.value, float) \
                    and 0.0 < child.value <= 1e-5:
                found.append((function, child.value))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_threshold_is_defined_outside_decide():
    # a tolerance written as a literal in a module, not read from `decide`;
    # mutation: `jets.vanishing_order`'s default back to the literal 1e-8
    found = {(path.stem, function, value)
             for path in SOURCES.glob("*.py") if path.stem != "decide"
             for function, value in _small_floats(path)}
    assert found == _NOT_DECISIONS


def _generated(fn, args, width: int):
    """The generated function of the one step fn on the given lists (node 1,
    and node 2 for a quotient) of `width` coefficients: None, or its output by repr."""
    steps = [(3, fn, 1, 2 if fn is expr._k_div else None)]
    read = [1, 2] if fn is expr._k_div else [1]
    function, consts = program.inline_program(steps, dict.fromkeys(read, width), (3,))
    out = function([list(a) for a in args], consts)
    return None if out is None else list(map(repr, out[0]))


def _kernel(kernel, args):
    try:
        return list(map(repr, kernel(*args)))
    except JetDomainError:
        return None


def _divisors(degree: int):
    """Divisors at the refusal's edge, |b0| = DIV_REL_TOL * max |b| and one ulp
    above, of either sign."""
    at = decide.DIV_REL_TOL * 3.0
    for b0 in (at, -at, math.nextafter(at, math.inf), -math.nextafter(at, math.inf)):
        yield [b0, -3.0] + [0.5, -0.0, 0.25, 1.0][:degree - 1]


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_generated_refusals_are_the_kernels(degree):
    # one rule, two emitters: up to 4 coefficients the generated code tests the
    # refusals on local names, above on whole lists; either must answer where
    # `div_coeffs` and `sqrt_coeffs` answer, with their bits, and give no
    # answer exactly where they raise.  Mutations: `>=` for `>` in
    # `DIVISOR_REFUSED` (the edge divisor answers) or `SQRT_REFUSED` (0.0
    # answers); an emitter or a kernel with its own copy of a rule that is
    # off at the edge (the two disagree there)
    width = degree + 1
    numerator = [1.0, -0.5, 0.75, 0.0, -2.0, 1.5][:width]
    outcomes = []
    for b in _divisors(degree):
        want = _kernel(div_coeffs, (numerator, b))
        assert _generated(expr._k_div, (numerator, b), width) == want
        outcomes.append(want is None)
    assert outcomes == [True, True, False, False]
    for a0 in (0.0, -0.0, 5e-324):
        a = [a0] + [0.0] * degree
        want = _kernel(sqrt_coeffs, (a,))
        assert _generated(expr._k_sqrt, (a,), width) == want
        assert (want is None) == (a0 != 5e-324)


@pytest.mark.parametrize("command, text, name", [
    ("check", "1e-9", "VALIDATE_TOL"), ("pedal", "1e-7", "SINGULAR_TOL"),
    ("orthotomic", "1e-7", "SINGULAR_TOL"), ("evolute", "1e-7", "SINGULAR_TOL"),
    ("caustic", "1e-7", "SINGULAR_TOL"), ("classify", "1e-8", "GERM_TOL"),
])
def test_help_prints_each_default_as_readme_does(command, text, name, capsys):
    # the help texts read their defaults from `decide`, and print them as
    # README does; f"{1e-9:g}" prints 1e-09
    assert main([command, "--help"]) == 0
    assert f"(default {text})" in " ".join(capsys.readouterr().out.split())
    assert float(text) == getattr(decide, name)
