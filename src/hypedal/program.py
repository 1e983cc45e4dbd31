"""Straight-line programs of Taylor-jet and float steps, as generated code.

A program is a sequence of steps (node, fn, x, y), `fn(values, x, y)`
computing node from node x and y (a second node, a constant, a function
or a name), in the format of the tape that `hypedal.expr` compiles a
curve's expression trees into (Griewank & Walther, "Evaluating
Derivatives", ch. 13); `hypedal.recording` records formulas written for
`Jet`s, such as the derived curves', into such programs.

Where every value of a program has at most `INLINE_WIDTH` coefficients
(floats, and jets of degree 0-3), the program also runs as one generated
Python function (`inline_program`).  Each step is emitted on local names
from the line templates of the `jets` kernels, or as the float operation
of its step function, so every value keeps its bits, the sign of zero
included.  A refusal that a kernel raises (a vanishing divisor, the square
root of a constant term that is not positive) makes the function return
None, and so does a value that is not finite, found by one test over all
of them.  The caller then runs the checked path, the step loop or the
`Jet` formula, and so returns or raises exactly what it always did; it
does the same when the function raises.  Wider values keep the step loop:
it multiplies by the degree-keyed kernels of `jets.mul_coeffs`, which
inlined full rows would lose.  The code is keyed by the program's
structure, with its constants as arguments, so a program recorded for
another pedal point Q, or read from another copy of a curve, reuses it.

The library imports this module with the first program it generates.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache

from . import jets
from .expr import (
    _F_BINARY, _INLINE_WIDTH as INLINE_WIDTH, _TWO_OPERANDS, _f_call, _f_pow, _k_add, _k_div,
    _k_half, _k_lift, _k_mul, _k_neg, _k_pair, _k_scale, _k_sqrt, _k_sub, _k_tanh,
)
from .jets import sinh_cosh_coeffs

_INLINE_STEPS = 400  # longer programs (long power chains) keep the step loop


# what `Jet.d_ds` and `Jet.truncate` compute, the steps that only recorded
# formulas take
def _k_d(v, x, y):
    a = v[x]
    return [(i + 1) * a[i + 1] for i in range(len(a) - 1)]


def _k_trunc(v, x, order):
    return v[x][: order + 1]


# -- generated functions -------------------------------------------------------

_EMITTED = {_k_neg, _k_add, _k_sub, _k_mul, _k_div, _k_lift, _k_scale, _k_sqrt, _k_pair, _k_half,
            _k_tanh, _k_d, _k_trunc, _f_call, _f_pow, *_F_BINARY.values()}
_F_NAMES = {math.sqrt: "sqrt", math.sin: "sin", math.cos: "cos", math.sinh: "sinh",
            math.cosh: "cosh", math.tanh: "tanh", abs: "abs"}
_F_SYMBOLS = {fn: op for op, fn in _F_BINARY.items()}


def inline_program(program, shapes: dict, outputs):
    """(function, constants) running `program`, or None where it does not inline.

    `shapes` maps each input node, in the order the function takes their
    values, to 0 (a float), w (a jet of w coefficients) or -w (a sin/cos or
    sinh/cosh pair).  function(values of the inputs, constants) returns the
    values of the `outputs` nodes, or None where the checked path must run.
    A constant that is not a float (a `recording.Param`) stands for the
    value given in its place.
    """
    if len(program) > _INLINE_STEPS or max(map(abs, shapes.values()), default=0) > INLINE_WIDTH:
        return None
    slots = {}  # a float's bits, or a `Param` -> argument index
    consts = []
    structure = []
    for node, fn, x, y in program:
        if fn not in _EMITTED:  # a step that raises, such as abs of a jet
            return None
        if fn is _k_lift or fn is _k_scale:
            slot = slots.setdefault(y.hex() if isinstance(y, float) else y, len(slots))
            if slot == len(consts):
                consts.append(y)
            y = slot
        structure.append((node, fn, x, y))
    function = _inline_function(tuple(shapes.items()), tuple(structure), tuple(outputs),
                                len(consts))
    return None if function is None else (function, tuple(consts))


def tape_program(tape, program, degree: int):
    """(function, input nodes, output nodes, constants) of `inline_program` for
    one of an `expr._Tape`'s programs at `degree` (0 for floats), or None.  Its
    outputs are the nodes that a later program, or the tape's outputs, read."""
    computed = {node for node, *_ in program}
    inputs = dict.fromkeys(dep for node, *_ in program for dep in tape.deps[node]
                           if dep not in computed)
    width = degree + 1 if degree else 0
    shapes = {node: -width if tape.steps[node][0] is _k_pair else width for node in inputs}
    read = {dep for node, deps in enumerate(tape.deps) if node not in computed for dep in deps}
    read.update(node for nodes in tape.outputs for node in nodes)
    outputs = [node for node, *_ in program if node in read]
    inline = inline_program(program, shapes, outputs)
    return None if inline is None else (inline[0], list(shapes), outputs, inline[1])


def _div_refused(b: list) -> str:
    """The condition under which `jets.div_coeffs` refuses the divisor b, or b holds a nan."""
    scale = f"max({', '.join(f'abs({x})' for x in b)})" if len(b) > 1 else f"abs({b[0]})"
    return f"not abs({b[0]}) > {jets._DIV_REL_TOL!r} * {scale}"


@lru_cache(maxsize=256)
def _inline_function(inputs, program, outputs, n_consts):
    """The generated function of a program's structure (see `inline_program`),
    or None where a value would be wider than `INLINE_WIDTH`."""
    names = {}  # node -> a name (float), a list of names (jet), or two lists (pair)
    unpack = []
    for node, shape in inputs:
        if shape == 0:
            names[node] = f"x{node}"
            unpack.append(names[node])
        elif shape > 0:
            names[node] = [f"x{node}_{i}" for i in range(shape)]
            unpack.append(f"({', '.join(names[node])},)")
        else:
            names[node] = ([f"x{node}s_{i}" for i in range(-shape)],
                           [f"x{node}c_{i}" for i in range(-shape)])
            unpack.append("(({},), ({},))".format(*(", ".join(half) for half in names[node])))
    prologue = [f"{', '.join(unpack)}, = i"] if unpack else []
    k = [f"k{j}" for j in range(n_consts)]
    if k:
        prologue.append(f"{', '.join(k)}, = k")
    body = []  # per step: its lines, and the names they assign

    def fresh(node, width, tag=""):
        out = [f"x{node}{tag}_{i}" for i in range(width)]
        body[-1][1].extend(out)
        return out

    for node, fn, x, y in program:
        a = names[x]
        body.append(([], []))
        lines = body[-1][0]
        if isinstance(a, str):  # a float program
            out = names[node] = f"x{node}"
            body[-1][1].append(out)
            if fn is _f_call:
                lines.append(f"{out} = -{a}" if y is operator.neg else f"{out} = {_F_NAMES[y]}({a})")
            elif fn is _f_pow:
                lines.append(f"{out} = {a} ** {y}")
            else:
                lines.append(f"{out} = {a} {_F_SYMBOLS[fn]} {names[y]}")
            continue
        if fn is _k_lift:
            names[node] = [k[y]] + ["0.0"] * (len(a) - 1)
            continue
        if fn is _k_half:
            names[node] = a[y]
            continue
        if fn is _k_trunc:
            names[node] = a[: y + 1]
            continue
        if len(a) > INLINE_WIDTH:
            return None
        if fn is _k_pair:
            s, c = names[node] = (fresh(node, len(a), "s"), fresh(node, len(a), "c"))
            k_a = [None] + fresh(node, len(a) - 1, "k")  # the names of j a_j, j >= 1
            lines += jets.trig_lines(s, c, k_a, a, hyperbolic=y is sinh_cosh_coeffs)
            continue
        if fn is _k_tanh:
            a, b = a
        elif fn in _TWO_OPERANDS:
            b = names[y]
        out = names[node] = fresh(node, len(a) - 1 if fn is _k_d else len(a))
        if fn is _k_neg:
            lines += [f"{o} = -{p}" for o, p in zip(out, a)]
        elif fn is _k_add or fn is _k_sub:
            sign = "+" if fn is _k_add else "-"
            lines += [f"{o} = {p} {sign} {q}" for o, p, q in zip(out, a, b)]
        elif fn is _k_mul:
            lines += [f"{o} = {row}" for o, row in zip(out, jets.mul_rows(a, b, len(a) - 1))]
        elif fn is _k_scale:
            lines += [f"{o} = {p}*{k[y]} + 0.0" for o, p in zip(out, a)]
        elif fn is _k_d:
            lines += [f"{o} = {i + 1}*{a[i + 1]}" for i, o in enumerate(out)]
        elif fn is _k_sqrt:
            lines.append(f"if not {a[0]} > 0.0: return None")  # sqrt_coeffs' refusal, or a nan
            lines += jets.sqrt_lines(out, a, f"x{node}_two")
        else:  # _k_div, _k_tanh
            lines.append(f"if {_div_refused(b)}: return None")
            lines += jets.div_lines(out, a, b)

    def value(node):
        name = names[node]
        if isinstance(name, str):
            return name
        if isinstance(name, tuple):
            return "([{}], [{}])".format(*(", ".join(half) for half in name))
        return f"[{', '.join(name)}]"

    return _chained(prologue, body, f"({''.join(value(node) + ', ' for node in outputs)})")


# The compiler's memory grows with the source it compiles, about 100 bytes a
# character, and the largest recorded formulas run to 20,000 characters.  So
# a longer program is compiled as a chain of functions, each of at most this
# many characters, that hand on the values later ones read.
_PART_CHARS = 4000
_NAME = re.compile(r"\b(?:x\d+[sck]?_\w+|k\d+|x\d+)\b")


def _chained(prologue: list, body: list, result: str):
    """The function of `prologue` (which unpacks its arguments i and k), the
    steps' (lines, assigned names) of `body`, a test that every assigned
    value is finite, and `return result`; compiled in parts of at most
    `_PART_CHARS` characters."""
    parts = [[]]
    size = sum(map(len, prologue))
    for step in body:
        chars = sum(map(len, step[0]))
        if parts[-1] and size + chars > _PART_CHARS:
            parts.append([])
            size = 0
        parts[-1].append(step)
        size += chars
    sources = ["\n".join(line for lines, _ in part for line in lines) for part in parts]
    sources[-1] += "\n" + result
    defined = _NAME.findall("\n".join(prologue))
    later = set()
    handed = [None] * len(parts)  # what each part returns to the next ones
    for p in range(len(parts) - 1, 0, -1):
        later.update(_NAME.findall(sources[p]))
        handed[p - 1] = set(later)
    functions = []
    for p, part in enumerate(parts):
        lines = prologue if p == 0 else ([f"{', '.join(receive)}, = v"] if receive else [])
        lines = lines + [line for step_lines, _ in part for line in step_lines]
        assigned = [name for _, names in part for name in names]
        # a sum is finite only if every term is; summed in short chains
        for start in range(0, len(assigned), 64):
            chain = " + ".join(assigned[start:start + 64])
            lines.append(f"t = {chain}" if start == 0 else f"t = t + {chain}")
        if assigned:
            lines.append("if not isfinite(t): return None")
        defined += assigned
        if p == len(parts) - 1:
            lines.append(f"return {result}")
        else:
            receive = [name for name in dict.fromkeys(defined) if name in handed[p]]
            lines.append(f"return ({''.join(name + ', ' for name in receive)})")
        functions.append(jets.compile_lines("_program", "i, k" if p == 0 else "v", lines))
    if len(functions) == 1:
        return functions[0]
    first, rest = functions[0], functions[1:]

    def run(i, k):
        v = first(i, k)
        for part in rest:
            if v is None:
                return None
            v = part(v)
        return v
    return run
