"""Straight-line programs of Taylor-jet and float steps, as generated code.

A program is a sequence of steps (node, fn, x, y), `fn(values, x, y)`
computing node from node x and y (a second node, a constant, a function
or a name), in the format of the tape that `hypedal.expr` compiles a
curve's expression trees into (Griewank & Walther, "Evaluating
Derivatives", ch. 13); `hypedal.recording` records formulas written for
`Jet`s, such as the derived curves' and `classify_pedal`'s, and float
formulas, such as a derived curve's sample, into such programs.

A program runs as one generated Python function (`inline_program`), whose
steps do the floating-point operations of the step loop in its order, so
every value keeps its bits, the sign of zero included.  Where every value
has at most `INLINE_WIDTH` coefficients (floats, and jets of degree 0-3),
each step is emitted on local names from the line templates of the `jets`
kernels, or as the float operation of its step function.  Wider jets are
whole coefficient lists, and each step is one statement on them: a quotient,
a square root and a sin/cos or sinh/cosh pair call the kernel of their
order, bound when the code is generated; sums, scales, lifts, d/ds and
truncations run the float operations of their step functions.  Each value
has a bound on its degree, fixed when the code is generated (s's jet 1, a
lift 0, a product the sum of its operands', up to the order, and so on),
above which its coefficients are structural zeros: where the only input is
s, a product calls the kernel bound to its operands' bounds, which leaves
out only terms with a structural zero and gives the literal 0.0 above the
sum of the bounds; a program of given lists, whose bounds are their widths,
calls `jets.mul_coeffs`, which finds the left operand's degree at each call.

A refusal that a kernel would raise (a vanishing divisor, the square root
of a constant term that is not positive) makes the function return None,
and so does a value that is not finite.  The caller then runs the checked
path, the step loop or the `Jet` formula, and so returns or raises exactly
what it always did; it does the same when the function raises a domain
error, and lets any other exception propagate (`jets.answer`).  Narrow
programs test every value they compute.  Wide ones test their outputs,
every coefficient that a lift, a truncation or d/ds drops, and both halves
of a pair, once, at the end; each test sums them, and where the sum is
not finite, as finite values can make it, tests them one by one.  In a wide
program + - * / carry a nan or an infinity in coefficient k of an operand
into coefficient k of the result (a divisor with one in
its constant term is refused), so one of these is not finite whenever an
intermediate value is not.  A term left out has a factor that is an exact
zero while every value before it is finite, so leaving it out keeps each
sum's bits (each starts at +0.0); where it would be inf*0.0 in the step
loop, an earlier value has a coefficient that is not finite within its
bound, one that the program computes as the step loop does and carries to
what it tests.  The code is keyed by the program's structure, with its
constants as arguments, so a program recorded for another pedal point Q,
or read from another copy of a curve, reuses it.

The library imports this module with the first program it generates.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache

from . import decide, jets
from .expr import (
    _F_BINARY, _INLINE_WIDTH as INLINE_WIDTH, _TWO_OPERANDS, _f_call, _f_pow, _k_add, _k_div,
    _k_half, _k_lift, _k_mul, _k_neg, _k_pair, _k_scale, _k_sqrt, _k_sub, _k_tanh, _Steps,
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


# what a recorded float formula reads of a jet (`Jet.coeffs[k]`), and a
# scalar that it computes with, the steps that only recorded formulas take
def _k_coeff(v, x, k):
    return v[x][k]


def _f_const(v, x, c):
    return c


# the variable s as a jet of degree `degree`, (s, 1.0, 0.0, ...), from the
# float s: how a fused program feeds a curve's jet tape
def _k_var(v, x, degree):
    return [v[x], 1.0] + [0.0] * (degree - 1)


# -- generated functions -------------------------------------------------------

_EMITTED = {_k_neg, _k_add, _k_sub, _k_mul, _k_div, _k_lift, _k_scale, _k_sqrt, _k_pair, _k_half,
            _k_tanh, _k_d, _k_trunc, _k_coeff, _k_var, _f_call, _f_const, _f_pow,
            *_F_BINARY.values()}
_F_NAMES = {math.sqrt: "sqrt", math.sin: "sin", math.cos: "cos", math.sinh: "sinh",
            math.cosh: "cosh", math.tanh: "tanh", abs: "abs"}
_F_SYMBOLS = {fn: op for op, fn in _F_BINARY.items()}


def inline_program(program, shapes: dict, outputs, max_steps=_INLINE_STEPS):
    """(function, constants) running `program`, or None where it does not
    inline, or where it has more than `max_steps` steps.

    `shapes` maps each input node, in the order the function takes their
    values, to 0 (a float) or w (a jet of w coefficients); a jet at node 0
    is s's, (s, 1.0, 0.0, ...), as in every tape and recording.  function(values of the inputs, constants) returns the
    values of the `outputs` nodes, or None where the checked path must run.
    A constant that is not a float (a `recording.Param`) stands for the
    value given in its place.
    """
    if len(program) > max_steps:
        return None
    slots = {}  # a float's bits, or a `Param` -> argument index
    consts = []
    structure = []
    for node, fn, x, y in program:
        if fn not in _EMITTED:  # a step that raises, such as abs of a jet
            return None
        if fn is _k_lift or fn is _k_scale or fn is _f_const:
            slot = slots.setdefault(y.hex() if isinstance(y, float) else y, len(slots))
            if slot == len(consts):
                consts.append(y)
            y = slot
        structure.append((node, fn, x, y))
    function = _inline_function(tuple(shapes.items()), tuple(structure), tuple(outputs),
                                len(consts))
    return None if function is None else (function, tuple(consts))


def tape_program(tape, group: int, degree: int):
    """(function, constants, positions) of `inline_program` for group's whole
    program on an `expr._Tape` at `degree` (0 for floats): function((s or
    s's jet,), constants) returns the values of the group's trees, each at
    its position there (None: s itself); None where the program is empty or
    does not inline.  A float tape's constant nodes, which a `_TapePoint`
    starts with, are constant steps here."""
    program = tape.programs[group]
    if not program:
        return None
    roots = tape.outputs[group]
    if tape.floats:
        read = dict.fromkeys([*(dep for node, *_ in program for dep in tape.deps[node]), *roots])
        program = tuple((node, _f_const, 0, tape.init[node]) for node in read
                        if node and not tape.steps[node][0]) + program
    outputs = list(dict.fromkeys(node for node in roots if node))
    inline = inline_program(program, {0: degree + 1 if degree else 0}, outputs)
    if inline is None:
        return None
    return inline[0], inline[1], [outputs.index(node) if node else None for node in roots]


def fused_program(tapes, program, reads: dict, outputs, degree: int):
    """`inline_program` of a recorded `program` together with the steps of a
    curve's tapes (float tape, jet tape) that its inputs read, as one function
    of the float s; None where it does not inline.

    `reads` maps each input node of `program` to (group, None, i), component
    i of the group's floats, or (group, k, i), its jet truncated to order
    k <= `degree`, the degree the jet tape runs at.  The function takes (s,)
    and the constants: the recorded ones, such as Q, and the tapes'.  It is
    made wherever `program` and each tape program it reads inline alone, and
    where its jets are wider than `INLINE_WIDTH` coefficients, only if it
    reads no floats: a program of coefficient lists takes no float step.
    """
    floats = any(k is None for _, k, _ in reads.values())
    if len(program) > _INLINE_STEPS or floats and degree >= INLINE_WIDTH:
        return None
    fused = _Steps()  # node 0 is the float s
    nodes = [{0: 0}, {}]  # per tape: its node -> the fused node

    def node(t, n):
        if n not in nodes[t]:  # s of the jet tape, or a constant of the float tape
            nodes[t][n] = (fused._node(_k_var, 0, degree) if t
                           else fused._node(_f_const, 0, tapes[0].steps[n][2]))
        return nodes[t][n]

    for t, group in sorted({(int(k is not None), group) for group, k, _ in reads.values()}):
        steps = tapes[t].programs[group]
        if len(steps) > _INLINE_STEPS:
            return None
        for n, fn, x, y in steps:
            if fn not in _EMITTED:  # a step that always raises
                return None
            if n not in nodes[t]:
                nodes[t][n] = fused._node(fn, node(t, x), node(t, y) if fn in _TWO_OPERANDS else y)
    given = {}
    for n, (group, k, i) in reads.items():
        t = int(k is not None)
        value = node(t, tapes[t].outputs[group][i])
        given[n] = value if k is None or k == degree else fused._node(_k_trunc, value, k)
    for n, fn, x, y in program:
        given[n] = fused._node(fn, given[x], given[y] if fn in _TWO_OPERANDS else y)
    outputs = [given[n] for n in outputs]
    return inline_program(fused._program(outputs), {0: 0}, outputs, max_steps=math.inf)


@lru_cache(maxsize=256)
def _inline_function(inputs, program, outputs, n_consts):
    """The generated function of a program's structure (see `inline_program`);
    no step but s's jet (`_k_var`) widens a value, so its inputs and that
    step decide whether it is a wide one."""
    widths = [shape for _, shape in inputs]
    widths += [y + 1 for _, fn, _, y in program if fn is _k_var]
    if max(widths, default=0) > INLINE_WIDTH:
        return _list_function(inputs, program, outputs, n_consts)
    names = {}  # node -> a name (float), a list of names (jet), or two lists (pair)
    unpack = []
    for node, shape in inputs:
        if shape == 0:
            names[node] = f"x{node}"
            unpack.append(names[node])
        else:
            names[node] = [f"x{node}_{i}" for i in range(shape)]
            unpack.append(f"({', '.join(names[node])},)")
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
        if fn is _k_var:  # the float s, then literals
            names[node] = [a, "1.0"] + ["0.0"] * (y - 1)
            continue
        if isinstance(a, str):  # a float program
            if fn is _f_const:
                names[node] = k[y]
                continue
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
        if fn is _k_half or fn is _k_coeff:
            names[node] = a[y]
            continue
        if fn is _k_trunc:
            names[node] = a[: y + 1]
            continue
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
            lines.append(f"if {decide.SQRT_REFUSED.format(a0=a[0])}: return None")
            lines += jets.sqrt_lines(out, a, f"x{node}_two")
        else:  # _k_div, _k_tanh
            scale = f"max({', '.join(f'abs({x})' for x in b)})" if len(b) > 1 else f"abs({b[0]})"
            lines.append(f"if {decide.DIVISOR_REFUSED.format(b0=b[0], scale=scale)}: return None")
            lines += jets.div_lines(out, a, b)

    def value(node):
        name = names[node]
        if isinstance(name, str):
            return name
        return f"[{', '.join(name)}]"

    return _chained(prologue, body, f"({''.join(value(node) + ', ' for node in outputs)})")


def _list_function(inputs, program, outputs, n_consts):
    """The generated function of a program of jets wider than `INLINE_WIDTH`,
    each value a whole coefficient list (see the module docstring), or None
    where a step is not one on jets.

    Each value has a bound on its degree, fixed here: above it every
    coefficient is a structural zero.  Where the only input is s (node 0,
    the float or its jet (s, 1.0, 0.0, ...)), each product calls the kernel
    of its operands' bounds; given lists have no bound below their width,
    so their products call `jets.mul_coeffs`, which finds a's degree."""
    names = {node: f"x{node}" for node, _ in inputs}
    widths = dict(inputs)
    degrees = {node: 1 if node == 0 else shape - 1 for node, shape in inputs}
    from_s = list(names) == [0]
    given = set(names)  # the inputs, which callers give finite
    prologue = [f"{''.join(name + ', ' for name in names.values())}= i"]
    if n_consts:
        prologue.append(f"{''.join(f'k{j}, ' for j in range(n_consts))}= k")
    bound = {"mul": jets.mul_coeffs}
    body = []
    # the tested coefficients: (their sum, the sequence of them)
    tested = [(f"sum(x{node}, 0.0)", f"x{node}") for node in dict.fromkeys(outputs)
              if node not in given]
    divisors = set()  # the values whose refusal is tested

    def kernel(name, make, *key):
        name += "_".join(map(str, key))
        bound[name] = make(*key)
        return name

    for node, fn, x, y in program:
        a = names[x]
        n = widths[x]
        da = degrees[x]
        out = names[node] = f"x{node}"
        widths[node] = n
        degrees[node] = da
        lines = []
        if fn is _k_var:
            value = f"[{a}, 1.0] + [0.0] * {y - 1}"
            widths[node] = y + 1
            degrees[node] = 1
        elif fn is _k_neg:
            value = f"[-p for p in {a}]"
        elif fn is _k_add or fn is _k_sub:
            value = f"[p {'+' if fn is _k_add else '-'} q for p, q in zip({a}, {names[y]})]"
            degrees[node] = max(da, degrees[y])
        elif fn is _k_mul:
            db = degrees[y]
            degrees[node] = min(n - 1, da + db)
            product = kernel("mul", jets._bound_mul_kernel, n - 1, da, db) if from_s else "mul"
            value = f"{product}({a}, {names[y]})"
        elif fn is _k_scale:
            value = f"[p*k{y} + 0.0 for p in {a}]"
        elif fn is _k_lift:
            value = f"[k{y}] + [0.0] * {n - 1}"
            degrees[node] = 0
            if x not in given:  # the step loop checks what the lift drops
                tested.append((f"sum({a}, 0.0)", a))
        elif fn is _k_d or fn is _k_trunc:
            value = f"[j*{a}[j] for j in range(1, {n})]" if fn is _k_d else f"{a}[:{y + 1}]"
            widths[node] = n - 1 if fn is _k_d else y + 1
            degrees[node] = max(da - 1, 0) if fn is _k_d else min(da, y)
            if x not in given:
                tested.append((f"{a}[0]", f"{a}[:1]") if fn is _k_d
                              else (f"sum({a}[{y + 1}:], 0.0)", f"{a}[{y + 1}:]"))
        elif fn is _k_half:
            value = f"{a}[{y}]"
        elif fn is _k_pair:
            hyperbolic = y is sinh_cosh_coeffs
            trig = jets._sinh_cosh_kernel if hyperbolic else jets._sin_cos_kernel
            value = f"{kernel('sinh_cosh' if hyperbolic else 'sin_cos', trig, n - 1)}({a})"
            tested += [(f"sum({out}[{j}], 0.0)", f"{out}[{j}]") for j in (0, 1)]
            degrees[node] = n - 1
        elif fn is _k_sqrt:
            lines.append(f"if {decide.SQRT_REFUSED.format(a0=f'{a}[0]')}: return None")
            value = f"{kernel('sqrt', jets._sqrt_kernel, n - 1)}({a})"
            degrees[node] = n - 1
        elif fn is _k_div or fn is _k_tanh:
            a, b = (f"{a}[0]", f"{a}[1]") if fn is _k_tanh else (a, names[y])
            if b not in divisors:
                divisors.add(b)
                refused = decide.DIVISOR_REFUSED.format(b0=f"{b}[0]", scale=f"max(map(abs, {b}))")
                lines.append(f"if {refused}: return None")
            value = f"{kernel('div', jets._div_kernel, n - 1)}({a}, {b})"
            degrees[node] = n - 1
        else:  # a float step
            return None
        lines.append(f"{out} = {value}")
        body.append((lines, []))
    if tested:
        # as in `_chained`, each coefficient is tested only where the sum is not finite
        total = " + ".join(total for total, _ in tested)
        each = f"all(isfinite(c) for v in ({''.join(v + ', ' for _, v in tested)}) for c in v)"
        body.append(([f"if not isfinite({total}) and not {each}: return None"], []))
    return _chained(prologue, body, f"({''.join(names[node] + ', ' for node in outputs)})", bound)


# The compiler's memory grows with the source it compiles, about 100 bytes a
# character, and the largest recorded formulas run to 20,000 characters.  So
# a longer program is compiled as a chain of functions, each of at most this
# many characters, that hand on the values later ones read.
_PART_CHARS = 4000
_NAME = re.compile(r"\b(?:x\d+[sck]?_\w+|k\d+|x\d+)\b")


def _chained(prologue: list, body: list, result: str, bound: dict | None = None):
    """The function of `prologue` (which unpacks its arguments i and k), the
    steps' (lines, assigned floats) of `body`, a test that every assigned
    float is finite, and `return result`, calling the functions of `bound`;
    compiled in parts of at most `_PART_CHARS` characters."""
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
        # a sum is finite only if every term is, summed in short chains; a sum
        # of finite terms may overflow, and only then is each term tested
        for start in range(0, len(assigned), 64):
            chain = " + ".join(assigned[start:start + 64])
            lines.append(f"t = {chain}" if start == 0 else f"t = t + {chain}")
        if assigned:
            lines.append(f"if not isfinite(t) and not all(map(isfinite, "
                         f"({''.join(name + ', ' for name in assigned)}))): return None")
        defined += _NAME.findall(sources[p])
        if p == len(parts) - 1:
            lines.append(f"return {result}")
        else:
            receive = [name for name in dict.fromkeys(defined) if name in handed[p]]
            lines.append(f"return ({''.join(name + ', ' for name in receive)})")
        functions.append(jets.compile_lines("_program", "i, k" if p == 0 else "v", lines, bound))
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
