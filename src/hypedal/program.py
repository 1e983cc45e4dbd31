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
every value keeps its bits, the sign of zero included.  One analysis of its
steps (`_analysis`) applies each rule below once, and one of two emitters
writes the code from it.  Where every value has at most `INLINE_WIDTH`
coefficients (floats, and jets of degree 0-3), `_narrow_function` writes
each step on local names, one a coefficient, from the line templates of the
`jets` kernels, or as the float operation of its step function.  Wider jets
are whole coefficient lists (`_list_function`): a quotient, a square root
and a sin/cos or sinh/cosh pair call the kernel of their order, bound when
the code is generated, and every other step runs the float operations of
its step function.

Every function generated from a curve's tape steps is a read of them
(`tape_read`): one function of the float s, of the tape steps its values
need and their truncations, which hands the values on in the order asked
and states each jet's bound on its degree, as the analysis gives it.  A
point or a jet of r or v is a read of its three values
(`ParametricCurve._tape_values`), an auto-dual read calls r's
(`frontal.auto_dual_read`), and a recorded formula of a curve's r and v
runs on a read of its inputs.  The recorded function is generated from the
recording alone, on given lists, and keyed by its structure, so a process
compiles it once for every curve; a function of jets wider than
`INLINE_WIDTH` coefficients is keyed by the read's bounds too, so that its
products call the kernels bound to them.  Tape code and recorded code are
never one function.

The analysis gives each jet value a bound on its degree (`_degree`: s's jet
1, a lift 0, a product the sum of its operands', up to the order, and so
on), above which its coefficients are structural zeros.  A given list's
bound is its width, unless the caller states a lower one (`inline_program`'s
`bounds`).  A product leaves out the terms with a factor above its bound and
is the literal 0.0 above the sum of the bounds.  A term left out has a
factor that is an exact zero while every value is finite, so leaving it out
keeps each sum's bits: each starts at +0.0, so it is never -0.0, and adding
+-0.0 leaves it as it is.  So a function computes the same bits on given
lists whether it is given their bounds or not.  Every other step is emitted
whole, as a structural zero can be -0.0 after a negation.  Narrow code
writes a product's rows without the terms left out; wide code calls the
kernel bound to its operands' bounds (`jets._bound_mul_kernel`).

A value that the function computes and that is not finite makes it
return None, and so does a plain refusal, one that a kernel would raise (a
vanishing divisor, the square root of a constant term that is not
positive).  The caller then runs the checked path, the step loop or the
`Jet` formula, and so returns or raises exactly what it always did; it
does the same when the function raises a domain error, and lets any other
exception propagate (`jets.answer`).  The analysis records what each step
keeps, if not finite, of each operand in the value it computes (`_kept`),
and only what no step keeps is tested: the outputs, what a lift, a
truncation, d/ds or a coefficient read drops, the halves of a pair, a value
that no step reads, and the float operands whose nan or infinity can vanish
from the result, a divisor (x/inf is 0.0), the argument of tanh (tanh(inf)
is 1.0) and the base of x ** n for n <= 0 (inf ** 0 is 1.0).  Every other
step keeps all of its operands: + - *, negation, the square root, sin, cos,
sinh, cosh, abs and a quotient's numerator keep a nan or an infinity in
their result, and a jet divisor or square root with one is refused.  A term
that a product leaves out would be inf*0.0 in the step loop only where a
coefficient within an operand's bound is not finite, and that one is kept
or tested.  The analysis also records which refusals are tested: every
square root's, and a divisor's where it first divides.  Narrow code tests
each coefficient that no step keeps, at the end of the part of the function
that computes it; a lift, a half, a truncation, a coefficient read and s's
jet write no line there and share their operands' names, so what a step
keeps of them it keeps of their operands.  Wide code tests each list, half
of a pair and run of coefficients that d/ds or truncations drop that no
step keeps, once, at the end.  Each test sums the values, and where the sum
is not finite, as finite values can make it, tests them one by one.

A function that ends early tests that every value computed so far is
finite: each that no step so far keeps.  A refusal by a step of a recorded
function (`inline_program`'s `final`) is final where that test holds and
the refused operand is finite too: the function returns the error the
kernel raises (`jets.refused_division`, `jets.refused_sqrt`), and its
callers raise it.  The formula would raise just that, as it computes the
same values in the same order, a recording listing its steps so, and tests
each `Jet` as it makes it.  Where the test fails the refusal is plain.  So
is every refusal of a tape's step, alone or in a read, which runs at the
highest degree any input reads, where the checked path may read a lower
degree and pass.  A read tests every value it computes, its outputs
included, so a recorded function runs only on finite values, and its test
of every value so far covers what the formula read of the tapes.

An evolute's recorded formula takes three steps of its own: its branch
sign, its upper-sheet sign, each a float 1.0 or -1.0 read from constant
terms, and a flip, which multiplies each coefficient by such a sign and so
keeps every bit a negation gives.  A sign is finite by construction and
never tested; it keeps no operand, so its operands are tested unless
another step keeps them.  A flip keeps its operand.  Where the branch
sign is degenerate (0.0), the function ends there: it returns (0.0,) where
every value so far is finite, and None where one is not.  A function
compiled in parts hands its values on as a list, so a part that ends it
returns what it ends with.

The code is keyed by the program's structure, with its constants as
arguments, so a program recorded for another pedal point Q, or read from
another copy of a curve, reuses it.

The library imports this module with the first program it generates.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache, partial

from . import decide, jets
from .expr import (
    _F_BINARY, _INLINE_WIDTH as INLINE_WIDTH, _TWO_OPERANDS, _f_call, _f_pow, _k_add, _k_div,
    _k_half, _k_lift, _k_mul, _k_neg, _k_pair, _k_sqrt, _k_sub, _k_tanh, _Steps,
)
from .jets import sinh_cosh_coeffs

_INLINE_STEPS = 400  # longer programs (long power chains) keep the step loop


# what `Jet.d_ds` and `Jet.truncate` compute, the steps that only recorded
# formulas take
def _k_d(v, x, y):
    return jets.derivative_coeffs(v[x])


def _k_trunc(v, x, order):
    return v[x][: order + 1]


# what a recorded float formula reads of a jet (`Jet.coeffs[k]`), and a
# scalar that it computes with, the steps that only recorded formulas take
def _k_coeff(v, x, k):
    return v[x][k]


def _f_const(v, x, c):
    return c


# the evolute's signs, the steps that only its recorded formula takes:
# - `decide.branch_sign` of m^2 (node x) and ell^2 (node y), from their
#   constant terms, whose 0.0, degenerate, ends the program;
# - `decide.upper_sheet` of a branch sign (x) and the point's x1 (y), from
#   x1's constant term;
# - a jet flipped by such a sign, each coefficient times +-1.0, which keeps
#   the sign of zero as a negation does (a product's + 0.0 would not).
def _f_branch(v, x, y):
    return decide.branch_sign(_lead(v[x]), _lead(v[y]))


def _f_sheet(v, x, y):
    return decide.upper_sheet(v[x], _lead(v[y]))


def _k_flip(v, x, y):
    return [a * v[y] for a in v[x]]


def _lead(value):
    """A float, or the constant term of a jet."""
    return value if isinstance(value, float) else value[0]


_TWO_OPERANDS.update((_f_branch, _f_sheet, _k_flip))  # the node operands of `_Steps`


# the variable s as a jet of degree `degree`, (s, 1.0, 0.0, ...), from the
# float s: how a read feeds a curve's jet tape
def _k_var(v, x, degree):
    return [v[x], 1.0] + [0.0] * (degree - 1)


# -- generated functions -------------------------------------------------------

_EMITTED = {_k_neg, _k_add, _k_sub, _k_mul, _k_div, _k_lift, _k_sqrt, _k_pair, _k_half, _k_tanh,
            _k_d, _k_trunc, _k_coeff, _k_var, _k_flip, _f_call, _f_const, _f_pow, _f_branch,
            _f_sheet, *_F_BINARY.values()}
_F_NAMES = {math.sqrt: "sqrt", math.sin: "sin", math.cos: "cos", math.sinh: "sinh",
            math.cosh: "cosh", math.tanh: "tanh", abs: "abs"}
_F_SYMBOLS = {fn: op for op, fn in _F_BINARY.items()}


def inline_program(program, shapes: dict, outputs, final=False, bounds=None):
    """(function, constants) running `program`, or None where it does not
    inline, or where it has more than `_INLINE_STEPS` steps.

    `shapes` maps each input node, in the order the function takes their
    values, to 0 (a float) or w (a jet of w coefficients).  `bounds`,
    in the same order, is each input jet's bound on its degree, or None for
    its width's (see the module docstring).
    function(values of the inputs, constants) returns the values of the
    `outputs` nodes, or None where the checked path must run, or, where
    `final` (a recorded function), the error of a final refusal.  A
    constant that is not a float (a `recording.Param`) stands for the value
    given in its place.
    """
    if len(program) > _INLINE_STEPS:
        return None
    inline = _inlined(program, shapes, outputs, final, bounds)
    return None if inline is None else inline[:2]


def _inlined(program, shapes: dict, outputs, final, bounds):
    """`inline_program`'s (function, constants), with each output's bound on
    its degree (None for a float) from the analysis the function is written from."""
    slots = {}  # a float's bits, or a `Param` -> argument index
    consts = []
    structure = []
    for node, fn, x, y in program:
        if fn not in _EMITTED:  # a step that raises, such as abs of a jet
            return None
        if fn is _k_lift or fn is _f_const:
            slot = slots.setdefault(y.hex() if isinstance(y, float) else y, len(slots))
            if slot == len(consts):
                consts.append(y)
            y = slot
        structure.append((node, fn, x, y))
    made = _inline_function(tuple(shapes.items()), tuple(structure), tuple(outputs),
                            len(consts), final, bounds)
    return None if made is None else (made[0], tuple(consts), made[1])


def tape_read(tapes, reads: tuple):
    """(read, bounds): read(s, sign_at) -> the values of `reads` at the float
    s, in order, from a curve's tapes (`ParametricCurve._tape_set`), sign_at
    unread: each (group, None, i) is component i of the group's floats,
    (group, k, i) its jet truncated to order k, the jet tape run at the
    highest order read, at least 1; bounds: each value's bound on its
    degree, from the `_analysis` that read is written from, None for a float.
    Generated once per `reads` and kept with the tapes; None where a tape
    program it reads is longer than `_INLINE_STEPS` steps or does not
    inline.  A read is None where s or any value it computes is not finite,
    or where a tape step refuses: plainly (see the module docstring)."""
    key = ("tape read", reads)
    kept = tapes[2]
    if key not in kept:
        kept[key] = _tape_read(tapes, reads)
    return kept[key]


def _tape_read(tapes, reads: tuple):
    """`tape_read`, made: the steps of the tapes that `reads` read, node 0 the
    float s, generated as one function."""
    degree = max([1] + [k for _, k, _ in reads if k is not None])
    steps = _Steps()
    nodes = [{0: 0}, {}]  # per tape (float, jet): its node -> the node of steps

    def node(t, n):
        if n not in nodes[t]:  # s of the jet tape, or a constant of the float tape
            nodes[t][n] = (steps._node(_k_var, 0, degree) if t
                           else steps._node(_f_const, 0, tapes[0].steps[n][2]))
        return nodes[t][n]

    for t, group in sorted({(int(k is not None), group) for group, k, _ in reads}):
        program = tapes[t].programs[group]
        if len(program) > _INLINE_STEPS:
            return None
        for n, fn, x, y in program:
            if fn not in _EMITTED:  # a step that always raises
                return None
            if n not in nodes[t]:
                x, y = node(t, x), node(t, y) if fn in _TWO_OPERANDS else y
                nodes[t][n] = steps._node(fn, x, y)
    values = []
    for group, k, i in reads:
        t = int(k is not None)
        value = node(t, tapes[t].outputs[group][i])
        values.append(steps._node(_k_trunc, value, k) if t and k < degree else value)
    program = tuple(sorted(steps._program(values)))
    inline = _inlined(program, {0: 0}, values, False, None)
    return None if inline is None else (partial(_read, *inline[:2]), inline[2])


def _read(function, consts, s, sign_at):
    """`tape_read`'s read: function((s,), consts), None where s is not finite."""
    s = float(s)
    return function((s,), consts) if math.isfinite(s) else None


def _degree(fn, n, da, db, y):
    """The bound on the degree of the jet value of step fn, above which its
    coefficients are structural zeros: da and db are its operands' bounds,
    n their order, y the step's argument."""
    if fn is _k_var:
        return 1
    if fn is _k_lift:
        return 0
    if fn is _k_add or fn is _k_sub:
        return max(da, db)
    if fn is _k_mul:
        return min(n, da + db)
    if fn is _k_d:
        return max(da - 1, 0)
    if fn is _k_trunc:
        return min(da, y)
    if fn is _k_div or fn is _k_tanh or fn is _k_sqrt or fn is _k_pair:
        return n
    return da  # a negation, a half of a pair, a flip


_FLOAT_STEPS = {_f_call, _f_pow, _f_const, _f_branch, _f_sheet, _k_coeff, *_F_BINARY.values()}
_ALL = slice(None)


def _kept(fn, y):
    """What step fn keeps, if not finite, in the value it computes of its
    operand x and, where it reads one, of node y: a slice of the coefficients
    (a pair's: of its halves), or None for nothing."""
    if fn is _k_d:
        return slice(1, None), None  # all but a_0
    if fn is _k_trunc:
        return slice(y + 1), None
    if fn is _k_half or fn is _k_coeff:
        return slice(y, y + 1), None
    if (fn in (_k_var, _k_lift, _f_const, _f_branch, _f_sheet) or (fn is _f_call and y is math.tanh)
            or (fn is _f_pow and y <= 0)):  # tanh(inf) is 1.0, inf ** 0 is 1.0, inf ** -1 is 0.0
        return None, None
    return _ALL, None if fn is _F_BINARY["/"] else _ALL  # x / inf is 0.0


def _analysis(inputs, program, bounds):
    """(widths, degrees, keeps, refusals) of a program on `inputs`, which both
    emitters write its code from: per node its number of coefficients (a
    pair's: each half's; 0 for a float) and a jet's bound on its degree; per
    step ((operand, `_kept` slice or None), ...), and whether it tests its
    refusal, a divisor's where it first divides (a lift of a constant to a
    width, and a pair's half, being one divisor wherever they are)."""
    widths = dict(inputs)
    degrees = {node: shape - 1 if bound is None else bound
               for (node, shape), bound in zip(inputs, bounds or [None] * len(inputs)) if shape}
    keeps, refusals, divisors, same = [], [], set(), {}
    for node, fn, x, y in program:
        two = fn in _TWO_OPERANDS
        n = widths[x]
        kx, ky = _kept(fn, y)
        keeps.append(((x, kx), (y, ky)) if two else ((x, kx),))
        divisor = (x, 1) if fn is _k_tanh else same.get(y, y) if fn is _k_div else None
        refusals.append(fn is _k_sqrt or divisor is not None and divisor not in divisors)
        divisors.add(divisor)
        if fn is _k_lift or fn is _k_half:
            same[node] = ("lift", y, n) if fn is _k_lift else (x, y)
        if fn in _FLOAT_STEPS:
            widths[node] = 0
            continue
        widths[node] = y + 1 if fn is _k_var or fn is _k_trunc else n - 1 if fn is _k_d else n
        degrees[node] = _degree(fn, n - 1, degrees.get(x), degrees.get(y) if two else None, y)
    return widths, degrees, keeps, refusals


def _keeping(program, keeps, keep):
    """Each step of `program`, calling keep(node, slice) after it for what it
    keeps of each operand, so that at each step the steps before it are kept."""
    for step, parts in zip(program, keeps):
        yield step
        for node, part in parts:
            if part is not None:
                keep(node, part)


def _refusal(fn, lead: str, scale: str, finite, final) -> str:
    """The line that tests a step's refusal, of its operand's constant term
    `lead` (a divisor's, with its `scale`); where `final`, it returns its error
    if `finite()`, the test of every value so far and that operand, holds."""
    if fn is _k_sqrt:
        refused, error = decide.SQRT_REFUSED.format(a0=lead), f"refused_sqrt({lead})"
    else:
        refused, error = decide.DIVISOR_REFUSED.format(b0=lead, scale=scale), "refused_division()"
    return f"if {refused}: return {_ended(error, finite()) if final else 'None'}"


# steps that narrow code stores in their operands' names, constants or literals
_VIEWS = {_k_var, _k_lift, _k_half, _k_trunc, _k_coeff, _f_const}


@lru_cache(maxsize=256)
def _inline_function(inputs, program, outputs, n_consts, final, bounds):
    """(function, each output's bound on its degree, None for a float): the
    generated function of a program's structure (see `inline_program`),
    written from its `_analysis` on local names (`_narrow_function`), or on
    lists where a value has more than `INLINE_WIDTH` coefficients
    (`_list_function`); None where it does not inline."""
    analysis = _analysis(inputs, program, bounds)
    emit = _list_function if max(analysis[0].values(), default=0) > INLINE_WIDTH else _narrow_function
    function = emit(inputs, program, outputs, n_consts, final, analysis)
    return None if function is None else (function, tuple(map(analysis[1].get, outputs)))


def _narrow_function(inputs, program, outputs, n_consts, final, analysis):
    """The generated function of a program whose values have at most
    `INLINE_WIDTH` coefficients, on local names, one a coefficient."""
    widths, degrees, keeps, refusals = analysis
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
    body = []  # per step: its lines, and the names it assigns within its bound
    kept = set()  # the names that a step keeps

    def units(node, part):  # the names of a part of a value
        name = names[node]
        if isinstance(name, str):
            return [name]
        return name[part] if isinstance(name[0], str) else [c for half in name[part] for c in half]

    def keep(node, part):
        kept.update(units(node, part))

    def finite_so_far(*operands):
        each = [name for _, assigned in body for name in assigned if name not in kept]
        return _finite(each + [name for name in operands if name[0] == "x"], False)

    keeps = [() if fn in _VIEWS else parts for (_, fn, _, _), parts in zip(program, keeps)]
    for i, (node, fn, x, y) in enumerate(_keeping(program, keeps, keep)):
        a = names[x]
        out = names[node] = f"x{node}"
        lines = []
        if fn is _f_branch or fn is _f_sheet:  # +-1.0, so never tested
            p, q = (c if isinstance(c, str) else c[0] for c in (a, names[y]))
            body.append((_sign_lines(fn, out, p, q, finite_so_far()), []))
            continue
        if fn is _k_var:  # the float s, then literals
            names[node] = [a, "1.0"] + ["0.0"] * (y - 1)
        elif fn is _k_lift:
            names[node] = [k[y]] + ["0.0"] * (len(a) - 1)
        elif fn in _VIEWS:
            names[node] = k[y] if fn is _f_const else a[:y + 1] if fn is _k_trunc else a[y]
        elif fn is _f_call:
            lines.append(f"{out} = -{a}" if y is operator.neg else f"{out} = {_F_NAMES[y]}({a})")
        elif fn in _FLOAT_STEPS:
            lines.append(f"{out} = {a} ** {y}" if fn is _f_pow
                         else f"{out} = {a} {_F_SYMBOLS[fn]} {names[y]}")
        if fn in _FLOAT_STEPS or fn in _VIEWS:
            body.append((lines, [out] if lines else []))
            continue
        d = degrees[node]
        out = names[node] = [f"x{node}_{j}" for j in range(widths[node])]
        if fn is _k_pair:
            s, c = names[node] = tuple([f"x{node}{half}_{i}" for i in range(len(a))]
                                       for half in "sc")
            k_a = [None] + [f"x{node}k_{j}" for j in range(len(a) - 1)]  # the names of j a_j
            lines += jets.trig_lines(s, c, k_a, a, hyperbolic=y is sinh_cosh_coeffs)
        elif fn is _k_mul:  # rows above the bound are the literal 0.0
            out[d + 1:] = ["0.0"] * (len(a) - 1 - d)
            rows = jets.mul_rows(a, names[y], degrees[x], degrees[y])
            lines += [f"{o} = {row}" for o, row in zip(out[:d + 1], rows)]
        elif fn is _k_flip:  # by a sign, +-1.0
            lines += [f"{o} = {c} * {names[y]}" for o, c in zip(out, a)]
        elif fn is _k_neg:
            lines += [f"{o} = -{p}" for o, p in zip(out, a)]
        elif fn is _k_add or fn is _k_sub:
            sign = "+" if fn is _k_add else "-"
            lines += [f"{o} = {p} {sign} {q}" for o, p, q in zip(out, a, names[y])]
        elif fn is _k_d:
            lines += [f"{o} = {j + 1}*{a[j + 1]}" for j, o in enumerate(out)]
        elif fn is _k_sqrt:
            if refusals[i]:
                lines.append(_refusal(fn, a[0], "", lambda: finite_so_far(*a), final))
            lines += jets.sqrt_lines(out, a, f"x{node}_two")
        else:  # _k_div, _k_tanh
            a, b = a if fn is _k_tanh else (a, names[y])
            if refusals[i]:
                scale = f"max({', '.join(f'abs({c})' for c in b)})" if b[1:] else f"abs({b[0]})"
                lines.append(_refusal(fn, b[0], scale, lambda: finite_so_far(*b), final))
            lines += jets.div_lines(out, a, b)
        body.append((lines, units(node, slice(d + 1))))

    def value(node):
        name = names[node]
        if isinstance(name, str):
            return name
        return f"[{', '.join(name)}]"

    body = [(lines, [name for name in assigned if name not in kept]) for lines, assigned in body]
    return _chained(prologue, body, f"({_listed(map(value, outputs))})")


def _list_function(inputs, program, outputs, n_consts, final, analysis):
    """The generated function of a program of jets wider than `INLINE_WIDTH`,
    each value a whole coefficient list (see the module docstring), or None
    where a step is not one on jets: each product calls the kernel bound to
    its operands' bounds (`analysis`'s degrees)."""
    widths, degrees, keeps, refusals = analysis
    names = {node: f"x{node}" for node, _ in inputs}
    given = set(names)  # the inputs, which callers give finite, and s's jet (a read's s is)
    prologue = [f"{_listed(names.values())}= i"]
    if n_consts:
        prologue.append(f"{''.join(f'k{j}, ' for j in range(n_consts))}= k")
    bound = {}
    body = []
    pairs = set()  # the nodes of sin/cos and sinh/cosh pairs
    kept = {}  # node -> the coefficients (a pair's: halves) of it that a step keeps

    def kernel(name, make, *key):
        name += "_".join(map(str, key))
        bound[name] = make(*key)
        return name

    def keep(node, part):
        kept.setdefault(node, set()).update(range(2 if node in pairs else widths[node])[part])

    def untested(first=()):
        """(the sum, the sequence) of each part that no step so far keeps of
        the nodes `first`, then of every other value computed so far: a list,
        a half of a pair, or the coefficients that d/ds or truncations drop,
        which a prefix and a suffix kept leave in one run."""
        parts = []
        for node in dict.fromkeys([*first, *names]):
            if node in given or widths[node] == 0:  # a sign, +-1.0
                continue
            kept_of = kept.get(node, ())
            if node in pairs:
                parts += [(f"sum(x{node}[{j}], 0.0)", f"x{node}[{j}]") for j in (0, 1)
                          if j not in kept_of]
                continue
            rest = [j for j in range(widths[node]) if j not in kept_of]
            if len(rest) == widths[node]:
                parts.append((f"sum(x{node}, 0.0)", f"x{node}"))
            elif len(rest) == 1:
                parts.append((f"x{node}[{rest[0]}]", f"x{node}[{rest[0]}:{rest[0] + 1}]"))
            elif rest:
                run = f"x{node}[{rest[0]}:{rest[-1] + 1}]"
                parts.append((f"sum({run}, 0.0)", run))
        return parts

    def finite_so_far(*operands):
        return _finite([*(v for _, v in untested()), *operands], True)

    for i, (node, fn, x, y) in enumerate(_keeping(program, keeps, keep)):
        a = names[x]
        out = f"x{node}"
        n = widths[x]
        lines = []
        if fn is _f_branch or fn is _f_sheet:
            names[node] = out
            p, q = (c if widths[v] == 0 else f"{c}[0]" for v, c in ((x, a), (y, names[y])))
            body.append((_sign_lines(fn, out, p, q, finite_so_far()), []))
            continue
        if fn is _k_flip:  # by a sign, +-1.0
            value = f"[p * {names[y]} for p in {a}]"
        elif fn is _k_var:
            value = f"[{a}, 1.0] + [0.0] * {y - 1}"
            given.add(node)
        elif fn is _k_neg:
            value = f"[-p for p in {a}]"
        elif fn is _k_add or fn is _k_sub:
            value = f"[p {'+' if fn is _k_add else '-'} q for p, q in zip({a}, {names[y]})]"
        elif fn is _k_mul:
            mul = kernel("mul", jets._bound_mul_kernel, n - 1, degrees[x], degrees[y])
            value = f"{mul}({a}, {names[y]})"
        elif fn is _k_lift:
            value = f"[k{y}] + [0.0] * {n - 1}"
        elif fn is _k_d:
            value = f"[j*{a}[j] for j in range(1, {n})]"
        elif fn is _k_trunc:
            value = f"{a}[:{y + 1}]"
        elif fn is _k_half:
            value = f"{a}[{y}]"
        elif fn is _k_pair:
            hyperbolic = y is sinh_cosh_coeffs
            trig = jets._sinh_cosh_kernel if hyperbolic else jets._sin_cos_kernel
            value = f"{kernel('sinh_cosh' if hyperbolic else 'sin_cos', trig, n - 1)}({a})"
            pairs.add(node)
        elif fn is _k_sqrt:
            if refusals[i]:
                lines.append(_refusal(fn, f"{a}[0]", "", lambda: finite_so_far(a), final))
            value = f"{kernel('sqrt', jets._sqrt_kernel, n - 1)}({a})"
        elif fn is _k_div or fn is _k_tanh:
            a, b = (f"{a}[0]", f"{a}[1]") if fn is _k_tanh else (a, names[y])
            if refusals[i]:
                lines.append(_refusal(fn, f"{b}[0]", f"max(map(abs, {b}))",
                                      lambda: finite_so_far(b), final))
            value = f"{kernel('div', jets._div_kernel, n - 1)}({a}, {b})"
        else:  # a float step
            return None
        # named only now, so that its own refusal's test reads the values before it
        names[node] = out
        lines.append(f"{out} = {value}")
        body.append((lines, []))
    tested = untested(outputs)
    if tested:
        # as in `_chained`, each coefficient is tested only where the sum is not finite
        total = " + ".join(total for total, _ in tested)
        body.append(([f"if not isfinite({total}) and not {_finite([v for _, v in tested], True)}: "
                      f"return None"], []))
    return _chained(prologue, body, f"({_listed(names[node] for node in outputs)})", bound)


def _listed(sources) -> str:
    """The items of a tuple display: "a, b, "."""
    return "".join(source + ", " for source in sources)


def _finite(sources: list, lists: bool) -> str:
    """The test that each of the `sources` is finite: of floats, or where
    `lists` of coefficient lists; "" where there is none."""
    each = _listed(dict.fromkeys(sources))
    if not each:
        return ""
    return (f"all(isfinite(c) for v in ({each}) for c in v)" if lists
            else f"all(map(isfinite, ({each})))")


def _ended(value: str, finite: str) -> str:
    """What a function that ends early returns: `value` if the test `finite`
    (if any) of the values before holds, and None if not."""
    return f"{value} if {finite} else None" if finite else value


def _sign_lines(fn, out: str, p: str, q: str, finite: str) -> list:
    """The lines of a sign step, `_f_branch` or `_f_sheet`, on the sources p and
    q of what it reads; where the branch sign is 0.0, degenerate, the function
    ends with (0.0,) (`_ended`)."""
    if fn is _f_sheet:
        return [f"{out} = {decide.SHEET.format(sign=p, x1=q)}"]
    return [f"{out} = {p} - {q}",
            f"if {decide.DEGENERATE.format(d2=out, mm=p, ll=q)}: return {_ended('(0.0,)', finite)}",
            f"{out} = {decide.BRANCH.format(d2=out)}"]


# The compiler's memory grows with the source it compiles, about 100 bytes a
# character, and the largest recorded formulas run to 20,000 characters.  So
# a longer program is compiled as a chain of functions, each of at most this
# many characters, that hand on the values later ones read.
_PART_CHARS = 4000
_NAME = re.compile(r"\b(?:x\d+[sck]?_\w+|k\d+|x\d+)\b")


def _chained(prologue: list, body: list, result: str, bound: dict | None = None):
    """The function of `prologue` (which unpacks its arguments i and k), the
    steps' (lines, floats to test) of `body`, a test that each of those
    floats is finite, and `return result`, calling the functions of `bound`;
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
        tested = [name for _, names in part for name in names]
        # a sum is finite only if every term is, summed in short chains; a sum
        # of finite terms may overflow, and only then is each term tested
        for start in range(0, len(tested), 64):
            chain = " + ".join(tested[start:start + 64])
            lines.append(f"t = {chain}" if start == 0 else f"t = t + {chain}")
        if tested:
            lines.append(f"if not isfinite(t) and not {_finite(tested, False)}: return None")
        defined += _NAME.findall(sources[p])
        if p == len(parts) - 1:
            lines.append(f"return {result}")
        else:
            receive = [name for name in dict.fromkeys(defined) if name in handed[p]]
            lines.append(f"return [{', '.join(receive)}]")  # a list: see `run`
        functions.append(jets.compile_lines("_program", "i, k" if p == 0 else "v", lines, bound))
    if len(functions) == 1:
        return functions[0]
    first, rest = functions[0], functions[1:]

    def run(i, k):
        v = first(i, k)
        for part in rest:
            if v.__class__ is not list:  # None, or what a program that ended early answers
                return v
            v = part(v)
        return v
    return run
