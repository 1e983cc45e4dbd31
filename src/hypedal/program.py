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
truncations run the float operations of their step functions.

Every function generated from a curve's tape steps is a read of them
(`tape_read`): one function of the float s, of the tape steps its values
need and their truncations, which hands the values on in the order asked
and states each jet's bound on its degree.  A point or a jet of r or v is a
read of its three values (`ParametricCurve._tape_values`), an auto-dual read
calls r's (`frontal.auto_dual_read`), and a recorded formula of a curve's r
and v runs on a read of its inputs.  The recorded function is
generated from the recording alone, on given lists, and keyed by its
structure, so a process compiles it once for every curve; a function of
jets wider than `INLINE_WIDTH` coefficients is keyed by the read's bounds
too, so that its products call the kernels bound to them.  Tape code and
recorded code are never one function.

Each jet value has a bound on its degree, fixed when the code is generated
(`_degree`: s's jet 1, a lift 0, a product the sum of its operands', up to
the order, and so on), above which its coefficients are structural zeros.
A given list's bound is its width, unless the caller states a lower one
(`inline_program`'s `bounds`).  A product leaves out the terms with a factor
above its bound and is the literal 0.0 above the sum of the bounds: on local
names its rows are emitted so, and a wide product calls the kernel bound to
its operands' bounds (`jets._bound_mul_kernel`).  A term left out has a
factor that is an exact zero while every value is finite, so leaving it out
keeps each sum's bits: each starts at +0.0, so it is never -0.0, and adding
+-0.0 leaves it as it is.  So a function computes the same bits on given
lists whether it is given their bounds or not.  Every other step is emitted
whole, as a structural zero can be -0.0 after a negation.

A value that the function computes and that is not finite makes it
return None, and so does a plain refusal, one that a kernel would raise (a
vanishing divisor, the square root of a constant term that is not
positive).  The caller then runs the checked path, the step loop or the
`Jet` formula, and so returns or raises exactly what it always did; it
does the same when the function raises a domain error, and lets any other
exception propagate (`jets.answer`).  Only a value that could hold a nan
or an infinity without it reaching an output is tested: the outputs, what
a lift, a truncation, d/ds or a coefficient read drops, the halves of a
pair, a value that no step reads, and the float operands whose nan or
infinity can vanish from the result, a divisor (x/inf is 0.0), the
argument of tanh (tanh(inf) is 1.0) and the base of x ** n for n <= 0
(inf ** 0 is 1.0).  Every other operand is carried into a value that is
tested: + - *, negation, the square root, sin, cos, sinh, cosh, abs and a
quotient's numerator keep a nan or an infinity in their result, and a jet
divisor or square root with one is refused.  A term that a product leaves
out would be inf*0.0 in the step loop only where a coefficient within an
operand's bound is not finite, and that one is carried or tested.  Narrow
code tests each coefficient that no later step carries, at the end of the
part of the function that computes it; wide code tests its outputs, what
lifts, truncations and d/ds drop, both halves of each pair and what only a
sign (below) reads, once, at the end.  Each test sums the values, and
where the sum is not finite, as finite values can make it, tests them one
by one.

A function that ends early tests that every value computed so far is
finite: each that no step so far has carried into another (narrow code),
or each list that no step has read, with what lifts, truncations and d/ds
dropped and the halves of pairs (wide code).  A refusal by a step of a
recorded function (`inline_program`'s `final`) is final where that test
holds and the refused operand is finite too: the function returns the
error the kernel raises (`jets.refused_division`, `jets.refused_sqrt`), and
its callers raise it.  The formula would raise just that, as it computes
the same values in the same order, a recording listing its steps so, and
tests each `Jet` as it makes it.  Where the test fails the refusal is plain.
So is every refusal of a tape's step, alone or in a read, which runs at the
highest degree any input reads, where the checked path may read a lower
degree and pass.  A read tests every value it computes, its outputs
included, so a recorded function runs only on finite values, and its test
of every value so far covers what the formula read of the tapes.

An evolute's recorded formula takes three steps of its own: its branch
sign, its upper-sheet sign, each a float 1.0 or -1.0 read from constant
terms, and a flip, which multiplies each coefficient by such a sign and so
keeps every bit a negation gives.  A sign is finite by construction and
never tested; it carries no operand, so its operands are tested unless
another step carries them.  A flip carries its operand.  Where the branch
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


# the evolute's signs, the steps that only its recorded formula takes:
# - the branch sign of m^2 (node x) and ell^2 (node y), from their constant
#   terms: 1.0 where d2 = m^2 - ell^2 > 0.0 (the hyperbolic branch), 0.0
#   where `decide.DEGENERATE` holds, which ends the program, and -1.0 else;
# - the upper-sheet sign of a branch sign (x) and the point's x1 (y): -1.0
#   on the hyperbolic branch where x1's constant term is below 0.0, else 1.0;
# - a jet flipped by such a sign, each coefficient times +-1.0, which keeps
#   the sign of zero as a negation does (`_k_scale`'s + 0.0 would not).
def _f_branch(v, x, y):
    mm, ll = _lead(v[x]), _lead(v[y])
    d2 = mm - ll
    if decide.degenerate(d2, mm, ll):
        return 0.0
    return 1.0 if d2 > 0.0 else -1.0


def _f_sheet(v, x, y):
    return -1.0 if v[x] > 0.0 and _lead(v[y]) < 0.0 else 1.0


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

_EMITTED = {_k_neg, _k_add, _k_sub, _k_mul, _k_div, _k_lift, _k_scale, _k_sqrt, _k_pair, _k_half,
            _k_tanh, _k_d, _k_trunc, _k_coeff, _k_var, _k_flip, _f_call, _f_const, _f_pow,
            _f_branch, _f_sheet, *_F_BINARY.values()}
_F_NAMES = {math.sqrt: "sqrt", math.sin: "sin", math.cos: "cos", math.sinh: "sinh",
            math.cosh: "cosh", math.tanh: "tanh", abs: "abs"}
_F_SYMBOLS = {fn: op for op, fn in _F_BINARY.items()}


def inline_program(program, shapes: dict, outputs, max_steps=_INLINE_STEPS, final=False,
                   bounds=None):
    """(function, constants) running `program`, or None where it does not
    inline, or where it has more than `max_steps` steps.

    `shapes` maps each input node, in the order the function takes their
    values, to 0 (a float) or w (a jet of w coefficients); a jet at node 0
    is s's, (s, 1.0, 0.0, ...), as in every tape and recording.  `bounds`,
    in the same order, is each input jet's bound on its degree, or None for
    its width's (see the module docstring).
    function(values of the inputs, constants) returns the values of the
    `outputs` nodes, or None where the checked path must run, or, where
    `final` (a recorded function), the error of a final refusal.  A
    constant that is not a float (a `recording.Param`) stands for the value
    given in its place.
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
                                len(consts), final, bounds)
    return None if function is None else (function, tuple(consts))


def tape_read(tapes, reads: tuple):
    """(read, bounds): read(s, sign_at) -> the values of `reads` at the float
    s, in order, from a curve's tapes (`ParametricCurve._tape_set`), sign_at
    unread: each (group, None, i) is component i of the group's floats,
    (group, k, i) its jet truncated to order k, the jet tape run at the
    highest order read, at least 1; bounds: each value's bound on its degree (`_degree`
    over the read's steps), None for a float.  Generated once per `reads`
    and kept with the tapes; None where a tape program it reads is longer
    than `_INLINE_STEPS` steps or does not inline.  A read is None where s
    or any value it computes is not finite, or where a tape step refuses:
    plainly (see the module docstring)."""
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
    bounds = {}  # the node of steps of a jet -> the bound on its degree

    def node(t, n):
        if n not in nodes[t]:  # s of the jet tape, or a constant of the float tape
            nodes[t][n] = (steps._node(_k_var, 0, degree) if t
                           else steps._node(_f_const, 0, tapes[0].steps[n][2]))
            if t:
                bounds[nodes[t][n]] = 1
        return nodes[t][n]

    for t, group in sorted({(int(k is not None), group) for group, k, _ in reads}):
        program = tapes[t].programs[group]
        if len(program) > _INLINE_STEPS:
            return None
        for n, fn, x, y in program:
            if fn not in _EMITTED:  # a step that always raises
                return None
            if n not in nodes[t]:
                two = fn in _TWO_OPERANDS
                x, y = node(t, x), node(t, y) if two else y
                at = nodes[t][n] = steps._node(fn, x, y)
                if t:
                    bounds[at] = _degree(fn, degree, bounds[x], bounds[y] if two else None, y)
    values = []
    for group, k, i in reads:
        t = int(k is not None)
        value = node(t, tapes[t].outputs[group][i])
        if t and k < degree:
            bound = _degree(_k_trunc, degree, bounds[value], None, k)
            value = steps._node(_k_trunc, value, k)
            bounds[value] = bound
        values.append(value)
    inline = inline_program(tuple(sorted(steps._program(values))), {0: 0}, values,
                            max_steps=math.inf)
    if inline is None:
        return None
    return partial(_read, *inline), tuple(None if k is None else bounds[value]
                                          for value, (_, k, _) in zip(values, reads))


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
    return da  # a negation, a scale, a half of a pair


@lru_cache(maxsize=256)
def _inline_function(inputs, program, outputs, n_consts, final, bounds):
    """The generated function of a program's structure (see `inline_program`);
    no step but s's jet (`_k_var`) widens a value, so its inputs and that
    step decide whether it is a wide one, whose products the input `bounds`
    bind."""
    widths = [shape for _, shape in inputs]
    widths += [y + 1 for _, fn, _, y in program if fn is _k_var]
    if max(widths, default=0) > INLINE_WIDTH:
        return _list_function(inputs, program, outputs, n_consts, final, bounds)
    names = {}  # node -> a name (float), a list of names (jet), or two lists (pair)
    degrees = {}  # jet or pair node -> the bound on its degree
    unpack = []
    for node, shape in inputs:
        if shape == 0:
            names[node] = f"x{node}"
            unpack.append(names[node])
        else:
            names[node] = [f"x{node}_{i}" for i in range(shape)]
            unpack.append(f"({', '.join(names[node])},)")
            degrees[node] = 1 if node == 0 else shape - 1
    prologue = [f"{', '.join(unpack)}, = i"] if unpack else []
    k = [f"k{j}" for j in range(n_consts)]
    if k:
        prologue.append(f"{', '.join(k)}, = k")
    body = []  # per step: its lines, and the names they assign within its bound
    carried = set()  # the names that a later step keeps, if not finite, in one it assigns
    divisors = set()  # the jets whose refusal is tested

    def fresh(node, width, tag="", bound=None):
        out = [f"x{node}{tag}_{i}" for i in range(width)]
        body[-1][1].extend(out if bound is None else out[:bound + 1])
        return out

    def finite_so_far(*operands):
        """The test that each value the steps before this one computed, and
        each of the `operands`' names, is finite: each name that no step so
        far has carried into another value."""
        each = [name for _, assigned in body[:-1] for name in assigned if name not in carried]
        each = dict.fromkeys(each + [name for name in operands if name[0] == "x"])
        return each and f"all(map(isfinite, ({_listed(each)})))"

    def refusal(error, operand):
        """What the function returns where a step refuses `operand`."""
        return _ended(error, finite_so_far(*operand)) if final else "None"

    for node, fn, x, y in program:
        a = names[x]
        body.append(([], []))
        lines = body[-1][0]
        if fn is _f_branch or fn is _f_sheet:  # +-1.0, so never tested
            out = names[node] = f"x{node}"
            p, q = (c if isinstance(c, str) else c[0] for c in (a, names[y]))
            lines += _sign_lines(fn, out, p, q, finite_so_far())
            continue
        if fn is _k_flip:  # by a sign, +-1.0
            d = degrees[node] = degrees[x]
            out = names[node] = fresh(node, len(a), bound=d)
            lines += [f"{o} = {c} * {names[y]}" for o, c in zip(out, a)]
            carried.update(a)
            continue
        if isinstance(a, str) and fn is not _k_var:  # a float program
            if fn is _f_const:
                names[node] = k[y]
                continue
            out = names[node] = f"x{node}"
            body[-1][1].append(out)
            if fn is _f_call:
                lines.append(f"{out} = -{a}" if y is operator.neg
                             else f"{out} = {_F_NAMES[y]}({a})")
                if y is not math.tanh:  # tanh(inf) is 1.0
                    carried.add(a)
            elif fn is _f_pow:
                lines.append(f"{out} = {a} ** {y}")
                if y > 0:  # inf ** 0 is 1.0, inf ** -1 is 0.0
                    carried.add(a)
            else:
                lines.append(f"{out} = {a} {_F_SYMBOLS[fn]} {names[y]}")
                carried.update((a,) if _F_SYMBOLS[fn] == "/" else (a, names[y]))  # x / inf is 0.0
            continue
        if fn is _k_coeff:
            names[node] = a[y]
            continue
        if fn is _k_tanh:
            a, b = a
        elif fn in _TWO_OPERANDS:
            b = names[y]
        da, db = degrees.get(x), degrees.get(y) if fn in _TWO_OPERANDS else None
        d = degrees[node] = _degree(fn, len(a) - 1, da, db, y)
        if fn is _k_var:  # the float s, then literals
            names[node] = [a, "1.0"] + ["0.0"] * (y - 1)
        elif fn is _k_lift:
            names[node] = [k[y]] + ["0.0"] * (len(a) - 1)
        elif fn is _k_half:
            names[node] = a[y]
        elif fn is _k_trunc:
            names[node] = a[: y + 1]
        elif fn is _k_pair:
            s, c = names[node] = (fresh(node, len(a), "s"), fresh(node, len(a), "c"))
            k_a = [None] + fresh(node, len(a) - 1, "k")  # the names of j a_j, j >= 1
            lines += jets.trig_lines(s, c, k_a, a, hyperbolic=y is sinh_cosh_coeffs)
            carried.update(a + k_a[1:])
        elif fn is _k_mul:  # rows above the bound are the literal 0.0
            out = fresh(node, d + 1)
            names[node] = out + ["0.0"] * (len(a) - 1 - d)
            lines += [f"{o} = {row}" for o, row in zip(out, jets.mul_rows(a, b, da, db))]
            carried.update(a[:da + 1] + b[:db + 1])
        else:
            out = names[node] = fresh(node, len(a) - 1 if fn is _k_d else len(a), bound=d)
            if fn is _k_neg:
                lines += [f"{o} = -{p}" for o, p in zip(out, a)]
            elif fn is _k_add or fn is _k_sub:
                sign = "+" if fn is _k_add else "-"
                lines += [f"{o} = {p} {sign} {q}" for o, p, q in zip(out, a, b)]
            elif fn is _k_scale:
                lines += [f"{o} = {p}*{k[y]} + 0.0" for o, p in zip(out, a)]
            elif fn is _k_d:
                lines += [f"{o} = {i + 1}*{a[i + 1]}" for i, o in enumerate(out)]
            elif fn is _k_sqrt:
                lines.append(f"if {decide.SQRT_REFUSED.format(a0=a[0])}: "
                             f"return {refusal(f'refused_sqrt({a[0]})', a)}")
                lines += jets.sqrt_lines(out, a, f"x{node}_two")
            else:  # _k_div, _k_tanh
                if tuple(b) not in divisors:  # tested once
                    divisors.add(tuple(b))
                    scale = f"max({', '.join(f'abs({c})' for c in b)})" if b[1:] else f"abs({b[0]})"
                    refused = decide.DIVISOR_REFUSED.format(b0=b[0], scale=scale)
                    lines.append(f"if {refused}: return {refusal('refused_division()', b)}")
                lines += jets.div_lines(out, a, b)
            # d/ds keeps all but a_0; the others keep every coefficient, and a
            # divisor that is not finite is refused
            carried.update(a[1:] if fn is _k_d else a)
            if fn in _TWO_OPERANDS or fn is _k_tanh:
                carried.update(b)

    def value(node):
        name = names[node]
        if isinstance(name, str):
            return name
        return f"[{', '.join(name)}]"

    body = [(lines, [name for name in assigned if name not in carried]) for lines, assigned in body]
    return _chained(prologue, body, f"({_listed(map(value, outputs))})")


def _list_function(inputs, program, outputs, n_consts, final, bounds):
    """The generated function of a program of jets wider than `INLINE_WIDTH`,
    each value a whole coefficient list (see the module docstring), or None
    where a step is not one on jets.

    Each value has a bound on its degree (`_degree`), fixed here: above it
    every coefficient is a structural zero.  s's jet has bound 1, and a
    given list the one `bounds` states, or its width's; each product calls
    the kernel of its operands' bounds."""
    names = {node: f"x{node}" for node, _ in inputs}
    widths = dict(inputs)
    degrees = {node: (1 if node == 0 else shape - 1) if bound is None else bound
               for (node, shape), bound in zip(inputs, bounds or [None] * len(inputs))}
    given = set(names)  # the inputs, which callers give finite, and s's jet (a read's s is)
    prologue = [f"{_listed(names.values())}= i"]
    if n_consts:
        prologue.append(f"{''.join(f'k{j}, ' for j in range(n_consts))}= k")
    bound = {}
    body = []
    # the tested coefficients besides the outputs': (their sum, the sequence of them)
    tested = []
    divisors = set()  # the values whose refusal is tested
    signs = set()  # the nodes of signs, the floats +-1.0
    unread = {}  # the lists that no step has read yet, in order

    def kernel(name, make, *key):
        name += "_".join(map(str, key))
        bound[name] = make(*key)
        return name

    def finite_so_far(*operands):
        """The test that each value the steps before this one computed, and
        the `operands` (sources), is finite: as at the end, on what no step
        has read yet."""
        each = dict.fromkeys([*(names[n] for n in unread), *(v for _, v in tested), *operands])
        return each and _each_finite(list(each))

    def refusal(error, operand):
        """What the function returns where a step refuses `operand`."""
        return _ended(error, finite_so_far(operand)) if final else "None"

    for node, fn, x, y in program:
        a = names[x]
        out = names[node] = f"x{node}"
        lines = []
        if fn is _f_branch or fn is _f_sheet:
            signs.add(node)
            p, q = (c if n in signs else f"{c}[0]" for n, c in ((x, a), (y, names[y])))
            body.append((_sign_lines(fn, out, p, q, finite_so_far()), []))
            continue
        n = widths[x]
        da = degrees[x]
        widths[node] = n
        if fn is _k_flip:  # by a sign, +-1.0
            unread.pop(x, None)
            degrees[node] = da
            unread[node] = None
            body.append(([f"{out} = [p * {names[y]} for p in {a}]"], []))
            continue
        db = degrees[y] if fn in _TWO_OPERANDS else None
        degrees[node] = _degree(fn, n - 1, da, db, y)
        if fn is _k_var:
            value = f"[{a}, 1.0] + [0.0] * {y - 1}"
            widths[node] = y + 1
            given.add(node)
        elif fn is _k_neg:
            value = f"[-p for p in {a}]"
        elif fn is _k_add or fn is _k_sub:
            value = f"[p {'+' if fn is _k_add else '-'} q for p, q in zip({a}, {names[y]})]"
        elif fn is _k_mul:
            value = f"{kernel('mul', jets._bound_mul_kernel, n - 1, da, db)}({a}, {names[y]})"
        elif fn is _k_scale:
            value = f"[p*k{y} + 0.0 for p in {a}]"
        elif fn is _k_lift:
            value = f"[k{y}] + [0.0] * {n - 1}"
            if x not in given:  # the step loop checks what the lift drops
                tested.append((f"sum({a}, 0.0)", a))
        elif fn is _k_d or fn is _k_trunc:
            value = f"[j*{a}[j] for j in range(1, {n})]" if fn is _k_d else f"{a}[:{y + 1}]"
            widths[node] = n - 1 if fn is _k_d else y + 1
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
        elif fn is _k_sqrt:
            lines.append(f"if {decide.SQRT_REFUSED.format(a0=f'{a}[0]')}: "
                         f"return {refusal(f'refused_sqrt({a}[0])', a)}")
            value = f"{kernel('sqrt', jets._sqrt_kernel, n - 1)}({a})"
        elif fn is _k_div or fn is _k_tanh:
            a, b = (f"{a}[0]", f"{a}[1]") if fn is _k_tanh else (a, names[y])
            if b not in divisors:
                divisors.add(b)
                refused = decide.DIVISOR_REFUSED.format(b0=f"{b}[0]", scale=f"max(map(abs, {b}))")
                lines.append(f"if {refused}: return {refusal('refused_division()', b)}")
            value = f"{kernel('div', jets._div_kernel, n - 1)}({a}, {b})"
        else:  # a float step
            return None
        # what this step reads is carried, or tested as it drops
        unread.pop(x, None)
        if fn in _TWO_OPERANDS:
            unread.pop(y, None)
        if fn is not _k_pair:  # whose halves are tested
            unread[node] = None
        lines.append(f"{out} = {value}")
        body.append((lines, []))
    # the outputs, and what only signs read
    tested[:0] = [(f"sum(x{node}, 0.0)", f"x{node}") for node in dict.fromkeys([*outputs, *unread])
                  if node not in given and node not in signs]
    if tested:
        # as in `_chained`, each coefficient is tested only where the sum is not finite
        total = " + ".join(total for total, _ in tested)
        each = _each_finite([v for _, v in tested])
        body.append(([f"if not isfinite({total}) and not {each}: return None"], []))
    return _chained(prologue, body, f"({_listed(names[node] for node in outputs)})", bound)


def _listed(sources) -> str:
    """The items of a tuple display: "a, b, "."""
    return "".join(source + ", " for source in sources)


def _each_finite(lists: list) -> str:
    """The test that every coefficient of the `lists` (their sources) is finite."""
    return f"all(isfinite(c) for v in ({_listed(lists)}) for c in v)"


def _ended(value: str, finite: str) -> str:
    """What a function that ends early returns: `value` if the test `finite`
    (if any) of the values before holds, and None if not."""
    return f"{value} if {finite} else None" if finite else value


def _sign_lines(fn, out: str, p: str, q: str, finite: str) -> list:
    """The lines of a sign step, `_f_branch` or `_f_sheet`, on the sources p and
    q of what it reads; where the branch sign is 0.0, degenerate, the function
    ends with (0.0,) (`_ended`)."""
    if fn is _f_sheet:
        return [f"{out} = -1.0 if {p} > 0.0 and {q} < 0.0 else 1.0"]
    return [f"{out} = {p} - {q}",
            f"if {decide.DEGENERATE.format(d2=out, mm=p, ll=q)}: return {_ended('(0.0,)', finite)}",
            f"{out} = 1.0 if {out} > 0.0 else -1.0"]


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
            lines.append(f"if not isfinite(t) and not all(map(isfinite, ({_listed(tested)}))): "
                         f"return None")
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
