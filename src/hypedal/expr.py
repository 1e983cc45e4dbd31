"""Expression language for scalar components of parametric curves.

Grammar (EBNF, whitespace-insensitive)::

    expr     = term , { ("+" | "-") , term } ;
    term     = factor , { ("*" | "/") , factor } ;
    factor   = "-" , factor | power ;
    power    = atom , [ "^" , integer ] ;
    atom     = number | "s" | "pi" | function , "(" , expr , ")" | "(" , expr , ")" ;
    function = "sqrt" | "sin" | "cos" | "sinh" | "cosh" | "tanh" | "abs" ;

Precedence is ^  >  unary -  >  * /  >  + -, with left associativity for
binary - and /.  Exponents must be integer literals and there is no
implicit multiplication ("2s" is a syntax error).  Parsed trees are
immutable and evaluate, through a compiled tape (see `_Tape`), either to
floats or to truncated Taylor jets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from . import jets
from .jets import (
    Jet, JetDomainError, div_coeffs, mul_coeffs, require_finite, sin_cos_coeffs,
    sinh_cosh_coeffs, sqrt_coeffs,
)
from .minkowski import MVec3, _vec

FUNCTIONS = ("sqrt", "sin", "cos", "sinh", "cosh", "tanh", "abs")

# The most nodes on a root-to-leaf path of a parsed tree: compiling one recurses
# about twice per level, Python stops at 1000 frames, the shipped curves reach 8.
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class EvalDomainError(ValueError):
    """Evaluation left the domain of an elementary function."""


# -- abstract syntax ---------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "CurveExpr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "CurveExpr"
    right: "CurveExpr"


@dataclass(frozen=True)
class Pow:
    base: "CurveExpr"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    arg: "CurveExpr"


CurveExpr = Num | Var | Pi | Neg | BinOp | Pow | Call


# -- tokenizer ---------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", an operator character, or "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdecimal():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdecimal():
                    i = j
                    while i < n and text[i].isdecimal():
                        i += 1
            out.append(_Token("num", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            out.append(_Token("ident", text[start:i], start))
            continue
        if ch in "+-*/^()":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("eof", "", n))
    return out


# -- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> CurveExpr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> CurveExpr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> CurveExpr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> CurveExpr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdecimal():
                raise ParseError("exponent must be an integer literal", tok.pos)
            self.advance()
            try:
                exponent = int(tok.text)
            except ValueError:  # past sys.get_int_max_str_digits()
                message = f"exponent of {len(tok.text)} digits is too long"
                raise ParseError(message, tok.pos) from None
            return Pow(base, sign * exponent)
        return base

    def atom(self) -> CurveExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "s":
                return Var()
            if name == "pi":
                return Pi()
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.pos)
                self.advance()
                arg = self.expr()
                closing = self.peek()
                if closing.kind != ")":
                    raise ParseError("expected ')'", closing.pos)
                self.advance()
                return Call(name, arg)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            self.advance()
            return node
        raise ParseError("expected operand", tok.pos)


def parse(text: str) -> CurveExpr:
    parser = _Parser(_tokenize(text))
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek().pos) from None
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    depth, level = 0, [node]
    while level:  # level by level: no walk recurses before the bound holds
        depth += 1
        level = [c for e in level for c in vars(e).values() if isinstance(c, CurveExpr)]
    if depth > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH} levels", 0)
    return node


# -- evaluation --------------------------------------------------------


def _eval(node: CurveExpr, s):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return s
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Neg):
        return -_eval(node.arg, s)
    if isinstance(node, BinOp):
        left = _eval(node.left, s)
        right = _eval(node.right, s)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            return left / right
        except ZeroDivisionError:
            raise EvalDomainError("division by zero") from None
    if isinstance(node, Pow):
        base = _eval(node.base, s)
        try:
            return jets.powi(base, node.exponent)
        except ZeroDivisionError:
            raise EvalDomainError(f"zero raised to the negative power {node.exponent}") from None
    if isinstance(node, Call):
        arg = _eval(node.arg, s)
        if node.name == "abs":
            if isinstance(arg, Jet):
                raise EvalDomainError("abs is not differentiable and cannot be evaluated on jets")
            return abs(arg)
        try:
            return jets.ELEMENTARY[node.name](arg)
        except JetDomainError as exc:
            raise EvalDomainError(str(exc)) from None
        except ValueError:
            raise EvalDomainError(f"domain error: {node.name}({arg!r})") from None
    raise TypeError(f"not an expression node: {node!r}")


def eval_scalar(e: CurveExpr, s: float) -> float:
    return _TapePoint(_Tape(((e,),), floats=True), float(s), 0).outputs(0)[0]


def eval_jet(e: CurveExpr, s0: float, order: int) -> Jet:
    base, degree = _tape_args(s0, order)
    return Jet(base, tuple(_TapePoint(_Tape(((e,),)), base, degree).outputs(0)[0][: order + 1]))


# -- the Taylor tape ---------------------------------------------------
#
# Evaluation compiles expression trees into one hash-consed DAG, a
# straight-line program (Griewank & Walther, "Evaluating Derivatives",
# ch. 13): equal subtrees become one node.  The jet program runs `jets`
# coefficient kernels on plain lists with the operands in the roles that
# the `Jet` operators give them, sin/cos or sinh/cosh/tanh of one argument
# sharing one recurrence, constants lifted to (c, 0.0, ...) as `Jet._lift`
# does, and each result checked for finiteness as a `Jet` checks it.  The
# float program runs `_eval`'s float operations, `**` and `math` included,
# on constants held in nodes of their own.  So every value, the sign of
# zero included, and every exception are those of `_eval`.  Constant
# subtrees fold at compile time to a constant, or to a node raising their
# error.  A node computes `fn(values, x, y)`: x is a node id, y a second
# node id, a constant, a function or a name.


def _tape_args(s0, order: int) -> tuple[float, int]:
    """The base point and the truncation degree, at least 1, a jet request runs at."""
    if order < 0:
        raise ValueError("jet order must be non-negative")
    if order > jets.MAX_ORDER:
        raise ValueError(f"jet order {order} exceeds the configured maximum {jets.MAX_ORDER}")
    base = float(s0)
    if not math.isfinite(base):
        raise ValueError("non-finite jet base")
    return base, max(order, 1)


def _k_neg(v, x, y):
    return [-a for a in v[x]]


def _k_add(v, x, y):
    return require_finite([a + b for a, b in zip(v[x], v[y])])


def _k_sub(v, x, y):
    return require_finite([a - b for a, b in zip(v[x], v[y])])


def _k_mul(v, x, y):
    return require_finite(mul_coeffs(v[x], v[y]))


def _k_div(v, x, y):
    return require_finite(div_coeffs(v[x], v[y]))


# (c, 0.0, ...) at the degree of node x, which runs first
def _k_lift(v, x, c):
    return [c] + [0.0] * (len(v[x]) - 1)


# jet * c and c * jet: in the Cauchy product of the jet with (c, 0.0, ...)
# every term but a_i * c is a signed zero, and each sum starts from +0.0
def _k_scale(v, x, c):
    return require_finite([a * c + 0.0 for a in v[x]])


def _k_sqrt(v, x, y):
    return require_finite(sqrt_coeffs(v[x]))


def _k_pair(v, x, kernel):
    return kernel(v[x])


# `Jet` builds, and so checks, both halves of a sin/cos or sinh/cosh pair
def _k_half(v, x, i):
    pair = v[x]
    require_finite(pair[0])
    require_finite(pair[1])
    return pair[i]


def _k_tanh(v, x, y):
    s, c = v[x]
    return require_finite(div_coeffs(require_finite(s), require_finite(c)))


def _k_abs(v, x, y):
    raise EvalDomainError("abs is not differentiable and cannot be evaluated on jets")


def _k_raise(v, x, exc):
    raise exc.with_traceback(None)


# the float program: the operations of `_eval`, on floats; `_run` words the
# ZeroDivisionError of / and ^ as `_eval` does
def _f_call(v, x, fn):
    return fn(v[x])


def _f_pow(v, x, n):
    return v[x] ** n


# The most coefficients of a value that hypedal.program's generated code
# holds in local names, one per coefficient (floats, jets of degree 1-3);
# wider jets are whole coefficient lists.
_INLINE_WIDTH = 4

# any other operator divides, as in _eval
_BINARY = {"+": _k_add, "-": _k_sub, "*": _k_mul}
_F_BINARY = {"+": lambda v, x, y: v[x] + v[y], "-": lambda v, x, y: v[x] - v[y],
             "*": lambda v, x, y: v[x] * v[y], "/": lambda v, x, y: v[x] / v[y]}
_TWO_OPERANDS = {_k_add, _k_sub, _k_mul, _k_div, *_F_BINARY.values()}
_HALVES = {"sin": (sin_cos_coeffs, 0), "cos": (sin_cos_coeffs, 1),
           "sinh": (sinh_cosh_coeffs, 0), "cosh": (sinh_cosh_coeffs, 1)}


class _Const:
    """A constant subtree, folded to its value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Steps:
    """Hash-consed steps (node, fn, x, y): a node without fn holds a value
    given from the start, node 0 the variable s."""

    def __init__(self):
        self.steps = [(None, None, None)]
        self.deps = [()]
        self._index = {}

    def _add(self, fn, x, y, deps):
        self.steps.append((fn, x, y))
        self.deps.append(deps)
        return len(self.steps) - 1

    def _node(self, fn, x, y=None):
        key = (fn, x, y.hex() if isinstance(y, float) else y)
        node = self._index.get(key)
        if node is None:
            deps = (x, y) if fn in _TWO_OPERANDS else (x,) if fn else ()
            node = self._index[key] = self._add(fn, x, y, deps)
        return node

    def _program(self, roots):
        """The steps of roots and what they depend on, each after its operands:
        a depth-first post-order, on an explicit stack because a large
        exponent chains thousands of products."""
        done = {0}
        order = []
        stack = [(None, iter(roots))]
        while stack:
            node, deps = stack[-1]
            for dep in deps:
                if dep not in done:
                    done.add(dep)
                    stack.append((dep, iter(self.deps[dep])))
                    break
            else:
                stack.pop()
                if node is not None:
                    order.append(node)
        return tuple((node,) + self.steps[node] for node in order if self.steps[node][0])


class _Tape(_Steps):
    """The jet or float program of groups of expression trees, e.g. a curve's r and v.

    Node 0 is s.  `outputs[g]` holds the nodes of group g's trees and
    `programs[g]` the steps (node, fn, x, y) computing them, in the order in
    which walking the trees one after another reaches them, so the first
    failing step raises what that walk would.
    """

    def __init__(self, groups, floats: bool = False):
        super().__init__()
        self.floats = floats
        self.calls = {}  # node -> (function name, argument node), for error messages
        self.kept = {}  # product -> (key, value): see `ParametricCurve._kept`
        self.outputs = [tuple(self._output(e) for e in trees) for trees in groups]
        self.programs = [self._program(roots) for roots in self.outputs]
        self.init = [None if fn else y for fn, x, y in self.steps]

    def _node(self, fn, x, y=None, call=None):
        node = super()._node(fn, x, y)
        if call is not None:
            self.calls[node] = call
        return node

    def _fail(self, exc, dep=None):
        return self._add(_k_raise, dep, exc, () if dep is None else (dep,))

    def _fold(self, e):
        try:
            return _Const(_eval(e, None))
        except Exception as exc:  # raised, whatever it is, when evaluation reaches e
            return self._fail(exc)

    def _lifted(self, fn, x, value):
        """`fn` of node x and the constant `value`, which must lift to a jet."""
        try:
            c = float(value)
            require_finite((c,))
        except (ValueError, OverflowError) as exc:
            return self._fail(exc, x)
        return self._node(fn, x, c)

    def _operand(self, a):
        """Node a, or a float-program node holding the constant a."""
        return self._node(None, None, a.value) if isinstance(a, _Const) else a

    def _output(self, e) -> int:
        node = self._emit(e)
        if not isinstance(node, _Const) or self.floats:
            return self._operand(node)
        return self._lifted(_k_lift, 0, node.value)

    def _emit(self, e):
        """The node computing `e`, or `e` folded to a constant."""
        floats = self.floats
        if isinstance(e, Var):
            return 0
        if isinstance(e, Neg):
            a = self._emit(e.arg)
            if isinstance(a, _Const):
                return self._fold(e)
            return self._node(_f_call, a, operator.neg) if floats else self._node(_k_neg, a)
        if isinstance(e, BinOp):
            a = self._emit(e.left)
            b = self._emit(e.right)
            if isinstance(a, _Const) and isinstance(b, _Const):
                return self._fold(e)
            if floats:
                return self._node(_F_BINARY.get(e.op, _F_BINARY["/"]), self._operand(a),
                                  self._operand(b))
            if e.op == "*" and isinstance(a, _Const):
                return self._lifted(_k_scale, b, a.value)
            if e.op == "*" and isinstance(b, _Const):
                return self._lifted(_k_scale, a, b.value)
            if isinstance(a, _Const):
                a = self._lifted(_k_lift, b, a.value)
            if isinstance(b, _Const):
                b = self._lifted(_k_lift, a, b.value)
            return self._node(_BINARY.get(e.op, _k_div), a, b)
        if isinstance(e, Pow):
            a = self._emit(e.base)
            if isinstance(a, _Const):
                return self._fold(e)
            return self._node(_f_pow, a, e.exponent) if floats else self._pow(a, e.exponent)
        if isinstance(e, Call):
            a = self._emit(e.arg)
            if isinstance(a, _Const):
                return self._fold(e)
            call = (e.name, a)
            if floats:
                return self._node(_f_call, a, getattr(math, e.name, abs), call)  # no math.abs
            if e.name == "abs":
                return self._node(_k_abs, a)
            if e.name in _HALVES:
                kernel, i = _HALVES[e.name]
                return self._node(_k_half, self._node(_k_pair, a, kernel), i, call)
            if e.name == "tanh":
                return self._node(_k_tanh, self._node(_k_pair, a, sinh_cosh_coeffs), None, call)
            return self._node(_k_sqrt, a, None, call)  # the last name of FUNCTIONS
        return self._fold(e)

    def _pow(self, x, n):
        """`Jet.__pow__`: binary powering from (1.0, 0.0, ...), then 1/(x^-n) for n < 0."""
        if not isinstance(n, int):
            return self._fail(TypeError("jet exponent must be an integer"), x)
        result = self._node(_k_lift, x, 1.0)
        square = x
        k = abs(n)
        while k:
            if k & 1:
                result = self._node(_k_mul, result, square)
            k >>= 1
            if k:
                square = self._node(_k_mul, square, square)
        if n < 0:
            result = self._node(_k_div, self._node(_k_lift, result, 1.0), result)
        return result


class _TapePoint:
    """Node values of a tape at one base point and degree, 0 for floats,
    computed by the step loop."""

    __slots__ = ("tape", "base", "values")

    def __init__(self, tape: _Tape, base: float, degree: int):
        self.tape = tape
        self.base = base
        self.values = tape.init.copy()
        self.values[0] = [base, 1.0] + [0.0] * (degree - 1) if degree else base

    def outputs(self, group: int) -> list:
        """The values of group's trees, once its program has run."""
        self._run(self.tape.programs[group])
        v = self.values
        return [v[node] for node in self.tape.outputs[group]]

    def _run(self, program):
        v = self.values
        try:
            for node, fn, x, y in program:
                v[node] = fn(v, x, y)
        except ZeroDivisionError:
            if fn is _f_pow:
                raise EvalDomainError(f"zero raised to the negative power {y}") from None
            raise EvalDomainError("division by zero") from None
        except ValueError as exc:
            call = self.tape.calls.get(node)
            if call is None:
                raise
            # what _eval makes of a ValueError inside an elementary function
            if isinstance(exc, JetDomainError):
                raise EvalDomainError(str(exc)) from None
            name, arg = call
            arg = v[arg]
            if isinstance(arg, list):
                arg = Jet(self.base, tuple(arg))
            raise EvalDomainError(f"domain error: {name}({arg!r})") from None


def to_text(e: CurveExpr) -> str:
    """Canonical fully parenthesized rendering; re-parses to an equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "s"
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Neg):
        return f"(-{to_text(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_text(e.left)}{e.op}{to_text(e.right)})"
    if isinstance(e, Pow):
        return f"({to_text(e.base)}^{e.exponent})"
    if isinstance(e, Call):
        return f"{e.name}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# -- parametric curves -------------------------------------------------

# The tapes of the last curves evaluated, keyed by the text of their
# expressions, so that a fresh load of a curve file reuses its tapes, every
# program generated for them, `hypedal.recording`'s, `program.tape_read`'s and
# `frontal.auto_dual_read`'s included, and what the jet tape keeps of a pair
# built on the curve (`ParametricCurve._kept`: `frontal.AutoDual`'s sign
# grid, `constructions.singular_points`' cause scale).
TAPES_SIZE = 16
_TAPES: dict = {}


def _shared_tapes(groups) -> tuple:
    """(float tape, jet tape, {}) of groups of expression trees, made once
    per text; the dict holds the code generated on them: the reads of
    `program.tape_read`, the one reader of the tapes, what
    `hypedal.recording` runs on them, and the reads of
    `frontal.auto_dual_read`, which call r's."""
    key = tuple(tuple(map(to_text, trees)) for trees in groups)  # repr keeps -0.0
    tapes = _TAPES.pop(key, None)
    if tapes is None:
        tapes = (_Tape(groups, floats=True), _Tape(groups), {})
        if len(_TAPES) >= TAPES_SIZE:
            del _TAPES[next(iter(_TAPES))]
    _TAPES[key] = tapes
    return tapes


def _tape_read(tapes, reads: tuple):
    """`program.tape_read`, which takes this name at the first call: the code
    generator is loaded with the first program it generates."""
    global _tape_read
    from .program import tape_read as _tape_read

    return _tape_read(tapes, reads)


def linspace(domain, n: int) -> list[float]:
    """n >= 2 evenly spaced parameters a + i * step of [a, b], the last exactly b."""
    a, b = domain
    step = (b - a) / (n - 1)
    pts = [a + i * step for i in range(n)]
    pts[-1] = b
    return pts


@dataclass(frozen=True)
class ParametricCurve:
    """Three expression components on a closed parameter interval.

    `dual_components`, when present, define the unit spacelike dual curve
    that makes the pair Legendrian; otherwise the dual has to be derived
    numerically (see frontal.AutoDual).

    `point`, `dual_point`, `point_jet` and `dual_jet` read a float and a
    jet tape, each compiled from all six trees on first use and shared with
    every curve of the same expressions: each read is one call of the
    generated read of its group's three values at its degree
    (`program.tape_read`), and only where there is none, or it gives no
    answer, does the step loop run, which raises what the tree walk raises.
    Nothing is kept per point.
    """

    name: str
    components: tuple[CurveExpr, CurveExpr, CurveExpr]
    domain: tuple[float, float]
    dual_components: tuple[CurveExpr, CurveExpr, CurveExpr] | None = None
    samples: int = 1000
    _tapes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError(f"degenerate domain [{a!r}, {b!r}]")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")

    def grid(self, n: int | None = None) -> list[float]:
        return linspace(self.domain, n or self.samples)

    def point(self, s: float) -> MVec3:
        return self._at(0, s)

    def point_jet(self, s0: float, order: int) -> MVec3:
        return self._at(0, s0, order)

    def _at(self, group: int, s: float, order: int | None = None) -> MVec3:
        """Group's three values at s: floats, or jets truncated to `order`."""
        values = self._tape_values(group, s, order)
        # the base and the order were checked by `_tape_args`, so each value
        # is checked as `Jet` and `MVec3` check them, without their init
        if order is not None:
            base = float(s)
            values = [jets._jet(base, tuple(c)) for c in values]
        return _vec(*values)

    def _tape_values(self, group: int, s: float, order: int | None = None) -> tuple | list:
        """Group's three values at s, floats or the coefficient lists of jets
        truncated to `order`, from one call of the curve's generated read of
        them (`program.tape_read`), or from the step loop where there is none
        or it gives no answer.  `_at` reads the tapes only through here, and
        so does `frontal.AutoDual`, which takes the lists as they are."""
        base, degree = (float(s), None) if order is None else _tape_args(s, order)
        tapes = self._tape_set()
        read = _tape_read(tapes, ((group, degree, 0), (group, degree, 1), (group, degree, 2)))
        values = None if read is None else jets.answer(read[0], base, None)
        if values is None:
            values = _TapePoint(tapes[degree is not None], base, degree or 0).outputs(group)
        if order == 0:  # run at degree 1
            values = [c[:1] for c in values]
        return values

    def _kept(self, product, key, make):
        """make(), kept with the curve's shared tapes (`_shared_tapes`) under
        `product` while `key` holds, so a later curve of the same expressions
        reuses it; one key per product, so a new key replaces the value, and
        a make() that raises keeps nothing.  `key` must hold all that make()
        depends on besides the expressions."""
        kept = self._tape_set()[1].kept
        entry = kept.get(product)
        if entry is None or entry[0] != key:
            entry = kept[product] = (key, make())
        return entry[1]

    def _tape_set(self) -> tuple:
        """(float tape, jet tape, programs generated on them) of r and v, shared
        with every curve of the same expressions (`_shared_tapes`)."""
        if self._tapes is None:
            groups = (self.components,) if self.dual_components is None else (
                self.components, self.dual_components)
            object.__setattr__(self, "_tapes", _shared_tapes(groups))
        return self._tapes

    def has_dual(self) -> bool:
        return self.dual_components is not None

    def dual_point(self, s: float) -> MVec3:
        if self.dual_components is None:
            raise ValueError(f"curve {self.name!r} has no explicit dual components")
        return self._at(1, s)

    def dual_jet(self, s0: float, order: int) -> MVec3:
        if self.dual_components is None:
            raise ValueError(f"curve {self.name!r} has no explicit dual components")
        return self._at(1, s0, order)
