"""Formulas written for `Jet`s and floats, recorded as straight-line programs.

A formula such as a derived curve's runs once on `Node`s, jets whose
operators add the steps of `hypedal.program`'s format, and on `Scalar`s,
the floats of a sample formula, whose operators add float steps; the
program is then generated as one Python function
(`hypedal.program.inline_program`), which a curve's derived curves run on a
read of the curve's tapes (`hypedal.program.tape_read`) or of an auto-dual
pair's (`frontal.auto_dual_read`).  The library imports this
module with the first derived-curve jet or sample, curvature pair,
`classify_pedal` or `AutoDual` jet it runs.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, partial

from . import jets
from .expr import (
    _F_BINARY, _f_call, _k_add, _k_div, _k_lift, _k_mul, _k_neg, _k_sqrt, _k_sub, _Steps,
)
from .frontal import LegendrePair, _ell_m, _jet_degree, _truncate, _unit_normal, auto_dual_read
from .jets import Jet, JetDomainError, answer, require_finite
from .minkowski import MVec3, wedge
from .program import (
    INLINE_WIDTH, _f_branch, _f_const, _f_sheet, _k_coeff, _k_d, _k_flip, _k_trunc, inline_program,
    tape_read,
)


class Param:
    """A scalar that a recorded formula reads, such as a coordinate of the
    pedal point Q; its value is an argument of the generated function."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # the order in which the recording made it


class Node(Jet):
    """A jet of a formula being recorded.

    Each `Jet` operator that the derived-curve formulas use adds the step
    that computes it, with the operands in the roles that operator gives
    them: a scalar c is lifted to (c, 0.0, ...).  Anything else a formula
    might ask of a `Jet` raises, and the formula is then not recorded.
    """

    def __init__(self, recording: "Recording", node: int, width: int):
        self.__dict__.update(recording=recording, node=node, width=width)  # Jet is frozen

    @property
    def order(self) -> int:
        return self.width - 1

    def _step(self, fn, x, y=None, width=None):
        return Node(self.recording, self.recording._node(fn, x, y), width or self.width)

    @staticmethod
    def _constant(c):
        """A scalar operand as a step constant, or None if it is none."""
        if isinstance(c, (int, float)):
            return require_finite((float(c),))[0]
        return c if isinstance(c, Param) else None

    def _operand(self, other, jets_too=True):
        """The node of a jet operand, a scalar's (c, 0.0, ...), or None."""
        if isinstance(other, Node) and jets_too:
            if other.width != self.width:
                raise ValueError("jet order mismatch")
            return other.node
        c = self._constant(other)
        return None if c is None else self.recording._node(_k_lift, self.node, c)

    def _binary(fn, reflected=False):
        """The operator `fn`, or its reflection, which `Jet` has for scalars only."""
        def method(self, other):
            y = self._operand(other, not reflected)
            if y is None:
                return NotImplemented
            return self._step(fn, y, self.node) if reflected else self._step(fn, self.node, y)
        return method

    __add__ = __radd__ = _binary(_k_add)  # jet + c and c + jet both compute a_0 + c
    __mul__ = __rmul__ = _binary(_k_mul)  # jet * c and c * jet both compute a_k*c + 0.0
    __sub__, __rsub__ = _binary(_k_sub), _binary(_k_sub, True)
    __truediv__, __rtruediv__ = _binary(_k_div), _binary(_k_div, True)
    del _binary

    def __neg__(self):
        return self._step(_k_neg, self.node)

    def sqrt(self):
        return self._step(_k_sqrt, self.node)

    def d_ds(self):
        if self.width < 2:
            raise ValueError("cannot differentiate an order-0 jet")
        return self._step(_k_d, self.node, width=self.width - 1)

    def truncate(self, order: int):
        if order > self.order:
            raise ValueError("cannot truncate to a higher order")
        return self if order == self.order else self._step(_k_trunc, self.node, order, order + 1)

    @property
    def coeffs(self):
        """The coefficients, each a `Scalar` that reads it."""
        return tuple(Scalar(self.recording, self.recording._node(_k_coeff, self.node, k))
                     for k in range(self.width))

    # the evolute's signs, which only recorded formulas compute (see `program._f_branch`)
    def branch_sign(self, ll):
        """The branch sign of this m^2 and of ell^2, a `Scalar`."""
        return Scalar(self.recording, self.recording._node(_f_branch, self.node, ll.node))

    def sheet_sign(self, x1):
        """The upper-sheet sign of this branch sign and of the point's x1, a `Scalar`."""
        return Scalar(self.recording, self.recording._node(_f_sheet, self.node, x1.node))

    def flip(self, sign):
        """Each coefficient times a sign, +-1.0."""
        return self._step(_k_flip, self.node, sign.node)

    def _unrecorded(self, *args):
        raise TypeError("this jet operation is not recorded")

    __pow__ = recip = sin = cos = sinh = cosh = tanh = asinh = eval_at_offset = _unrecorded


class Scalar(Node):
    """A float of a formula being recorded.

    Its operators add the float steps of `expr`'s float programs, with the
    operands in the order the float operation has them; a scalar operand
    is a constant step.  `jets.sqrt` reaches `sqrt` because a `Scalar` is
    a `Jet`.
    """

    def __init__(self, recording: "Recording", node: int):
        super().__init__(recording, node, 0)

    def _step(self, fn, x, y=None, width=None):
        return Scalar(self.recording, self.recording._node(fn, x, y))

    def _operand(self, other):
        if isinstance(other, Scalar):
            return other.node
        c = self._constant(other)
        return None if c is None else self.recording._node(_f_const, self.node, c)

    def _binary(op, reflected=False):
        """The float operator `op`, or its reflection, on a `Scalar` or a scalar."""
        fn = _F_BINARY[op]

        def method(self, other):
            y = self._operand(other)
            if y is None:
                return NotImplemented
            return self._step(fn, y, self.node) if reflected else self._step(fn, self.node, y)
        return method

    __add__, __radd__ = _binary("+"), _binary("+", True)
    __sub__, __rsub__ = _binary("-"), _binary("-", True)
    __mul__, __rmul__ = _binary("*"), _binary("*", True)
    __truediv__, __rtruediv__ = _binary("/"), _binary("/", True)
    del _binary

    def __neg__(self):
        return self._step(_f_call, self.node, operator.neg)

    def sqrt(self):
        return self._step(_f_call, self.node, math.sqrt)

    def flip(self, sign):
        return self * sign

    coeffs = property(Node._unrecorded)
    d_ds = truncate = Node._unrecorded


class Recording(_Steps):
    """A formula written for `Jet`s, recorded as steps: it runs on the
    `Node`s of `input` and the `Param` coordinates of `point`."""

    def __init__(self):
        super().__init__()
        self.shapes = {}  # input node -> its number of coefficients, in the order asked for
        self.keys = []  # the key of each input, in that order
        self.params = 0

    def input(self, key, order: int | None) -> Node:
        """The jet of order `order` given under `key`, or the float if `order` is None."""
        node = self._node(None, None, key)
        if node not in self.shapes:
            self.shapes[node] = 0 if order is None else order + 1
            self.keys.append(key)
        return Scalar(self, node) if order is None else Node(self, node, order + 1)

    def point(self) -> MVec3:
        """A point whose coordinates are given when the function runs, as the
        values that its `Param.index`es index."""
        self.params += 3
        return MVec3(*(Param(self.params - 3 + i) for i in range(3)))

    def _program(self, roots):
        """The steps of roots and what they depend on, in the order the
        formula computed them, so that a refusal that the function answers
        as final is the first error the formula meets (`hypedal.program`)."""
        return tuple(sorted(super()._program(roots)))


def _steps(formula):
    """(recording, output nodes) of formula(recording), a `Jet` formula run on
    a `Recording`'s inputs and points, or None where it does not record."""
    recording = Recording()
    try:
        outputs = formula(recording)
    except (TypeError, ValueError, ArithmeticError, AttributeError):  # not recordable
        return None
    return recording, [out.node for out in (outputs.components() if isinstance(outputs, MVec3)
                                            else outputs)]


def record(formula):
    """(function, constants, input keys) of `_steps`' recording, or None where
    it does not record or inline.  The function takes the coefficient
    sequences of the inputs, in the order of the keys, and returns the
    coefficient lists of the jets the formula returns (a tuple of jets or an
    `MVec3`)."""
    recorded = _steps(formula)
    if recorded is None:
        return None
    recording, nodes = recorded
    inline = inline_program(recording._program(nodes), recording.shapes, nodes)
    return None if inline is None else (*inline, recording.keys)


# -- derived-curve formulas ----------------------------------------------------
#
# A derived curve's `_formula` is recorded once per formula, order and the
# induced pairs it is built through, on a pair whose values come from a
# curve.  Each jet (r | v, order) that the formula asks of the pair the
# induced pairs start from is an input, and the coordinates of each pedal
# point Q are parameters, so nothing recorded depends on Q.  A sample
# formula (order None), such as `LegendrePair.curvatures` or a derived
# curve's `_sample`, computes floats at s from the floats r and v of that
# pair, and from coefficient 1 of jets of order 1.  An induced pair's r, v
# and mu jets are recorded into the formulas that read them, from that
# pair's, and get no program of their own.
#
# Every program has one shape: a generated read of s, then the recording's
# function, both run by `_run` under one guard that refuses as `jets.answer`
# does; where either refuses plainly, the formula runs, and a final refusal
# raises its error.  The recording's inputs, in `_leaf_order`, come in
# leaves, each a jet or float triple of r or v.  Where the pair reads r and v
# from a curve's tapes (`LegendrePair.from_curve`), or the formula reads r
# alone, the read is `program.tape_read` of the leaves; elsewhere on an
# auto-dual pair it is `frontal.auto_dual_read` (`_leaf_read`).  Both are kept
# with the curve's tapes, so formulas of one leaf set share one read.  The
# function is compiled once per process (`_record_on_pair`) and shared by
# every curve; one of jets wider than `program.INLINE_WIDTH` coefficients,
# such as `classify_pedal`'s order-22 germs, once per set of the degree
# bounds that its tape read states, so that its products call the kernels
# bound to them.  Where there is no read or no function, the formula runs on
# the curve's reads (`ParametricCurve._tape_values`), which raise past
# `jets.MAX_ORDER`.  At a grid point of a derived curve's singular-point
# scan, a sample and an order-2 jet whose reads run a tape program in common
# take their inputs from one read of the union of their leaves
# (`sampled_jet_program`), so that it runs once per grid point; where that
# gives no answer, each runs as above.
# An evolute's formulas return its branch sign with its point, both computed
# by steps of the program (`Node.branch_sign`), which ends, answering the
# sign 0.0 alone, where the branch is degenerate.  Formulas on other pairs
# (reparametrized, built by hand) get no program and run as written.


def derived_program(formula, pair, Q, order: int | None):
    """program(s0) -> (base, the coefficient lists of the jets that
    formula(pair, Q, s0, order) returns) from the generated read and
    function, or None where they give no answer; None where there is none:
    where the pair does not read r from a curve's tapes (reparametrized and
    hand-built pairs, and the pair a formula is recorded on, run their
    `Jet`/`MVec3` formulas), where a point is not finite, or where the
    formula does not record or its read or function does not inline.  For a
    sample formula (`order` None), program(s) -> the list of the floats it
    returns."""
    from .constructions import OrthotomicInducedPair, PedalInducedPair

    chain = []
    source = pair
    while type(source) in (PedalInducedPair, OrthotomicInducedPair):
        chain.append(source)
        source = source.source
    if type(source) is not LegendrePair or source._r_curve is None:
        return None  # formulas other than the ones recorded here, or not read from a curve
    points = [induced.Q for induced in reversed(chain)] + ([] if Q is None else [Q])
    values = [float(c) for point in points for c in point.components()]
    if not all(map(math.isfinite, values)):
        return None
    kinds = tuple(type(p) for p in chain)
    tapes, dual = source._r_curve._tape_set(), source._dual
    made = _read_and_function(tapes, formula, kinds, Q is not None, order, dual is not None)
    if made is None:
        return None
    read, function, consts, leaves, top = made
    program = partial(_run, read, None if top is None else dual._sign_at, function,
                      _given(consts, values), order is not None)
    program.tapes, program.leaves, program.top = tapes, leaves, top  # for `sampled_jet_program`
    return program


def _read_and_function(tapes, formula, kinds: tuple, with_q: bool, order: int | None,
                       auto: bool):
    """(read, function, constants, leaves, top) of formula recorded on a pair
    with these tapes (`ParametricCurve._tape_set`), an auto-dual pair's if
    `auto`, made once per tapes: `_leaf_read` of the recording's leaves, at
    degree `top` for an auto-dual read (None: a read of the tapes), and
    `_record_on_pair`'s function, given the bounds the read states where it
    is wide.  None where it does not record, or its read or function does
    not inline."""
    key = ("program", formula, kinds, with_q, order, auto)
    kept = tapes[2]
    if key not in kept:
        kept[key] = None
        recorded = _recorded(formula, kinds, with_q, order)
        if recorded is None:
            return None
        _, inputs, _, degree = recorded
        # each jet or float triple of the source comes as three inputs, its x1, x2 and x3
        leaves = tuple((kind, k) for (kind, k, i), _, _ in inputs if i == 0)
        top = None
        if auto and any(kind == "v" for kind, _ in leaves):
            # one read deep enough for every leaf, and for the p that each v leaf decides
            top = max(_jet_degree(k) if kind == "v" else max(k or 0, 1) for kind, k in leaves)
        read = _leaf_read(tapes, leaves, top)
        compiled = None if read is None else _record_on_pair(
            formula, kinds, with_q, order, read[1] if degree >= INLINE_WIDTH else None)
        if compiled is not None:
            kept[key] = read[0], *compiled, leaves, top
    return kept[key]


_GROUPS = {"r": 0, "v": 1}  # the tape group of each jet of a `from_curve` pair


def _given(consts, values):
    """The constants of a recorded function, each `Param` replaced by its value."""
    return tuple(values[c.index] if isinstance(c, Param) else c for c in consts)


def _leaf_read(tapes, leaves: tuple, top: int | None):
    """(read, bounds) of `leaves`, each (kind, order or None) in `_leaf_order`,
    from a curve's tapes (`ParametricCurve._tape_set`): where `top` is None,
    `program.tape_read` of each leaf's three components, with the bound on
    each jet's degree; else `frontal.auto_dual_read` at degree `top`, with
    no bounds.  None where there is no read."""
    if top is None:
        return tape_read(tapes, tuple((_GROUPS[kind], k, i) for kind, k in leaves
                                      for i in range(3)))
    read = auto_dual_read(tapes, leaves, top)
    return None if read is None else (read, None)


@lru_cache(maxsize=64)
def _recorded(formula, kinds: tuple, with_q: bool, order: int | None):
    """(program, inputs, outputs, degree) of formula(pair, Q, s0, order)
    recorded on a pair built by `kinds` (induced pair classes, outermost
    first) around one whose r and v jets and floats are inputs, Q a point if
    `with_q`: its steps, its inputs ((kind, order or None, component), node,
    width) in `_leaf_order`, whatever order the formula asks for them in,
    its output nodes and the highest order it reads, at least 1.  A sample
    formula (`order` None) reads the outermost pair's jets through its
    induced pairs' formulas.  None where it does not record, or where order
    or that degree is past `jets.MAX_ORDER`, so the formula raises as the
    tape's reads do."""
    if order is not None and order > jets.MAX_ORDER:
        return None
    recorded = _steps(_on_pair(formula, kinds, with_q, order))
    if recorded is None:
        return None
    recording, outputs = recorded
    inputs = sorted(((key, node, shape) for key, (node, shape)
                     in zip(recording.keys, recording.shapes.items())),
                    key=lambda given: _leaf_order(given[0]))
    degree = max([1] + [k for (_, k, _), _, _ in inputs if k is not None])
    if degree > jets.MAX_ORDER:
        return None
    return recording._program(outputs), tuple(inputs), tuple(outputs), degree


def _run(read, sign_at, function, consts, jet: bool, s):
    """function(read(s, sign_at), consts), and s before it for a jet program:
    a formula's function on the values of `program.tape_read` or of
    `auto_dual_read`.  None where the read or the function gives no answer,
    as `jets.answer` refuses, and the formula then runs on the curve's
    reads or on `AutoDual`'s evaluators; raises the error of a final
    refusal, which the formula would raise."""
    try:
        given = read(s, sign_at)
        out = None if given is None else function(given, consts)
    except jets.DOMAIN_ERRORS:
        return None
    if out.__class__ is JetDomainError:
        raise out
    return (float(s), out) if jet and out is not None else out


def sampled_jet_program(sample, jet):
    """program(s) -> (s, [sample's floats, jet's lists]), for the
    `derived_program`s of a sample formula and a jet formula on one pair
    whose leaves one kind of read gives (`_leaf_read`, at one top degree
    for an auto-dual read), and whose reads run a tape program in common
    (`_tapes_run`): a `_run` whose one read of the union of their leaves, in
    `_leaf_order`, gives each function the values of its own leaves
    (`_each`), so that program runs once at s.  None where they are not two
    such programs or there is no read; program(s) is None where the read or
    either function gives no answer or a final refusal, and the two then
    run apart."""
    if (sample is None or jet is None or sample.top != jet.top
            or not _tapes_run(sample) & _tapes_run(jet)):
        return None
    leaves = tuple(sorted({*sample.leaves, *jet.leaves}, key=_leaf_order))
    read = _leaf_read(sample.tapes, leaves, sample.top)
    if read is None:
        return None

    def picked(program):
        """program's function, its constants and a getter of its leaves' values."""
        at = [3 * leaves.index(leaf) + i for leaf in program.leaves for i in range(3)]
        return (*program.args[2:4], operator.itemgetter(*at))

    return partial(_run, read[0], sample.args[1], _each, (picked(sample), picked(jet)), True)


def _tapes_run(program):
    """The tape programs that a `derived_program`'s read runs: r's jet tape
    for an auto-dual read; each group's float or jet tape that its leaves
    read for a read of the tapes."""
    if program.top is not None:
        return {("r", False)}
    return {(kind, k is None) for kind, k in program.leaves}


def _each(given, parts):
    """The values of each (function, constants, getter of its leaves' values)
    of `parts` on one read, `given`; None where one gives no answer or a
    final refusal, whose error its own program raises when they run apart."""
    out = [function(at(given), consts) for function, consts, at in parts]
    return None if any(v is None or v.__class__ is JetDomainError for v in out) else out


@lru_cache(maxsize=64)
def _record_on_pair(formula, kinds: tuple, with_q: bool, order: int | None, bounds=None):
    """(function, constants) of `_recorded`'s recording, the function on the
    values of its inputs, in `_leaf_order`, so that formulas of one leaf set
    share one read; a recorded function, whose refusals may be final.  Keyed
    by the recording's structure, so every curve, and every pair that reads r
    and v in this order, shares one; and by the `bounds` on its inputs'
    degrees that a tape read states, which a wide function is given so that
    its products call the kernels bound to them (`program.inline_program`)."""
    recorded = _recorded(formula, kinds, with_q, order)
    if recorded is None:
        return None
    program, inputs, outputs, _ = recorded
    return inline_program(program, {node: shape for _, node, shape in inputs}, outputs,
                          final=True, bounds=bounds)


def _leaf_order(key):
    """The sort key of an input's (kind, order or None, component), or of a
    leaf's (kind, order or None): floats before jets, lower orders first."""
    kind, k, *i = key
    return kind, k is not None, k or 0, *i


def _on_pair(formula, kinds: tuple, with_q: bool, order: int | None):
    """formula(recording) of `_record_on_pair`."""
    def on_inputs(recording):
        def inputs(kind):
            return lambda s0, k: MVec3(*(recording.input((kind, k, i), k) for i in range(3)))

        def floats(kind):
            return lambda s: MVec3(*(recording.input((kind, None, i), None) for i in range(3)))

        # read from no curve, so `derived_program` makes no program for it and
        # its methods record their formulas too
        pair = LegendrePair(floats("r"), inputs("r"), floats("v"), inputs("v"), (0.0, 1.0),
                            name="recorded")
        for cls in reversed(kinds):
            pair = cls(pair, recording.point())
        return formula(pair, recording.point() if with_q else None, 0.0, order)

    return on_inputs


# -- the germs of `singularity.classify_pedal` ---------------------------------


def pedal_germs(pair, Q, s0, order: int):
    """(base, ell, m, P): the coefficient lists of the curvature jets of order
    `order` at s0 and of the pedal germ's three components, from the
    generated function of a `from_curve` pair; None where that gives no
    answer, and for other pairs, whose jets at `order` need not be those at
    order + 1 truncated (`AutoDual` factors r' by its vanishing power, read
    at a depth that grows with the order).  r and v are read once, at
    order + 1.  The error of a final refusal is returned, not raised: only
    P divides, so the formulas raise it after `classify_pedal`'s
    `location_case`."""
    if pair._curve is None:
        return None
    program = derived_program(_germs, pair, Q, order)
    try:
        out = None if program is None else program(s0)
    except JetDomainError as refusal:  # the only domain error that `_run` raises
        return refusal
    if out is None:
        return None
    base, (ell, m, *P) = out
    return base, ell, m, P


def _germs(pair, Q, s0, order):
    """`LegendrePair.curvature_jets` and the pedal germ P = `pedal_point`(Q, v),
    with r and v at order truncated from the jets at order + 1 that ell and m
    need: where those are defined, the jets at order of a `from_curve` pair
    are their truncations."""
    from .constructions import pedal_point

    rj = pair.r_jet(s0, order + 1)
    vj = pair.v_jet(s0, order + 1)
    v = _truncate(vj, order)
    return (*_ell_m(rj, vj, wedge(_truncate(rj, order), v)), *pedal_point(Q, v).components())


def pedal_det(P: list):
    """The coefficients of det(P, P', P'') (`singularity._det_jet`) of a germ
    whose components are coefficient lists of one length, from its
    generated function; None where that gives no answer."""
    recorded = _det_program(len(P[0]) - 1)
    out = None if recorded is None else answer(recorded[0], P, recorded[1])
    return None if out is None else out[0]


@lru_cache(maxsize=16)
def _det_program(order: int):
    """`record` of det(P, P', P'') from the three components of P, inputs of order `order`."""
    from .singularity import _det_jet

    return record(lambda recording: (
        _det_jet(MVec3(*(recording.input(i, order) for i in range(3)))),))


# -- the dual jet of `frontal.AutoDual` ----------------------------------------


@lru_cache(maxsize=jets.MAX_ORDER)
def auto_dual_program(order: int):
    """`record` of `frontal._unit_normal`, the dual jet before its sign, from
    inputs r (x1, x2, x3) and then w, the factored derivative, of order `order`."""
    return record(lambda recording: _unit_normal(
        *(MVec3(*(recording.input((kind, i), order) for i in range(3))) for kind in "rw")))
