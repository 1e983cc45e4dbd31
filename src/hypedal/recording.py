"""Formulas written for `Jet`s, recorded as straight-line programs.

A formula such as a derived curve's runs once on `Node`s, jets whose
operators add the steps of `hypedal.program`'s format, and the program is
then generated as one Python function (`hypedal.program.inline_program`).
The library imports this module with the first derived-curve jet, or the
first `classify_pedal`, it runs.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .expr import _k_add, _k_div, _k_lift, _k_mul, _k_neg, _k_scale, _k_sqrt, _k_sub, _Steps
from .frontal import LegendrePair, _ell_m, _truncate
from .jets import Jet, require_finite
from .minkowski import MVec3, wedge
from .program import _k_d, _k_trunc, inline_program


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
    them: a scalar c is lifted to (c, 0.0, ...) for + - /, and scales as
    x*c + 0.0 for *.  Anything else a formula might ask of a `Jet` raises,
    and the formula is then not recorded.
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
    __sub__, __rsub__ = _binary(_k_sub), _binary(_k_sub, True)
    __truediv__, __rtruediv__ = _binary(_k_div), _binary(_k_div, True)
    del _binary

    def __mul__(self, other):
        if isinstance(other, Node):
            return self._step(_k_mul, self.node, self._operand(other))
        c = self._constant(other)
        return NotImplemented if c is None else self._step(_k_scale, self.node, c)

    __rmul__ = __mul__

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

    def _unrecorded(self, *args):
        raise TypeError("this jet operation is not recorded")

    __pow__ = recip = sin = cos = sinh = cosh = tanh = asinh = eval_at_offset = _unrecorded


class Recording(_Steps):
    """A formula written for `Jet`s, recorded as steps: it runs on the
    `Node`s of `input` and the `Param` coordinates of `point`."""

    def __init__(self):
        super().__init__()
        self.shapes = {}  # input node -> its number of coefficients, in the order asked for
        self.keys = []  # the key of each input, in that order
        self.params = 0

    def input(self, key, order: int) -> Node:
        """The jet of order `order` given under `key`."""
        node = self._node(None, None, key)
        if node not in self.shapes:
            self.shapes[node] = order + 1
            self.keys.append(key)
        return Node(self, node, order + 1)

    def point(self) -> MVec3:
        """A point whose coordinates are given when the function runs, as the
        values that its `Param.index`es index."""
        self.params += 3
        return MVec3(*(Param(self.params - 3 + i) for i in range(3)))


def record(formula):
    """(function, constants, input keys) of formula(recording), a `Jet`
    formula run on a `Recording`'s inputs and points, or None where it does
    not record or inline.  The function takes the coefficient sequences of
    the inputs, in the order of the keys, and returns the coefficient lists
    of the jets the formula returns (a tuple of jets or an `MVec3`)."""
    recording = Recording()
    try:
        outputs = formula(recording)
    except (TypeError, ValueError, ArithmeticError, AttributeError):  # not recordable
        return None
    nodes = [out.node for out in (outputs.components() if isinstance(outputs, MVec3) else outputs)]
    inline = inline_program(recording._program(nodes), recording.shapes, nodes)
    return None if inline is None else (*inline, recording.keys)


# -- derived-curve formulas ----------------------------------------------------
#
# A derived curve's `_formula`, and each jet evaluator of an induced pair, is
# recorded once per formula, order and shape of its pair: the induced pairs
# it is built through, and whether the pair they start from gives mu itself.
# Each jet (r | v | mu, order) that the formula asks of that pair is an
# input, and the coordinates of each pedal point Q are parameters, so nothing
# recorded depends on Q.  Where that pair reads r and v from a curve's tape
# (`LegendrePair.from_curve`), the inputs are the coefficient lists of the
# tape's memo; otherwise they are those of the jets its evaluators give.


def derived_program(formula, pair, Q, order: int):
    """program(s0) -> (base, the coefficient lists of the jets that
    formula(pair, Q, s0, order) returns) from the generated function, or None
    where that gives no answer; None where there is none, or where a point is
    not given in floats (a pair being recorded)."""
    from .constructions import OrthotomicInducedPair, PedalInducedPair

    chain = []
    while type(pair) in (PedalInducedPair, OrthotomicInducedPair):
        chain.append(pair)
        pair = pair.source
    if type(pair) is not LegendrePair:  # formulas other than the ones recorded here
        return None
    points = [induced.Q for induced in reversed(chain)] + ([] if Q is None else [Q])
    values = [c for point in points for c in point.components()]
    if any(isinstance(c, Param) for c in values):
        return None
    values = [float(c) for c in values]
    if not all(map(math.isfinite, values)):
        return None
    has_mu = pair._mu_jet is not None
    recorded = _record_on_pair(formula, tuple(type(p) for p in chain), has_mu, Q is not None,
                               order)
    if recorded is None:
        return None
    function, consts, keys = recorded
    consts = tuple(values[c.index] if isinstance(c, Param) else c for c in consts)
    # each jet of the source comes as three inputs, its x1, x2 and x3
    leaves = [(kind, k) for kind, k, i in keys if i == 0]
    if pair._curve is not None and not has_mu:
        groups = [(_GROUPS[kind], k) for kind, k in leaves]
        return partial(_run_on_tape, pair._curve._tape_values, groups, function, consts)
    leaves = [(getattr(pair, f"{kind}_jet"), k) for kind, k in leaves]
    return partial(_run_on_jets, leaves, function, consts)


_GROUPS = {"r": 0, "v": 1}  # the tape group of each jet of a `from_curve` pair


def _run_on_tape(values_at, groups, function, consts, s0):
    """(base, function(the coefficient lists that `values_at` reads at s0 for
    each (group, order) of `groups`, consts)), or None where the function
    returns None or anything raises."""
    given = []
    try:
        for group, k in groups:
            point, values = values_at(group, s0, k)
            given += values
        out = function(given, consts)
        return None if out is None else (point.base, out)
    except Exception:  # the checked path raises what it raises
        return None


def _run_on_jets(leaves, function, consts, s0):
    """(base, function(the coefficients of the jets that each (evaluator,
    order) of `leaves` gives at s0, consts)), or None where the function
    returns None or anything raises, or where the jets differ in their base,
    the sign of zero included."""
    try:
        given = [j for leaf, k in leaves for j in leaf(s0, k).components()]
    except Exception:  # the checked path raises what it raises
        return None
    base = given[0].base
    sign = math.copysign(1.0, base)
    for j in given:
        if j.base != base or (not base and math.copysign(1.0, j.base) != sign):
            return None
    try:
        out = function([j.coeffs for j in given], consts)
    except Exception:  # the checked path raises what it raises
        return None
    return None if out is None else (base, out)


@lru_cache(maxsize=64)
def _record_on_pair(formula, kinds: tuple, has_mu: bool, with_q: bool, order: int):
    """`record` of formula(pair, Q, s0, order) on a pair built by `kinds` (induced
    pair classes, outermost first) around one whose r, v and, if `has_mu`, mu
    jets are inputs; Q a point if `with_q`."""
    def on_inputs(recording):
        def inputs(kind):
            return lambda s0, k: MVec3(*(recording.input((kind, k, i), k) for i in range(3)))

        pair = LegendrePair(None, inputs("r"), None, inputs("v"), (0.0, 1.0), name="recorded",
                            mu_jet=inputs("mu") if has_mu else None)
        for cls in reversed(kinds):
            pair = cls(pair, recording.point())
        return formula(pair, recording.point() if with_q else None, 0.0, order)

    return record(on_inputs)


@lru_cache(maxsize=16)
def evolute_tail(branch, order: int):
    """`record` of `EvoluteCurve._scaled` on the branch, from inputs d2 and then
    m r - ell v."""
    from .constructions import EvoluteCurve

    def scaled(recording):
        d2 = recording.input("d2", order)
        return EvoluteCurve._scaled(branch, d2, MVec3(*(recording.input(("num", i), order)
                                                        for i in range(3))))

    return record(scaled)


# -- the germs of `singularity.classify_pedal` ---------------------------------


def pedal_germs(pair, Q, s0, order: int):
    """(base, ell, m, P): the coefficient lists of the curvature jets of order
    `order` at s0 and of the pedal germ's three components, from the
    generated function of a `from_curve` pair; None where that gives no
    answer, and for other pairs, whose jets at `order` need not be those at
    order + 1 truncated (`AutoDual` factors r' by its vanishing power, read
    at a depth that grows with the order).  r and v are read once, at
    order + 1."""
    if pair._curve is None:
        return None
    program = derived_program(_germs, pair, Q, order)
    out = None if program is None else program(s0)
    if out is None:
        return None
    base, (ell, m, *P) = out
    return base, ell, m, P


def _germs(pair, Q, s0, order):
    """`LegendrePair.curvature_jets` and the pedal germ P = `pedal_point`(Q, v),
    with r and v at order truncated from the jets at order + 1 that ell and m
    need, as the memo of a `from_curve` pair truncates them."""
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
    try:
        out = None if recorded is None else recorded[0](P, recorded[1])
    except Exception:  # the formula raises what it raises
        return None
    return None if out is None else out[0]


@lru_cache(maxsize=16)
def _det_program(order: int):
    """`record` of det(P, P', P'') from the three components of P, inputs of order `order`."""
    from .singularity import _det_jet

    return record(lambda recording: (
        _det_jet(MVec3(*(recording.input(i, order) for i in range(3)))),))
