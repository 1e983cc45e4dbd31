"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install` replaces the public functions and methods of each hypedal
module with timing wrappers.  Every wrapper keeps exact call counts and
self time (its duration minus the time covered by wrapped callees).
Coarse boundaries (one CLI call, a curve load, a singular-point scan, a
classification) also record a span: name, op id, start, end and parent.
High-volume layers (jets, minkowski, expr, frame evaluators) only
aggregate, because a single `caustic` call makes millions of such calls.

Names bound at import (`from .minkowski import inner` and the like, and
the `jets.ELEMENTARY` table) are rebound in every module that holds them,
so every call site goes through a wrapper.  `coverage_check` verifies that
with an independent count taken by `sys.setprofile`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

_perf = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not double counted
        self.active = 0
        self.errors = 0


# Multiply-adds of the convolution recurrences in hypedal.jets, as a function
# of the truncation order n.  They are computed from the loop bounds, not
# counted at run time.
def _madds_mul(n):
    return (n + 1) * (n + 2) // 2


def _madds_div(n):
    return n * (n + 1) // 2


def _madds_sqrt(n):
    return n * (n - 1) // 2


def _madds_sincos(n):
    return n * (n + 1)


_JET_OPS = {
    "__add__": None, "__radd__": None, "__sub__": None, "__rsub__": None, "__neg__": None,
    "__mul__": _madds_mul, "__rmul__": _madds_mul,
    "__truediv__": _madds_div, "__rtruediv__": None, "__pow__": None,
    "sqrt": _madds_sqrt, "recip": None,
    "sin": _madds_sincos, "cos": _madds_sincos, "sinh": _madds_sincos,
    "cosh": _madds_sincos, "tanh": _madds_sincos, "asinh": None,
}

# (module, function, records a span)
_FUNCTIONS = [
    ("cli", "main", True),
    ("io", "load_curve", True), ("io", "curve_from_dict", False), ("io", "csv_text", True),
    ("io", "json_text", True), ("io", "parse_csv", False), ("io", "project_poincare", False),
    ("io", "render_svg", True), ("io", "disk_runs", True),
    ("expr", "parse", False), ("expr", "eval_scalar", False), ("expr", "eval_jet", False),
    ("expr", "to_text", False),
    ("jets", "sqrt", False), ("jets", "sin", False), ("jets", "cos", False), ("jets", "sinh", False),
    ("jets", "cosh", False), ("jets", "tanh", False), ("jets", "asinh", False),
    ("jets", "recip", False), ("jets", "powi", False), ("jets", "constant_part", False),
    ("jets", "derivative", False), ("jets", "vanishing_order", False), ("jets", "compose", False),
    ("minkowski", "inner", False), ("minkowski", "wedge", False), ("minkowski", "det3", False),
    ("minkowski", "euclid_norm_sq", False), ("minkowski", "pseudo_norm", False),
    ("minkowski", "causal_class", False), ("minkowski", "on_hyperboloid", False),
    ("minkowski", "on_upper_hyperboloid", False), ("minkowski", "on_desitter", False),
    ("minkowski", "boost_to_origin", False),
    ("frontal", "frenet_regular", False), ("frontal", "reparametrized", False),
    ("constructions", "pedal", True), ("constructions", "orthotomic", True),
    ("constructions", "evolute", True), ("constructions", "catacaustic", True),
    ("constructions", "pedal_induced", True), ("constructions", "orthotomic_induced", True),
    ("constructions", "pedal_regular", False), ("constructions", "pedal_derivative", False),
    ("constructions", "pedal_point", False), ("constructions", "orthotomic_point", False),
    ("constructions", "singular_points", True), ("constructions", "scalar_zeros", True),
    ("singularity", "classify_pedal", True), ("singularity", "measure_exponents", True),
    ("singularity", "detect_Ak", False), ("singularity", "location_case", False),
    ("singularity", "dual_identity_check", True),
]

# (module, class, methods, records a span)
_METHODS = [
    ("jets", "Jet", tuple(_JET_OPS) + ("truncate", "d_ds", "eval_at_offset", "constant", "variable"),
     False),
    ("minkowski", "MVec3", ("components", "map", "__add__", "__sub__", "__neg__", "__mul__",
                            "__rmul__", "__truediv__"), False),
    ("minkowski", "LorentzMap", ("apply", "inverse"), False),
    ("expr", "ParametricCurve", ("grid", "point", "point_jet", "has_dual", "dual_point",
                                 "dual_jet"), False),
    ("frontal", "LegendrePair", ("r", "v", "mu", "r_jet", "v_jet", "mu_jet", "curvatures",
                                 "curvature_jets"), False),
    ("frontal", "LegendrePair", ("validate", "from_curve", "with_auto_dual"), True),
    ("frontal", "AutoDual", ("__init__",), True),
    ("frontal", "AutoDual", ("__call__", "jet"), False),
    ("constructions", "DerivedCurve", ("singular_points",), True),
    ("constructions", "PedalCurve", ("at", "jet", "induced"), False),
    ("constructions", "OrthotomicCurve", ("at", "jet", "induced"), False),
    ("constructions", "EvoluteCurve", ("at", "jet", "at_with_branch", "branch"), False),
    ("constructions", "PedalInducedPair", ("ell_closed_form",), False),
    ("constructions", "OrthotomicInducedPair", ("ell_closed_form",), False),
]


class Tracer:
    """Counts, self times and spans for the wrapped hypedal functions."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}  # wrapper name -> wrapped function
        self.stack: list[list[float]] = []  # per active call: [time covered by callees]
        self.spans: list[tuple] = []  # (name, op, start, end, parent index)
        self._span_stack: list[int] = []
        self.op = 0
        self.counters = Counter()
        self._distinct: set = set()

    # -- bookkeeping -----------------------------------------------------

    def reset(self):
        for st in self.stats.values():
            st.calls = st.errors = 0
            st.self_s = st.incl_s = 0.0
        self.spans.clear()
        self.counters.clear()
        self._distinct.clear()

    def begin_op(self, op: int):
        self.op = op

    def end_op(self):
        # eval_jet repeats are counted within one op: that is what a memo
        # held by one LegendrePair could reuse.
        self.counters["eval_jet_distinct"] += len(self._distinct)
        self._distinct.clear()

    def layer(self, prefix: str, field: str) -> float:
        return sum(getattr(st, field) for name, st in self.stats.items()
                   if name.startswith(prefix))

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, span=False, enter=None, leave=None):
        st = self.stats.setdefault(name, Stat())
        self.originals[name] = fn
        stack = self.stack
        spans = self.spans
        span_stack = self._span_stack

        def wrapper(*args, **kw):
            token = enter(args, kw) if enter is not None else None
            frame = [0.0]
            stack.append(frame)
            if span:
                index = len(spans)
                spans.append(None)
                parent = span_stack[-1] if span_stack else -1
                span_stack.append(index)
            st.active += 1
            t0 = _perf()
            result = None
            try:
                result = fn(*args, **kw)
                return result
            except BaseException:
                st.errors += 1
                raise
            finally:
                t1 = _perf()
                elapsed = t1 - t0
                st.active -= 1
                stack.pop()
                st.calls += 1
                st.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not st.active:
                    st.incl_s += elapsed
                if span:
                    span_stack.pop()
                    spans[index] = (name, self.op, t0, t1, parent)
                if leave is not None:
                    leave(token, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, hp):
        """Wrap every listed function and method of the modules in `hp`."""
        mods = vars(hp)
        replaced = {}
        for layer, fname, span in _FUNCTIONS:
            fn = getattr(mods[layer], fname)
            enter, leave = self._hooks(f"{layer}.{fname}")
            w = self.wrap(f"{layer}.{fname}", fn, span, enter, leave)
            replaced[id(fn)] = (fn, w)
            setattr(mods[layer], fname, w)
        # Rebind names imported from another module, and the dispatch table
        # that expr uses for elementary functions.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("hypedal"):
                continue
            for key, value in list(vars(mod).items()):
                fn, w = replaced.get(id(value), (None, None))
                if fn is value:
                    setattr(mod, key, w)
        table = mods["jets"].ELEMENTARY
        for key, value in list(table.items()):
            fn, w = replaced.get(id(value), (None, None))
            if fn is value:
                table[key] = w

        for layer, cname, methods, span in _METHODS:
            cls = getattr(mods[layer], cname)
            for attr in methods:
                raw = cls.__dict__[attr]
                name = f"{layer}.{cname}.{attr}"
                enter, leave = self._hooks(name)
                if isinstance(raw, (staticmethod, classmethod)):
                    w = type(raw)(self.wrap(name, raw.__func__, span, enter, leave))
                else:
                    w = self.wrap(name, raw, span, enter, leave)
                setattr(cls, attr, w)

    # -- per-function counters ------------------------------------------------

    def _hooks(self, name):
        c = self.counters
        short = name.rsplit(".", 1)[-1]
        if name.startswith("jets.Jet.") and short in _JET_OPS:
            madds = _JET_OPS[short]

            def enter(args, kw):
                n = len(args[0].coeffs) - 1
                c["jet_ops"] += 1
                if n <= 3:
                    c["jet_ops_low"] += 1
                elif n >= 17:
                    c["jet_ops_high"] += 1
                if madds is not None:
                    c["jet_madds"] += madds(n)
            return enter, None
        if name == "expr.eval_jet":
            distinct = self._distinct

            def enter(args, kw):
                distinct.add((id(args[0]), float(args[1]), args[2]))
            return enter, None
        if name.startswith("constructions.") and short == "jet":
            def enter(args, kw):
                c["derived_jet_calls"] += 1
            return enter, None
        if name == "constructions.singular_points":
            def enter(args, kw):
                samples = kw.get("samples", args[1] if len(args) > 1 else 1000)
                return c["derived_jet_calls"], samples

            def leave(token, result):
                start, samples = token
                c["grid_evals"] += samples
                c["refine_evals"] += c["derived_jet_calls"] - start - samples
                if result is not None:
                    c["singular_found"] += len(result)
            return enter, leave
        if name == "singularity.classify_pedal":
            def leave(token, result):
                if result is None:
                    return
                c["verdict_" + result.verdict.value] += 1
                if isinstance(result.measured, tuple):
                    c["singular_germ"] += 1
            return None, leave
        if name in ("io.csv_text", "io.json_text", "io.render_svg"):
            stat = self.stats.setdefault(name, Stat())

            def leave(token, result):
                # nested json_text calls are part of their outermost call
                if result is not None and not stat.active:
                    c["bytes_out"] += len(result.encode())
            return None, leave
        return None, None


def coverage_check(tracer: Tracer, run) -> list[str]:
    """Run `run()` under both the tracer and `sys.setprofile`.

    Returns the wrapped functions whose wrapper count differs from the
    number of times their code actually ran; an empty list means every
    call site reached a wrapper.
    """
    codes = {}
    for name, fn in tracer.originals.items():
        codes.setdefault(fn.__code__, []).append(name)
    before = {name: tracer.stat(name).calls for name in tracer.originals}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in codes:
                seen[code] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    problems = []
    for code, names in codes.items():
        wrapped = sum(tracer.stat(n).calls - before[n] for n in names)
        if wrapped != seen[code]:
            problems.append(f"{'/'.join(names)}: wrapped {wrapped}, ran {seen[code]}")
    return problems
