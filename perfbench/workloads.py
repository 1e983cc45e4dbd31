"""The benchmark's workloads: what one op is, how ops are drawn, how they are checked.

A workload yields rounds of ops.  A round is a fixed mix of commands and
curves; only the continuous inputs (pedal points Q, parameters s0) are
drawn from the seeded generator, so every round of every run has the same
shape and a run's figures average over the draws.

Each op calls the library through a public entry point and returns what
it produced; its check then says how many output samples it delivered and,
if it failed, why.  Known defects stay in the mix on purpose (the evolute
and caustic `TypeError` from `constructions._bisect`, the cusp37
classification errors), so that their fixes show up as a falling failure
share.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

CURVES = ("astroid", "cusp23", "cusp37", "circle")
# the modules of src/hypedal, which are also the traced layers
MODULES = ("cli", "io", "expr", "jets", "minkowski", "frontal", "constructions", "singularity")

# Grid size of the CSV commands.  The curve files' default is 1000, but a
# render round at that grid takes 20-35 s of CPU time on a 2.1 GHz Xeon, so a
# run could not hold one whole round.  At 100 a round takes a few seconds.
# The singular-point scan refines each bracket it finds at a cost that does
# not grow with the grid, so refinement weighs more here than at the default
# grid; baseline.json records its share at both grids (`run.py --grid`).
GRID = 100
PROBE_GRID = 30
CLASSIFY_ORDER = 22
SHEET_RTOL = 1e-9  # the library's point-on-sheet tolerance

# The README's usage lines for check, curvatures and pedal: run without
# `--samples`, so at the curve file's default grid, which makes the CLI load
# the curve file a second time to read that default.
README_OPS = (
    ("check", "astroid", None),
    ("curvatures", "cusp23", None),
    ("pedal", "astroid", (1.0, 0.0, 0.0)),
)

# The README's figure invocations, compared byte for byte with tests/fixtures.
FIXTURES = (
    ("pedal", 1000, "astroid_pedal_center.svg"),
    ("caustic", 500, "astroid_caustic_center.svg"),
)

# Parameters where the shipped curves have cusps, and the normal form the
# README gives for the pedal germ there with Q = r(s0).
SPECIAL_S0 = {
    "astroid": (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi),
    "cusp23": (0.0,),
    "cusp37": (0.0,),
}
GOLDEN = {"astroid": (3, 4), "cusp23": (3, 4), "cusp37": (7, 11)}


@dataclass
class Context:
    hp: SimpleNamespace
    work: Path
    curve_paths: dict
    curves: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    fixtures: dict = field(default_factory=dict)
    streams: dict = field(default_factory=dict)  # (curve, command) -> PointStream


@dataclass
class Op:
    command: str
    curve: str
    run: Callable[[Context], object]
    # check(output) -> (samples delivered, failure label or None, output was wrong)
    check: Callable[[object], tuple]
    # the op carries a required check (fixture bytes, `check` PASS, golden
    # verdict), so raising or exiting non-zero makes its output wrong too
    required: bool = False


def import_hypedal() -> SimpleNamespace:
    """A fresh import of every hypedal module, so each set-up pays for it."""
    for name in [n for n in sys.modules if n == "hypedal" or n.startswith("hypedal.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"hypedal.{m}") for m in MODULES})


def h2_point(rho: float, phi: float):
    return (math.cosh(rho), math.sinh(rho) * math.cos(phi), math.sinh(rho) * math.sin(phi))


def random_h2_point(rng, rho_max: float = 1.2):
    return h2_point(rng.uniform(0.1, rho_max), rng.uniform(0.0, 2.0 * math.pi))


class PointStream:
    """Pedal points with the distribution of `random_h2_point`, spread evenly.

    Consecutive points follow the R2 low-discrepancy sequence (Roberts 2018)
    from a start drawn from the seed.  Whether `caustic` crashes depends on
    Q, and a run draws only a few dozen Q per command; evenly spread draws
    make the crash share of a run vary less from seed to seed than
    independent ones.
    """

    _STEP = (0.7548776662466927, 0.5698402909980532)  # 1/g, 1/g^2, g the plastic number

    def __init__(self, rng, rho_max: float = 1.2):
        self.u = (rng.random(), rng.random())
        self.rho_max = rho_max

    def next(self):
        self.u = tuple((u + a) % 1.0 for u, a in zip(self.u, self._STEP))
        return h2_point(0.1 + (self.rho_max - 0.1) * self.u[0], 2.0 * math.pi * self.u[1])


def _off_sheet(rows) -> bool:
    for _, x1, x2, x3 in rows:
        q = -x1 * x1 + x2 * x2 + x3 * x3
        if x1 <= 0.0 or abs(q + 1.0) > SHEET_RTOL * max(1.0, x1 * x1):
            return True
    return False


def cli_op(ctx: Context, command: str, curve: str, samples: int | None, point=None,
           svg: bool = False, fixture: str | None = None) -> Op:
    """One `hypedal.cli.main` call; `fixture` names the file its SVG must equal.

    `samples=None` leaves out `--samples`, so the curve file's default applies.
    """
    out = ctx.work / (f"{command}.svg" if svg else f"{command}.csv")
    argv = [command, "--curve", str(ctx.curve_paths[curve])]
    if point is not None:
        argv += ["--point", ",".join(repr(x) for x in point)]
    if svg:
        argv += ["--format", "svg"]
    if samples is not None:
        argv += ["--samples", str(samples)]
    if command != "check":
        argv += ["--out", str(out)]
    n = samples or ctx.curves[curve].samples
    required = command == "check" or fixture is not None

    def run(ctx):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = ctx.hp.cli.main(argv)
        return rc, stdout.getvalue()

    def check(result):
        rc, stdout = result
        if rc != 0:
            return 0, f"exit {rc}", required
        if command == "check":
            return (n, None, False) if stdout.rstrip().endswith("PASS") else (0, "check:report", True)
        data = out.read_bytes()
        out.unlink()
        with contextlib.suppress(FileNotFoundError):
            out.with_name(out.stem + ".singular.json").unlink()
        if svg:
            if fixture and data != ctx.fixtures[fixture]:
                return 0, "check:fixture-bytes", True
            return n, None, False
        rows = [[float(x) for x in line.split(",")] for line in data.decode().splitlines()[1:] if line]
        if command == "curvatures" and len(rows) != n:
            return 0, "check:row-count", True
        if command in ("pedal", "orthotomic") and _off_sheet(rows):
            return 0, "check:off-sheet", True
        return len(rows), None, False

    return Op(command, curve, run, check, required)


def classify_op(curve: str, s0: float, Q, golden) -> Op:
    def run(ctx):
        return ctx.hp.singularity.classify_pedal(ctx.pairs[curve], Q, s0, order=CLASSIFY_ORDER)

    def check(report):
        verdict = report.verdict.value
        if golden is not None and (verdict != "match" or report.measured != golden):
            return 0, "check:golden", True
        if verdict == "mismatch":
            return 0, "MISMATCH", False
        return 1, None, False

    return Op("classify", curve, run, check, golden is not None)


# -- the three workloads -------------------------------------------------------


class Workload:
    name = ""
    auto_dual = False
    trace_rounds = 1
    # scaled op time of one round on the seed library; a run of `seconds`
    # does seconds / round_s whole rounds, a number fixed for every run
    round_s = 1.0

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def setup(self, root: Path, work: Path) -> Context:
        """Import hypedal, load and parse the curve files, build the pairs."""
        hp = import_hypedal()
        paths = {c: root / "curves" / f"{c}.json" for c in CURVES}
        if self.auto_dual:
            # copies without "v", so that frontal.AutoDual derives the dual
            (work / "curves").mkdir(parents=True, exist_ok=True)
            for c in CURVES:
                doc = json.loads(paths[c].read_text())
                del doc["v"]
                paths[c] = work / "curves" / f"{c}.json"
                paths[c].write_text(json.dumps(doc))
        ctx = Context(hp, work, paths)
        ctx.curves = {c: hp.io.load_curve(paths[c]) for c in CURVES}
        self.build_pairs(ctx)
        return ctx

    def build_pairs(self, ctx: Context):
        LegendrePair = ctx.hp.frontal.LegendrePair
        build = LegendrePair.with_auto_dual if self.auto_dual else LegendrePair.from_curve
        ctx.pairs = {c: build(curve) for c, curve in ctx.curves.items()}

    def round(self, ctx: Context, rng) -> list[Op]:
        raise NotImplementedError

    def probe(self, ctx: Context, rng) -> list[Op]:
        """A few cheap ops that reach every layer this workload uses."""
        raise NotImplementedError


class CurveCommands(Workload):
    """Each round runs `commands` on every shipped curve through `cli.main`."""

    commands: tuple[str, ...] = ()

    def _ops(self, ctx, rng, curves, samples):
        ops = []
        for c in curves:
            for command in self.commands:
                point = None
                if command in ("pedal", "orthotomic", "caustic"):
                    if (c, command) not in ctx.streams:
                        ctx.streams[c, command] = PointStream(rng)
                    point = ctx.streams[c, command].next()
                ops.append(cli_op(ctx, command, c, samples, point))
        return ops

    def round(self, ctx, rng):
        return self._ops(ctx, rng, CURVES, GRID)

    def probe(self, ctx, rng):
        return self._ops(ctx, rng, ("cusp23",), PROBE_GRID)


class Render(CurveCommands):
    name = "render"
    round_s = 6.3  # measured on the seed library; 3 rounds in a 20 s run
    commands = ("check", "curvatures", "pedal", "orthotomic", "evolute", "caustic")

    def setup(self, root, work):
        ctx = super().setup(root, work)
        ctx.fixtures = {f: (root / "tests" / "fixtures" / f).read_bytes() for _, _, f in FIXTURES}
        return ctx

    def round(self, ctx, rng):
        ops = super().round(ctx, rng)
        for command, curve, point in README_OPS:
            ops.append(cli_op(ctx, command, curve, None, point))
        for command, samples, fixture in FIXTURES:
            ops.append(cli_op(ctx, command, "astroid", samples, (1.0, 0.0, 0.0), True, fixture))
        return ops

    def probe(self, ctx, rng):
        ops = super().probe(ctx, rng)
        ops.append(cli_op(ctx, "pedal", "cusp23", PROBE_GRID, random_h2_point(rng), True))
        ops.append(cli_op(ctx, "check", "cusp23", None))
        return ops


class AutoDualRender(CurveCommands):
    name = "autodual"
    auto_dual = True
    round_s = 6.0  # measured on the seed library; 3 rounds in a 20 s run
    # orthotomic is not needed to reach AutoDual; it puts ops next to the
    # median, which otherwise falls in a gap of the latency distribution
    # and moved by 15 % from seed to seed.
    commands = ("check", "curvatures", "pedal", "orthotomic", "caustic")


class Classify(Workload):
    name = "classify"
    trace_rounds = 10
    round_s = 0.14  # measured on the seed library; 143 rounds in a 20 s run

    def round(self, ctx, rng):
        MVec3 = ctx.hp.minkowski.MVec3
        ops = []
        for c in CURVES:
            pair = ctx.pairs[c]
            a, b = pair.domain
            for where in ("generic", "on_curve", "tangent"):
                # one draw in four sits at a cusp parameter, where one exists
                for slot in range(4):
                    special = slot == 0 and c in SPECIAL_S0
                    s0 = rng.choice(SPECIAL_S0[c]) if special else rng.uniform(a, b)
                    if where == "generic":
                        Q = MVec3(*random_h2_point(rng))
                    elif where == "on_curve":
                        Q = pair.r(s0)
                    else:  # on the geodesic tangent to the curve at r(s0)
                        t = rng.uniform(0.2, 1.0)
                        Q = math.cosh(t) * pair.r(s0) + math.sinh(t) * pair.mu(s0)
                    golden = GOLDEN[c] if special and where == "on_curve" else None
                    ops.append(classify_op(c, s0, Q, golden))
        return ops

    def probe(self, ctx, rng):
        return self.round(ctx, rng)[:24]


WORKLOADS = {w.name: w for w in (Render(), Classify(), AutoDualRender())}
