#!/usr/bin/env python3
"""hypedal benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload render --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  With `--trace 0` the run sets up `SETUP_REPEATS` times, then
times a fixed number of whole rounds of ops, as many as take about
`--seconds` of scaled op time (see `speed_kernel`) on the seed library,
and prints the end-to-end metrics.  With `--trace 1` it runs a fixed number of rounds
(so counts are exact and repeat for a seed) once plain and once under
`tracing.Tracer`, and prints the per-layer metrics and the tracing
overhead.  `--grid N` runs the curve commands at grid N instead of
`workloads.GRID`; baseline.json uses it for its default-grid figures.
Either way the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable report with the failure listing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# Op and set-up times are CPU time of this process.  The library is
# single-threaded and CPU-bound, so on an idle machine this equals wall time;
# on a shared one it leaves out the time other tenants hold the core.
clock = time.process_time

# A shared machine also runs the same code 20-60 % slower for minutes at a
# time.  So a fixed pure-Python kernel is timed between ops, at least every
# KERNEL_EVERY_S of CPU time, and op times are reported scaled to a
# reference machine on which it takes REFERENCE_S:
# t_reported = t_cpu * REFERENCE_S / (median of the 10 kernel times around the op).
REFERENCE_S = 1e-3
KERNEL_EVERY_S = 0.01


def speed_kernel() -> float:
    """CPU time of a fixed kernel: truncated power-series products, like jets."""
    t0 = clock()
    a = [1.0 / (i + 1) for i in range(16)]
    b = [0.5 ** i for i in range(16)]
    for _ in range(100):
        out = [0.0] * 16
        for i in range(16):
            ai = a[i]
            for j in range(16 - i):
                out[i + j] += ai * b[j]
        a = [x / (1.0 + abs(x)) for x in out]
    return clock() - t0


@dataclass
class Outcome:
    command: str
    curve: str
    seconds: float
    delivered: int
    failure: str | None  # exception class, "exit N", "MISMATCH" or "check:..."
    wrong: bool  # a correctness check on the output failed


def execute(ctx, op) -> Outcome:
    t0 = clock()
    try:
        result = op.run(ctx)
        failure = None
    except Exception as exc:  # any escape from the library is a failed op
        failure = type(exc).__name__
    elapsed = clock() - t0
    if failure is not None:
        return Outcome(op.command, op.curve, elapsed, 0, failure, op.required)
    delivered, failure, wrong = op.check(result)
    return Outcome(op.command, op.curve, elapsed, delivered, failure, wrong)


def failure_lines(workload, outcomes) -> list[str]:
    counts = Counter((o.command, o.curve, o.failure) for o in outcomes if o.failure)
    return [f"  failed {n:5d}x  {workload}/{command}/{curve}: {label}"
            for (command, curve, label), n in sorted(counts.items())]


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, seed: int, seconds: float, work: Path):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = speed_kernel()
        t0 = clock()
        ctx = wl.setup(ROOT, work)
        elapsed = clock() - t0
        setup_times.append(elapsed * REFERENCE_S / statistics.mean((before, speed_kernel())))

    rng = random.Random(seed)
    outcomes: list[Outcome] = []
    kernel = [speed_kernel()]
    kernel_at = [0]  # number of ops done when each kernel time was taken
    # A fixed number of whole rounds, so that every run of a seed does the
    # same ops with the same outcomes, whatever the machine's load.
    rounds = wl.rounds(seconds)
    wall0 = time.perf_counter()
    since = 0.0  # op time since the last kernel
    for _ in range(rounds):
        for op in wl.round(ctx, rng):
            outcomes.append(execute(ctx, op))
            since += outcomes[-1].seconds
            if since >= KERNEL_EVERY_S:
                kernel.append(speed_kernel())
                kernel_at.append(len(outcomes))
                since = 0.0
    wall = time.perf_counter() - wall0

    cpu = [o.seconds for o in outcomes]
    latencies = []
    for i, t in enumerate(cpu):
        j = bisect.bisect_right(kernel_at, i)  # first kernel time taken after op i
        latencies.append(t * REFERENCE_S / statistics.median(kernel[max(0, j - 5): j + 5]))
    busy = sum(latencies)
    failed = sum(1 for o in outcomes if o.failure)
    delivered = sum(o.delivered for o in outcomes)
    percentiles = statistics.quantiles(latencies, n=100)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "samples_per_s": metric(delivered / busy, "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "success_share": metric((len(outcomes) - failed) / len(outcomes), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p99 = percentiles[98]
    beyond = sum(1 for x in latencies if x > p99)
    report = [f"{wl.name}: seed {seed}, {rounds} rounds, {len(outcomes)} ops, "
              f"{delivered} samples delivered, {busy:.2f} s scaled op time, "
              f"{wall:.1f} s wall for the op loop"]
    report += [f"  {name:<16} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if wl.name == "classify":
        report.append(f"  {'classify_per_s':<16} {metrics['samples_per_s']['value']:.6g} 1/s")
    report.append(f"  {'fail_share':<16} {failed / len(outcomes):.6g} ratio")
    for p in (75, 90):
        report.append(f"  {f'latency_p{p}_ms':<16} {1e3 * percentiles[p - 1]:.6g} ms")
    report.append(f"  {'latency_p99_ms':<16} {1e3 * p99:.6g} ms ({beyond} ops lie beyond it)")
    report.append(f"  unscaled CPU time: {delivered / sum(cpu):.6g} samples/s, "
                  f"p50 {1e3 * statistics.median(cpu):.6g} ms; speed kernel median "
                  f"{1e3 * statistics.median(kernel):.4g} ms (reference {1e3 * REFERENCE_S:g} ms)")
    report += failure_lines(wl.name, outcomes)
    return outcomes, metrics, report


def layer_metrics(tr: tracing.Tracer) -> dict:
    S, C = tr.stat, tr.counters
    jet_calls = S("expr.eval_jet").calls
    classify = S("singularity.classify_pedal")
    classified = classify.calls - classify.errors
    at = [f"constructions.{c}.at" for c in ("PedalCurve", "OrthotomicCurve", "EvoluteCurve")]
    emit = ("io.csv_text", "io.json_text", "io.render_svg", "io.disk_runs", "io.project_poincare")
    found = C["singular_found"]
    scanned = C["refine_evals"] + C["grid_evals"]
    values = {
        "cli.calls": (S("cli.main").calls, "count"),
        "io.load_curve_calls": (S("io.load_curve").calls, "count"),
        "io.load_curve_s": (S("io.load_curve").incl_s, "s"),
        "io.emit_s": (sum(S(n).self_s for n in emit), "s"),
        "io.bytes_out": (C["bytes_out"], "bytes"),
        "expr.eval_jet_calls": (jet_calls, "count"),
        "expr.eval_jet_distinct_share": (C["eval_jet_distinct"] / jet_calls if jet_calls else 0.0,
                                         "ratio"),
        "expr.eval_jet_self_s": (S("expr.eval_jet").self_s, "s"),
        "expr.eval_scalar_calls": (S("expr.eval_scalar").calls, "count"),
        "expr.eval_scalar_self_s": (S("expr.eval_scalar").self_s, "s"),
        "jets.ops": (C["jet_ops"], "count"),
        "jets.ops_low": (C["jet_ops_low"], "count"),
        "jets.ops_high": (C["jet_ops_high"], "count"),
        "jets.madds_computed": (C["jet_madds"], "count"),
        "minkowski.inner_calls": (S("minkowski.inner").calls, "count"),
        "minkowski.wedge_calls": (S("minkowski.wedge").calls, "count"),
        "frontal.curvatures_calls": (S("frontal.LegendrePair.curvatures").calls, "count"),
        "frontal.curvatures_s": (S("frontal.LegendrePair.curvatures").incl_s, "s"),
        "frontal.curvature_jets_calls": (S("frontal.LegendrePair.curvature_jets").calls, "count"),
        "frontal.curvature_jets_s": (S("frontal.LegendrePair.curvature_jets").incl_s, "s"),
        "frontal.validate_s": (S("frontal.LegendrePair.validate").incl_s, "s"),
        "frontal.autodual_builds": (S("frontal.AutoDual.__init__").calls, "count"),
        "frontal.autodual_build_s": (S("frontal.AutoDual.__init__").incl_s, "s"),
        "frontal.autodual_eval_calls": (S("frontal.AutoDual.__call__").calls
                                        + S("frontal.AutoDual.jet").calls, "count"),
        "frontal.autodual_eval_s": (S("frontal.AutoDual.__call__").incl_s
                                    + S("frontal.AutoDual.jet").incl_s, "s"),
        "constructions.at_calls": (sum(S(n).calls for n in at), "count"),
        "constructions.at_s": (sum(S(n).incl_s for n in at), "s"),
        "constructions.singular_points_s": (S("constructions.singular_points").incl_s, "s"),
        "constructions.refine_evals": (C["refine_evals"], "count"),
        "constructions.singular_found": (found, "count"),
        "constructions.refine_evals_per_found": (C["refine_evals"] / found if found else 0.0,
                                                 "ratio"),
        "constructions.refine_share": (C["refine_evals"] / scanned if scanned else 0.0, "ratio"),
        "constructions.induce_s": (S("constructions.pedal_induced").incl_s
                                   + S("constructions.orthotomic_induced").incl_s, "s"),
        "singularity.classify_s": (classify.incl_s, "s"),
        "singularity.measure_exponents_s": (S("singularity.measure_exponents").incl_s, "s"),
        "singularity.verdict_match": (C["verdict_match"], "count"),
        "singularity.verdict_mismatch": (C["verdict_mismatch"], "count"),
        "singularity.verdict_undetermined": (C["verdict_undetermined"], "count"),
        "singularity.errors": (classify.errors, "count"),
        "singularity.singular_germ_share": (C["singular_germ"] / classified if classified else 0.0,
                                            "ratio"),
    }
    for layer in workloads.MODULES:
        values[f"{layer}.self_s"] = (tr.layer(layer + ".", "self_s"), "s")
    return {name: metric(v, unit) for name, (v, unit) in sorted(values.items())}


def trace(wl, seed: int, work: Path):
    ctx = wl.setup(ROOT, work)
    rng = random.Random(seed)
    ops = [op for _ in range(wl.trace_rounds) for op in wl.round(ctx, rng)]
    probe = wl.probe(ctx, random.Random(seed))

    plain = [execute(ctx, op) for op in ops]

    tr = tracing.Tracer()
    tr.install(ctx.hp)
    wl.build_pairs(ctx)  # pairs built before install hold unwrapped bound methods
    problems = tracing.coverage_check(tr, lambda: [execute(ctx, op) for op in probe])
    tr.reset()
    traced = []
    for i, op in enumerate(ops):
        tr.begin_op(i)
        traced.append(execute(ctx, op))
        tr.end_op()

    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    metrics = layer_metrics(tr)
    metrics["trace.untraced_s"] = metric(plain_s, "s")
    metrics["trace.traced_s"] = metric(traced_s, "s")
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s, "ratio")
    metrics["trace.spans"] = metric(len(tr.spans), "count")
    with open(work / f"spans-{seed}.jsonl", "w") as f:
        for span in tr.spans:
            f.write(json.dumps(span) + "\n")

    report = [f"{wl.name}: seed {seed}, traced {len(ops)} ops ({wl.trace_rounds} round(s))"]
    report += [f"  {name:<40} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if problems:
        report.append("  wrapper coverage: calls that bypassed the tracer:")
        report += [f"    {p}" for p in problems]
    else:
        report.append(f"  wrapper coverage: all {len(tr.originals)} wrapped functions counted "
                      f"exactly on {len(probe)} probe ops")
    report += failure_lines(wl.name, traced)
    return traced, metrics, report, not problems and not any(o.wrong for o in plain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=int, default=workloads.GRID,
                        help="grid size of the curve commands (default %(default)s)")
    args = parser.parse_args(argv)
    workloads.GRID = args.grid

    src = ROOT / "src"
    if not (src / "hypedal" / "__init__.py").is_file() or not (ROOT / "curves").is_dir():
        print(f"perfbench: no hypedal source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        outcomes, metrics, report, checks_ok = trace(wl, args.seed, work)
    else:
        outcomes, metrics, report = measure(wl, args.seed, args.seconds, work)
        checks_ok = True
    print("\n".join(report))
    print(json.dumps({
        "correct": checks_ok and not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
