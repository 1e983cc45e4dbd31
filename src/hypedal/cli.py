"""Command-line interface.

Commands: check, curvatures, pedal, orthotomic, evolute, caustic,
classify, plot.  Exit codes: 0 success (and classification verdict
"match"), 1 usage or input-file errors, 2 failed validation, 3 math-domain
failures, 4 classification mismatch, 5 classification undetermined.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, constructions, io, jets, singularity
from .constructions import EvoluteDegenerateError, PedalPointOnCurveError
from .expr import EvalDomainError, ParseError
from .frontal import CurveSingularError, DualUndeterminedError, LegendrePair
from .io import CurveFileError
from .jets import JetDomainError
from .minkowski import GeometryError, MVec3
from .singularity import Verdict

_DOMAIN_ERRORS = (
    EvalDomainError, JetDomainError, GeometryError, CurveSingularError,
    DualUndeterminedError, EvoluteDegenerateError, PedalPointOnCurveError,
    ArithmeticError,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypedal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hypedal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, point=False, s0=False):
        p.add_argument("--curve", required=True, help="curve JSON file")
        if point:
            p.add_argument("--point", required=True, help='pedal point "x1,x2,x3" on the upper sheet')
        if s0:
            p.add_argument("--s0", type=float, required=True, help="parameter value to classify at")
        p.add_argument("--samples", type=int, default=None, help="grid size (default: from the curve file)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json", "svg"), default="csv", dest="fmt")
        p.add_argument("--tol", type=float, default=None,
                       help="singular-point acceptance tolerance, relative to the "
                            "largest speed on the grid (default 1e-7)")

    p = sub.add_parser("check", help="validate the Legendrian conditions (exit 0 pass, 2 fail)")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--samples", type=int, default=None, help="grid size (default: from the curve file)")
    p.add_argument("--tol", type=float, default=1e-9, help="max allowed relative residual (default 1e-9)")

    p = sub.add_parser("curvatures", help="CSV of the curvature pair: columns s,l,m")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--samples", type=int, default=None, help="grid size (default: from the curve file)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    common(sub.add_parser("pedal", help="pedal curve samples, singular points, or figure"), point=True)
    common(sub.add_parser("orthotomic", help="orthotomic curve samples, singular points, or figure"), point=True)
    common(sub.add_parser("evolute", help="evolute samples (both branches), or figure"))
    common(sub.add_parser("caustic", help="catacaustic (evolute of the orthotomic), or figure"), point=True)

    p = sub.add_parser("classify", help="classify the pedal singularity at s0 (exit 0/4/5 per verdict)")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--point", required=True, help='pedal point "x1,x2,x3" on the upper sheet')
    p.add_argument("--s0", type=float, required=True, help="parameter value to classify at")
    p.add_argument("--order", type=int, default=singularity.DEFAULT_CLASSIFY_ORDER,
                   help=f"jet truncation order for germ detection "
                        f"(default {singularity.DEFAULT_CLASSIFY_ORDER})")
    p.add_argument("--tol", type=float, default=1e-8, help="germ/location tolerance (default 1e-8)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("plot", help="SVG figure with the source and derived curves")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", default=None)
    p.add_argument("--kind", default="pedal",
                   help="comma-separated list from pedal,orthotomic,evolute,caustic")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None)
    return parser


def _load_pair(ns):
    """The curve file of `ns`, checked against the numeric options, and its pair."""
    curve = io.load_curve(ns.curve)
    _check_numbers(ns, curve)
    if curve.has_dual():
        return curve, LegendrePair.from_curve(curve)
    return curve, LegendrePair.with_auto_dual(curve)


def _check_numbers(ns, curve) -> None:
    samples = getattr(ns, "samples", None)
    if samples is not None and samples < 2:
        raise UsageError(f"--samples must be at least 2, got {samples}")
    # curvature_jets evaluates one order above the requested one
    top = jets.MAX_ORDER - 1
    order = getattr(ns, "order", 0)
    if not 0 <= order <= top:
        raise UsageError(f"--order must be between 0 and {top}, got {order}")
    s0 = getattr(ns, "s0", None)
    a, b = curve.domain
    if s0 is not None and not a <= s0 <= b:
        raise UsageError(f"--s0 {s0!r} lies outside the curve's domain [{a!r}, {b!r}]")


def _parse_point(text: str) -> MVec3:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f'--point must be "x1,x2,x3", got {text!r}')
    try:
        return MVec3(float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError:
        raise UsageError(f"--point components must be numbers, got {text!r}") from None


def _samples(ns, curve) -> int:
    return curve.samples if ns.samples is None else ns.samples


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _sidecar_path(out) -> Path:
    out = Path(out)
    return out.with_name(out.stem + ".singular.json")


def _cmd_check(ns) -> int:
    curve, pair = _load_pair(ns)
    n = _samples(ns, curve)
    report = pair.validate(samples=n, tol=ns.tol)
    print(f"legendre validation: {pair.name}")
    print(f"  samples: {report.samples}  tol: {report.tol:g}")
    for key, value in report.residuals.items():
        print(f"  {key:<10} max residual {value:.3e}")
    print("  PASS" if report.passed else "  FAIL")
    return 0 if report.passed else 2


def _cmd_curvatures(ns) -> int:
    curve, pair = _load_pair(ns)
    n = _samples(ns, curve)
    rows = []
    for s in _grid(pair.domain, n):
        try:
            ell, m = pair.curvatures(s)
        except _DOMAIN_ERRORS as exc:
            raise exc.__class__(f"{exc} (at s={s!r})") from None
        rows.append((s, ell, m))
    _emit(io.csv_text(["s", "l", "m"], rows), ns.out)
    return 0


def _grid(domain, n):
    a, b = domain
    step = (b - a) / (n - 1)
    pts = [a + i * step for i in range(n)]
    pts[-1] = b
    return pts


def _derived(ns, kind: str):
    curve, pair = _load_pair(ns)
    if kind == "pedal":
        return curve, pair, constructions.pedal(pair, _parse_point(ns.point))
    if kind == "orthotomic":
        return curve, pair, constructions.orthotomic(pair, _parse_point(ns.point))
    if kind == "evolute":
        return curve, pair, constructions.evolute(pair)
    if kind == "caustic":
        return curve, pair, constructions.catacaustic(pair, _parse_point(ns.point))
    raise UsageError(f"unknown curve kind {kind!r}")


def _cmd_derived(ns, kind: str) -> int:
    curve, pair, derived = _derived(ns, kind)
    n = _samples(ns, curve)
    tol = ns.tol if ns.tol is not None else 1e-7

    rows = []
    skipped = []
    for s in _grid(pair.domain, n):
        try:
            p = derived.at(s)
        except _DOMAIN_ERRORS:
            skipped.append(s)
            continue
        rows.append((s, p.x1, p.x2, p.x3))
    singular = derived.singular_points(samples=n, tol=tol)

    if ns.fmt == "svg":
        _emit(_figure(pair, [derived], getattr(derived, "Q", None), n, singular), ns.out)
        return 0
    singular_doc = {
        "schema": io.SCHEMA_VERSION,
        "operation": kind,
        "curve": pair.name,
        "point": _point_list(getattr(derived, "Q", None)),
        "singular_points": [{"s": sp.s, "cause": sp.cause} for sp in singular],
        "skipped_parameters": skipped,
    }
    if ns.fmt == "json":
        doc = dict(singular_doc)
        doc["samples"] = [list(r) for r in rows]
        _emit(io.json_text(doc) + "\n", ns.out)
        return 0
    _emit(io.csv_text(["s", "x1", "x2", "x3"], rows), ns.out)
    if ns.out:
        _sidecar_path(ns.out).write_text(io.json_text(singular_doc) + "\n")
    return 0


def _point_list(Q):
    return None if Q is None else [Q.x1, Q.x2, Q.x3]


def _figure(pair, derived_list, Q, n, singular) -> str:
    polylines = []
    source_pts = [pair.r(s) for s in _grid(pair.domain, n)]
    for run in io.disk_runs(source_pts):
        polylines.append((run, io.COLORS["source"], 0.008))
    for derived in derived_list:
        pts = []
        for s in _grid(pair.domain, n):
            try:
                pts.append(derived.at(s))
            except _DOMAIN_ERRORS:
                pts.append(None)
        color = io.COLORS.get(derived.kind, io.COLORS["pedal"])
        for run in io.disk_runs(pts):
            polylines.append((run, color, 0.008))
    markers = []
    if Q is not None:
        u, v = io.project_poincare(Q)
        markers.append((u, v, io.COLORS["point"], 0.02))
    for sp in singular or []:
        for derived in derived_list:
            try:
                u, v = io.project_poincare(derived.at(sp.s), tol=1e-6)
            except _DOMAIN_ERRORS:
                continue
            markers.append((u, v, io.CAUSE_COLORS.get(sp.cause, io.CAUSE_COLORS["other"]), 0.012))
    return io.render_svg(polylines, markers, title=pair.name)


def _cmd_classify(ns) -> int:
    curve, pair = _load_pair(ns)
    Q = _parse_point(ns.point)
    report = singularity.classify_pedal(pair, Q, ns.s0, order=ns.order, tol=ns.tol)
    doc = {
        "schema": io.SCHEMA_VERSION,
        "tool": "hypedal",
        "version": __version__,
        "operation": "classify",
        "input": {
            "path": str(ns.curve),
            "name": curve.name,
            "domain": [curve.domain[0], curve.domain[1]],
            "samples": curve.samples,
        },
        "parameters": {
            "point": [Q.x1, Q.x2, Q.x3],
            "s0": ns.s0,
            "tol": ns.tol,
            "order": ns.order,
        },
        "results": report.to_dict(),
    }
    _emit(io.json_text(doc) + "\n", ns.out)
    if report.verdict is Verdict.MATCH:
        return 0
    if report.verdict is Verdict.MISMATCH:
        return 4
    return 5


def _cmd_plot(ns) -> int:
    curve, pair = _load_pair(ns)
    kinds = [k.strip() for k in ns.kind.split(",") if k.strip()]
    if not kinds:
        raise UsageError("--kind must name at least one derived curve")
    needs_point = [k for k in kinds if k in ("pedal", "orthotomic", "caustic")]
    if needs_point and ns.point is None:
        raise UsageError(f"--point is required for kinds: {', '.join(needs_point)}")
    Q = _parse_point(ns.point) if ns.point else None
    derived_list = []
    for kind in kinds:
        if kind == "pedal":
            derived_list.append(constructions.pedal(pair, Q))
        elif kind == "orthotomic":
            derived_list.append(constructions.orthotomic(pair, Q))
        elif kind == "evolute":
            derived_list.append(constructions.evolute(pair))
        elif kind == "caustic":
            derived_list.append(constructions.catacaustic(pair, Q))
        else:
            raise UsageError(f"unknown curve kind {kind!r}")
    n = _samples(ns, curve)
    singular = derived_list[0].singular_points(samples=n) if derived_list else []
    _emit(_figure(pair, derived_list, Q, n, singular), ns.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"hypedal: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    try:
        if ns.command == "check":
            return _cmd_check(ns)
        if ns.command == "curvatures":
            return _cmd_curvatures(ns)
        if ns.command in ("pedal", "orthotomic", "evolute", "caustic"):
            return _cmd_derived(ns, ns.command)
        if ns.command == "classify":
            return _cmd_classify(ns)
        if ns.command == "plot":
            return _cmd_plot(ns)
        raise UsageError(f"unknown command {ns.command!r}")
    except UsageError as exc:
        print(f"hypedal: error: {exc}", file=sys.stderr)
        return 1
    except (CurveFileError, ParseError, OSError) as exc:
        print(f"hypedal: error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"hypedal: math domain failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
