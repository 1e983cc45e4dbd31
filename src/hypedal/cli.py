"""Command-line interface.

Commands: check, curvatures, pedal, orthotomic, evolute, caustic,
classify, plot.  Exit codes: 0 success (and classification verdict
"match"), 1 usage or input-file errors, 2 failed validation, 3 math-domain
failures, 4 classification mismatch, 5 classification undetermined.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__, constructions, decide, io, jets, singularity
from .expr import ParseError, linspace
from .frontal import LegendrePair
from .io import CurveFileError
from .minkowski import MVec3
from .singularity import Verdict

# CLI kind -> (its builder in `constructions`, whether it takes --point, help).
# The builder is looked up on the module when called, never bound here.
_KINDS = {
    "pedal": ("pedal", True, "pedal curve samples, singular points, or figure"),
    "orthotomic": ("orthotomic", True, "orthotomic curve samples, singular points, or figure"),
    "evolute": ("evolute", False, "evolute samples (both branches), or figure"),
    "caustic": ("catacaustic", True, "catacaustic (evolute of the orthotomic), or figure"),
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sci(tol: float) -> str:
    return f"{tol:.0e}".replace("e-0", "e-")  # 1e-9, as README writes it, not 1e-09


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built once per process."""
    parser = _Parser(prog="hypedal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hypedal {__version__}")
    # each command's handler is named by its `run` default and looked up when
    # it runs, so the parser holds no function of this module
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="validate the Legendrian conditions (exit 0 pass, 2 fail)")
    p.set_defaults(run="_cmd_check")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--samples", type=int, default=None, help="grid size (default: from the curve file)")
    p.add_argument("--tol", type=float, default=decide.VALIDATE_TOL,
                   help=f"max allowed relative residual (default {_sci(decide.VALIDATE_TOL)})")

    p = sub.add_parser("curvatures", help="CSV of the curvature pair: columns s,l,m")
    p.set_defaults(run="_cmd_curvatures")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--samples", type=int, default=None, help="grid size (default: from the curve file)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    for kind, (_, point, help_text) in _KINDS.items():
        p = sub.add_parser(kind, help=help_text)
        p.set_defaults(run="_cmd_derived")
        p.add_argument("--curve", required=True, help="curve JSON file")
        if point:
            p.add_argument("--point", required=True, help='pedal point "x1,x2,x3" on the upper sheet')
        p.add_argument("--samples", type=int, default=None, help="grid size (default: from the curve file)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json", "svg"), default="csv", dest="fmt")
        p.add_argument("--tol", type=float, default=decide.SINGULAR_TOL,
                       help="singular-point acceptance tolerance, relative to the "
                            f"largest speed on the grid (default {_sci(decide.SINGULAR_TOL)})")

    p = sub.add_parser("classify", help="classify the pedal singularity at s0 (exit 0/4/5 per verdict)")
    p.set_defaults(run="_cmd_classify")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--point", required=True, help='pedal point "x1,x2,x3" on the upper sheet')
    p.add_argument("--s0", type=float, required=True, help="parameter value to classify at")
    p.add_argument("--order", type=int, default=singularity.DEFAULT_CLASSIFY_ORDER,
                   help=f"jet truncation order for germ detection "
                        f"(default {singularity.DEFAULT_CLASSIFY_ORDER})")
    p.add_argument("--tol", type=float, default=decide.GERM_TOL,
                   help=f"germ/location tolerance (default {_sci(decide.GERM_TOL)})")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("plot", help="SVG figure with the source and derived curves")
    p.set_defaults(run="_cmd_plot")
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
    # curvature_jets evaluates one order above the requested one, and
    # AutoDual.jet evaluates the curve three orders above that
    top = jets.MAX_ORDER - (1 if curve.has_dual() else 4)
    order = getattr(ns, "order", 0)
    if not 0 <= order <= top:
        raise UsageError(f"--order must be between 0 and {top}, got {order}")
    s0 = getattr(ns, "s0", None)
    a, b = curve.domain
    if s0 is not None and not a <= s0 <= b:
        raise UsageError(f"--s0 {s0!r} lies outside the curve's domain [{a!r}, {b!r}]")
    tol = getattr(ns, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"--tol must be finite and non-negative, got {tol!r}")


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
    for s in linspace(pair.domain, n):
        try:
            ell, m = pair.curvatures(s)
        except jets.DOMAIN_ERRORS as exc:
            raise jets.at_parameter(exc, s) from None
        rows.append((s, ell, m))
    _emit(io.csv_text(["s", "l", "m"], rows), ns.out)
    return 0


def _build(pair, kind: str, Q):
    """The derived curve of `kind` on `pair`; Q is used by the kinds that take --point."""
    if kind not in _KINDS:
        raise UsageError(f"unknown curve kind {kind!r}")
    builder, point, _ = _KINDS[kind]
    build = getattr(constructions, builder)
    return build(pair, Q) if point else build(pair)


def _derive(pair, kinds, Q, grid, tol) -> list:
    """(curve, its points on the grid or None where undefined, its singular points)
    for each derived curve of `kinds`, sampled by its singular-point scan; all
    are built first, so that a bad kind or point fails before any sampling."""
    scanned = []
    for derived in [_build(pair, kind, Q) for kind in kinds]:
        points = []
        singular = derived.singular_points(samples=len(grid), tol=tol, points=points)
        scanned.append((derived, points, singular))
    return scanned


def _cmd_derived(ns) -> int:
    curve, pair = _load_pair(ns)
    kind = ns.command
    Q = _parse_point(ns.point) if _KINDS[kind][1] else None
    grid = linspace(pair.domain, _samples(ns, curve))
    scanned = _derive(pair, [kind], Q, grid, ns.tol)
    if ns.fmt == "svg":
        _emit(_figure(pair, Q, grid, scanned), ns.out)
        return 0
    [(_, points, singular)] = scanned
    rows = [(s, p.x1, p.x2, p.x3) for s, p in zip(grid, points) if p is not None]
    singular_doc = {
        "schema": io.SCHEMA_VERSION,
        "operation": kind,
        "curve": pair.name,
        "point": None if Q is None else [Q.x1, Q.x2, Q.x3],
        "singular_points": [{"s": sp.s, "cause": sp.cause} for sp in singular],
        "skipped_parameters": [s for s, p in zip(grid, points) if p is None],
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


def _figure(pair, Q, grid, scanned) -> str:
    """The SVG figure of the source curve, Q and each curve of `_derive`, every
    derived curve marked at its own singular points in the colour of their cause."""
    polylines = [(run, io.COLORS["source"], 0.008) for run in io.disk_runs([pair.r(s) for s in grid])]
    for derived, points, _ in scanned:
        polylines += [(run, io.COLORS[derived.kind], 0.008) for run in io.disk_runs(points)]
    markers = []
    if Q is not None:
        u, v = io.project_poincare(Q)
        markers.append((u, v, io.COLORS["point"], 0.02))
    for derived, _, singular in scanned:
        for sp in singular:
            try:
                u, v = io.project_poincare(derived.at(sp.s), tol=decide.FIGURE_SHEET_TOL)
            except jets.DOMAIN_ERRORS:
                continue
            markers.append((u, v, io.CAUSE_COLORS[sp.cause], 0.012))
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
    needs_point = [k for k in kinds if k in _KINDS and _KINDS[k][1]]
    if needs_point and ns.point is None:
        raise UsageError(f"--point is required for kinds: {', '.join(needs_point)}")
    Q = _parse_point(ns.point) if ns.point else None
    grid = linspace(pair.domain, _samples(ns, curve))
    _emit(_figure(pair, Q, grid, _derive(pair, kinds, Q, grid, decide.SINGULAR_TOL)), ns.out)
    return 0


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return globals()[ns.run](ns)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (UsageError, CurveFileError, ParseError, OSError) as exc:
        print(f"hypedal: error: {exc}", file=sys.stderr)
        return 1
    except jets.DOMAIN_ERRORS as exc:
        print(f"hypedal: math domain failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
