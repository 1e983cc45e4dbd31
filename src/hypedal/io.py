"""File formats and figure emission.

Curve files are JSON documents holding DSL expressions::

    {
      "schema": 1,
      "name": "hyperbolic-astroid",
      "r": ["sqrt(1+cos(s)^6+sin(s)^6)", "cos(s)^3", "sin(s)^3"],
      "v": ["...", "...", "..."],          // optional dual components
      "domain": [0.0, 6.283185307179586],
      "samples": 1000                       // optional, default 1000
    }

Emitted CSV and JSON serialize floats with 17 significant digits, which
round-trips IEEE doubles bit-exactly; JSON field order is fixed by
construction.  Figures are SVG 1.1 in Poincare-disk coordinates, with no
rendering stack behind them, so regenerated bytes are stable.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

from . import decide, expr
from .minkowski import GeometryError, MVec3, require_upper_sheet

SCHEMA_VERSION = 1


class CurveFileError(ValueError):
    """A curve file is malformed."""


def load_curve(path) -> expr.ParametricCurve:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CurveFileError(f"{path}: not valid JSON: {exc}") from None
    return curve_from_dict(doc, source=str(path))


def curve_from_dict(doc: dict, source: str = "<memory>") -> expr.ParametricCurve:
    if not isinstance(doc, dict):
        raise CurveFileError(f"{source}: curve file must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise CurveFileError(f"{source}: unsupported schema {schema!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise CurveFileError(f"{source}: missing curve name")

    def parse_triple(key, required):
        raw = doc.get(key)
        if raw is None:
            if required:
                raise CurveFileError(f"{source}: missing field {key!r}")
            return None
        if not (isinstance(raw, list) and len(raw) == 3 and all(isinstance(t, str) for t in raw)):
            raise CurveFileError(f"{source}: field {key!r} must be a list of 3 expressions")
        try:
            return tuple(expr.parse(t) for t in raw)
        except expr.ParseError as exc:
            raise CurveFileError(f"{source}: in field {key!r}: {exc}") from None

    components = parse_triple("r", required=True)
    dual = parse_triple("v", required=False)
    domain = doc.get("domain")
    if not (isinstance(domain, list) and len(domain) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in domain)):
        raise CurveFileError(f"{source}: field 'domain' must be [a, b]")
    try:
        a, b = float(domain[0]), float(domain[1])
    except OverflowError:  # an integer beyond the float range
        a = b = math.inf
    if not math.isfinite(b - a):  # an end is Infinity or NaN, or the width overflows
        raise CurveFileError(f"{source}: field 'domain' must be [a, b] with a finite width b - a")
    samples = doc.get("samples", 1000)
    if not isinstance(samples, int) or samples < 2:
        raise CurveFileError(f"{source}: field 'samples' must be an integer >= 2")
    try:
        return expr.ParametricCurve(
            name=name, components=components, domain=(a, b),
            dual_components=dual, samples=samples,
        )
    except ValueError as exc:
        raise CurveFileError(f"{source}: {exc}") from None


# -- deterministic number / JSON / CSV formatting ------------------------


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    return format(float(x), ".17g")


def json_text(value, _indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered objects, 17-digit floats."""
    pad = "  " * _indent
    inner_pad = "  " * (_indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner_pad}{json.dumps(str(k))}: {json_text(v, _indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner_pad}{json_text(v, _indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def csv_text(header: list[str], rows) -> str:
    """The rows under the header, each value as `format_float` writes it:
    a float sum is finite only if every value is, and "%.17g" is format's
    ".17g"."""
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ValueError("non-finite number in output")
        lines.append(",".join(["%.17g"] * len(row)) % row)
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    return header, [[float(cell) for cell in ln.split(",")] for ln in lines[1:]]


# -- Poincare disk projection --------------------------------------------


def project_poincare(p: MVec3, tol: float = decide.SHEET_TOL) -> tuple[float, float]:
    """Map an upper-sheet point to the open unit disk, (x2, x3)/(1 + x1)."""
    require_upper_sheet(p, "point", tol)
    return (p.x2 / (1.0 + p.x1), p.x3 / (1.0 + p.x1))


# -- SVG rendering ---------------------------------------------------------

_SVG_OPEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
    'viewBox="-1.05 -1.05 2.1 2.1">\n'
)
_SVG_BACKDROP = (
    '<rect x="-1.05" y="-1.05" width="2.1" height="2.1" fill="#ffffff"/>\n'
    '<circle cx="0" cy="0" r="1" fill="none" stroke="#9e9e9e" stroke-width="0.004"/>\n'
)

COLORS = {
    "source": "#c62828",
    "pedal": "#1565c0",
    "orthotomic": "#2e7d32",
    "evolute": "#6a1b9a",
    "catacaustic": "#6a1b9a",
    "point": "#f9a825",
}

# singular-point markers are colored by their cause tag
CAUSE_COLORS = {
    "m_zero": "#212121",
    "point_on_curve": "#b71c1c",
    "other": "#616161",
}


def _fmt_disk(x: float) -> str:
    return format(x, ".6f")


def render_svg(polylines, markers, title: str = "") -> str:
    """Compose an SVG figure from disk-coordinate runs and markers.

    polylines: iterable of (points, color, width) with points in the disk;
    markers: iterable of (u, v, color, radius).  The vertical axis is
    flipped so the disk appears in the usual mathematical orientation.
    """
    parts = [_SVG_OPEN]
    if title:
        escaped = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f"<title>{escaped}</title>\n")
    parts.append(_SVG_BACKDROP)
    for points, color, width in polylines:
        if len(points) < 2:
            continue
        coords = " ".join(f"{_fmt_disk(u)},{_fmt_disk(-v)}" for u, v in points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>\n'
        )
    for u, v, color, radius in markers:
        parts.append(
            f'<circle cx="{_fmt_disk(u)}" cy="{_fmt_disk(-v)}" r="{radius}" fill="{color}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def disk_runs(points) -> list[list[tuple[float, float]]]:
    """Split a sampled point sequence into projectable runs.

    `points` yields MVec3 or None; None and off-sheet points break the
    current run (the de Sitter branch of an evolute, degenerate samples).
    """
    runs: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for p in points:
        if p is not None:
            with contextlib.suppress(GeometryError):  # off the sheet: the run breaks
                current.append(project_poincare(p, decide.FIGURE_SHEET_TOL))
                continue
        if len(current) >= 2:
            runs.append(current)
        current = []
    if len(current) >= 2:
        runs.append(current)
    return runs
