from __future__ import annotations

import contextlib
import math
from pathlib import Path

import pytest

from hypedal import expr, frontal, recording
from hypedal.frontal import LegendrePair
from hypedal.io import curve_from_dict, load_curve
from hypedal.minkowski import MVec3

ROOT = Path(__file__).resolve().parent.parent
CURVES = ROOT / "curves"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@contextlib.contextmanager
def generator_off():
    """No generated function: no derived-curve program, read of a curve's
    points and jets (`ParametricCurve._tape_values`), auto-dual read or det
    program."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "_TAPES", {})
        patch.setattr(recording, "derived_program", lambda *args: None)
        patch.setattr(recording, "pedal_det", lambda *args: None)
        patch.setattr(expr, "_tape_read", lambda *args: None)
        patch.setattr(frontal, "auto_dual_read", lambda *args: None)
        yield


@pytest.fixture
def fresh_tapes(monkeypatch):
    """Empty shared tapes for the test, so that a curve loaded in it computes
    what the tapes keep (the sign grid of `AutoDual`, the cause scale of
    `singular_points`) instead of reading what an earlier test kept."""
    monkeypatch.setattr(expr, "_TAPES", {})


@pytest.fixture(scope="session")
def astroid_curve():
    return load_curve(CURVES / "astroid.json")


@pytest.fixture(scope="session")
def cusp23_curve():
    return load_curve(CURVES / "cusp23.json")


@pytest.fixture(scope="session")
def cusp37_curve():
    return load_curve(CURVES / "cusp37.json")


@pytest.fixture(scope="session")
def circle_curve():
    return load_curve(CURVES / "circle.json")


@pytest.fixture(scope="session")
def astroid(astroid_curve):
    return LegendrePair.from_curve(astroid_curve)


@pytest.fixture(scope="session")
def cusp23(cusp23_curve):
    return LegendrePair.from_curve(cusp23_curve)


@pytest.fixture(scope="session")
def cusp37(cusp37_curve):
    return LegendrePair.from_curve(cusp37_curve)


@pytest.fixture(scope="session")
def circle(circle_curve):
    return LegendrePair.from_curve(circle_curve)


@pytest.fixture(scope="session")
def golden_pairs(astroid, cusp23, cusp37, circle):
    return {"astroid": astroid, "cusp23": cusp23, "cusp37": cusp37, "circle": circle}


@pytest.fixture(scope="session")
def wave_pair():
    """Synthetic pair whose curvature m has a simple zero near s = 0."""
    curve = curve_from_dict({
        "schema": 1,
        "name": "inflection-wave",
        "r": ["sqrt(1 + s^2 + (s^3 - s)^2)", "s", "s^3 - s"],
        "domain": [-1.6, 1.6],
        "samples": 800,
    })
    return LegendrePair.with_auto_dual(curve)


def read_of(program):
    """How `recording._run` reads s for a derived program: "tapes" (from a
    curve's tapes by a function of s alone, `program.tape_read`), "auto-dual" (a generated read of
    r, `frontal.auto_dual_read`, and each dual's sign), or None where there
    is none."""
    if program is None:
        return None
    assert program.func is recording._run
    return "tapes" if program.args[1] is None else "auto-dual"


def random_h2_point(rng, rho_max: float = 1.2) -> MVec3:
    rho = rng.uniform(0.1, rho_max)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return MVec3(math.cosh(rho), math.sinh(rho) * math.cos(phi), math.sinh(rho) * math.sin(phi))
