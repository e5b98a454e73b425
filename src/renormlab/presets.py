"""Named coefficient presets shared by configs, scripts, and the acceptance suite.

Each builder returns plain grid fields; experiment plumbing decides how to
sample them in time.  The random profiles draw from fixed derivation
streams, so a preset is a pure function of its grid -- re-running anywhere
reproduces the same coefficients bitwise.  ``PRESETS`` maps each tag to its
dimension and its drift and noise builders:

    constant         b = 0.8 e_1 (spatially and temporally constant), unit noise
    trig_flow        random low-mode 1-d drift, gentle compressible noise
    drift_dominated  strong 1-d drift with faint noise (refinement studies)
    divfree_2d       rotation field of the stream function 2 cos x cos y
    decay            rough-ish 1-d profile with a slow power-law tail, unit noise
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .field import Grid, GridScalar, GridVector, TimeGridVector, _is_integer, _positive_float
from .rng import stream

__all__ = [
    "PRESETS",
    "PRESET_TAGS",
    "Preset",
    "constant_drift",
    "trig_flow_drift",
    "trig_flow_noise",
    "drift_dominated_drift",
    "drift_dominated_noise",
    "divfree_2d_drift",
    "divfree_2d_noise",
    "unit_noise",
    "decay_drift",
    "default_datum",
    "sample_constant_in_time",
]


def sample_constant_in_time(gv: GridVector, T: float, steps: int) -> TimeGridVector:
    """Hold one spatial slice on a uniform time grid of the given step count: one row."""
    if not (_is_integer(steps) and steps >= 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    T = _positive_float(ValueError, "T", T)
    times = np.linspace(0.0, T, steps + 1)
    return TimeGridVector(gv.grid, times, gv.values[None], np.zeros(steps + 1, dtype=np.intp))


def constant_drift(grid: Grid) -> GridVector:
    return GridVector.constant(grid, [0.8] + [0.0] * (grid.dim - 1))


def trig_flow_drift(grid: Grid) -> GridVector:
    """Random two-mode profile, amplitudes 0.6/k, drawn from stream (3, 0)."""
    if grid.dim != 1:
        raise ValueError("trig_flow preset is one-dimensional")
    rng = stream(3, 0)
    x = grid.axis_coordinates()
    prof = np.zeros(grid.shape)
    for k in (1, 2):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        prof += 0.6 / k * (a * np.sin(k * x) + b * np.cos(k * x))
    return GridVector(grid, prof[None, :])


def trig_flow_noise(grid: Grid) -> list[GridVector]:
    x = grid.axis_coordinates()
    return [GridVector(grid, (0.4 + 0.3 * np.sin(x + 1.0))[None, :])]


def drift_dominated_drift(grid: Grid) -> GridVector:
    x = grid.axis_coordinates()
    return GridVector(grid, (0.5 + 2.0 * np.sin(x + 0.7))[None, :])


def drift_dominated_noise(grid: Grid) -> list[GridVector]:
    x = grid.axis_coordinates()
    return [GridVector(grid, (0.05 * (1.0 + 0.5 * np.sin(x + 1.0)))[None, :])]


def divfree_2d_drift(grid: Grid) -> GridVector:
    """Rotation field of psi = 2 cos x cos y; divergence-free."""
    if grid.dim != 2:
        raise ValueError("divfree_2d preset is two-dimensional")
    xx, yy = grid.coordinates()
    return GridVector(
        grid, np.stack([-2.0 * np.cos(xx) * np.sin(yy), 2.0 * np.sin(xx) * np.cos(yy)])
    )


def unit_noise(grid: Grid) -> list[GridVector]:
    """One constant coordinate field per direction (sigma^k = e_k)."""
    out = []
    for k in range(grid.dim):
        values = [0.0] * grid.dim
        values[k] = 1.0
        out.append(GridVector.constant(grid, values))
    return out


def divfree_2d_noise(grid: Grid) -> list[GridVector]:
    """Unit noise; together with the rotation drift the flow is measure-preserving."""
    return unit_noise(grid)


def decay_drift(grid: Grid) -> GridVector:
    """Strong first mode plus a k^{-1/4} tail over 30 modes, phases from stream (9, 0)."""
    if grid.dim != 1:
        raise ValueError("decay preset is one-dimensional")
    phases = stream(9, 0).uniform(0.0, 2.0 * np.pi, size=30)
    x = grid.axis_coordinates()
    prof = 5.0 * np.sin(x + phases[0])
    for k in range(2, 31):
        prof += k**-0.25 * np.sin(k * x + phases[k - 1])
    return GridVector(grid, prof[None, :])


def default_datum(grid: Grid) -> GridScalar:
    """1 + (1/2) product of axis sines: positive, mean one, mode-one ripple."""
    if grid.dim == 1:
        return GridScalar.from_function(grid, lambda x: 1.0 + 0.5 * np.sin(x))
    return GridScalar.from_function(grid, lambda x, y: 1.0 + 0.5 * np.sin(x) * np.sin(y))


@dataclass(frozen=True)
class Preset:
    """A coefficient set: grid dimension (None for any) and field builders."""

    dim: int | None
    drift: Callable[[Grid], GridVector]
    noise: Callable[[Grid], list[GridVector]]


PRESETS = {
    "constant": Preset(None, constant_drift, unit_noise),
    "trig_flow": Preset(1, trig_flow_drift, trig_flow_noise),
    "drift_dominated": Preset(1, drift_dominated_drift, drift_dominated_noise),
    "divfree_2d": Preset(2, divfree_2d_drift, divfree_2d_noise),
    "decay": Preset(1, decay_drift, unit_noise),
}
PRESET_TAGS = tuple(PRESETS)
