"""Chordal Loewner evolution: forward maps, zipper traces, driving samplers.

The forward map integrates the half-plane Loewner equation with classic
fourth-order Runge-Kutta steps and step-doubling error control, halving the
step near the moving singularity.  The trace is reconstructed by the zipper
scheme: backward composition of elementary vertical-slit maps, vectorized so
the whole K-point trace costs O(K^2) complex square roots, updated in place
in one buffer.  That square root bounds it: on a 2-vCPU x86-64 VM, K = 10^4
takes 1.6-1.9 s on one thread and 1.1-1.2 s on two.

Threads: the zipper's points and the seeds' walks are independent, so both
are cut into contiguous blocks, one thread per CPU the process may use, and
work too short to gain stays on the calling thread (``_MIN_THREAD_WORK``).
A thread runs the same numpy operations on its elements in the same order
as the single loop, and the results are joined back in order, so the output
is the same bits on any number of CPUs.

Randomness policy: SLE driving functions come from numpy's PCG64 stream via
``Generator.standard_normal``, so a seed fixes the output byte for byte.
Statistics that only need W_T call ``sle_driving_endpoints``, which runs the
same walks as ``sample_sle_driving`` but builds no ``DrivingFunction``.
"""

from __future__ import annotations

import cmath
import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DrivingFunction",
    "Trace",
    "SwallowedError",
    "forward_map",
    "trace",
    "trace_tip",
    "sample_sle_driving",
    "sle_driving_endpoints",
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

    def interpolant(self) -> Callable[[float], float]:
        """Linear interpolation between grid samples, as a plain function
        with the samples and grid bound once."""
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


@dataclass(frozen=True)
class Trace:
    """Approximate Loewner trace; points live in the closed upper half-plane."""

    dt: float
    points: tuple[complex, ...]

    def __post_init__(self):
        if not self.points or self.points[0] != 0:
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
# threads
# ---------------------------------------------------------------------------

# Numpy releases the GIL inside its long ufunc loops, so the zipper's column
# blocks and the seeds' walks run in parallel on threads.  Work is counted in
# elementary updates: one slit map applied to one point, or one walk sample.
# Each thread needs at least _MIN_THREAD_WORK of it.  Measured on a 2-vCPU
# x86-64 VM, two threads tie or lose below about twice that (zipper at
# K = 4000, 8e6 updates: 0.24 s either way; 2000 walks of 1000 steps, 2e6:
# 0.10 s serial, 0.11 s threaded) and win above it (zipper at K = 5000:
# 0.44 s against 0.35 s; 2000 walks of 5000 steps: 0.28 s against 0.17 s).
_MIN_THREAD_WORK = 5_000_000


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _workers(work: int) -> int:
    """Threads for ``work`` updates: one per usable CPU, each with enough to do."""
    return max(1, min(_usable_cpus(), work // _MIN_THREAD_WORK))


def _in_threads(fn: Callable, parts: list) -> list:
    """``[fn(part) for part in parts]``, one thread per part when there are several.

    An exception raised in a worker is raised again here, in the caller.
    """
    if len(parts) <= 1:
        return [fn(part) for part in parts]
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        return list(pool.map(fn, parts))


# ---------------------------------------------------------------------------
# zipper trace
# ---------------------------------------------------------------------------


def trace(w: DrivingFunction) -> Trace:
    """All K trace points by the vectorized backward zipper, plus the origin.

    The k-th point applies the elementary slit maps for steps k, k-1, ..., 1
    to the origin; running every k in one sliced array pass keeps the whole
    reconstruction at O(K^2) numpy operations.  Point k costs about k slit
    maps, so the points are cut into one block of equal work per worker.
    """
    K = w.steps
    workers = _workers(K * K // 2)
    cuts = [round((K + 1) * math.sqrt(i / workers)) for i in range(workers + 1)]
    return Trace(dt=w.dt, points=tuple(_zipper(w, cuts).tolist()))


def _zipper(w: DrivingFunction, cuts: Sequence[int]) -> np.ndarray:
    """The zipper points, one thread per block [cuts[i], cuts[i+1]) of indices.

    Block [a, b) updates the slice ``ys[max(j, a):b]`` in place for each step
    j = b-1, ..., 1: y <- sqrt(y*y - 4 dt), flipped into the upper half-plane,
    plus the driver increment.  Every point sees the same operations in the
    same order whatever the cuts, so the points are the same bits.
    """
    dt = w.dt
    increments = np.diff(np.asarray(w.values))
    ys = np.zeros(w.steps + 1, dtype=complex)
    lower = np.empty(w.steps + 1, dtype=bool)

    def block(bounds: tuple[int, int]) -> None:
        a, b = bounds
        for j in range(b - 1, 0, -1):
            y = ys[max(j, a):b]
            mask = lower[max(j, a):b]
            np.multiply(y, y, out=y)
            np.subtract(y, 4.0 * dt, out=y)
            np.sqrt(y, out=y)
            np.less(y.imag, 0, out=mask)
            np.negative(y, out=y, where=mask)
            np.add(y, increments[j - 1], out=y)

    _in_threads(block, [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b])
    ys.imag[ys.imag < 0] = 0.0  # roundoff guard; the branch choice is above
    return ys


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


def _sle_steps(kappa: float, T: float, dt: float) -> int:
    """The number of grid steps of an SLE driver, once its arguments are checked."""
    if not 0 < kappa <= 4:
        raise ValueError(f"kappa must lie in (0, 4], got {kappa}")
    if dt <= 0 or T <= 0:
        raise ValueError("time step and horizon must be positive")
    return max(1, round(T / dt))


def _sle_walk(kappa: float, T: float, dt: float, seed: int) -> np.ndarray:
    """The seeded walk W_0 = 0, W_1, ..., W_steps; the one source of SLE drivers."""
    steps = _sle_steps(kappa, T, dt)
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


def _walk_ends(kappa: float, T: float, dt: float, seeds: Sequence[int]) -> list[float]:
    """W_T for each seed, in order, without building the drivers.

    A running sum stays non-finite once it is, so the last value is finite
    exactly when every sample is: checking it keeps the driver's guard.
    """
    ends = [float(_sle_walk(kappa, T, dt, seed)[-1]) for seed in seeds]
    if not all(map(math.isfinite, ends)):
        raise ValueError("driver samples must be finite")
    return ends


def sle_driving_endpoints(
    kappa: float, T: float, dt: float, seeds: Iterable[int]
) -> list[float]:
    """W_T of ``sample_sle_driving(kappa, T, dt, s)`` for each of ``seeds``, in order.

    No driver is built.  The seeds are cut into one contiguous chunk per
    worker, and the chunks' endpoints are joined back in seed order.
    """
    seeds = list(seeds)
    workers = _workers(len(seeds) * _sle_steps(kappa, T, dt))
    cuts = [len(seeds) * i // workers for i in range(workers + 1)]
    chunks = [seeds[a:b] for a, b in zip(cuts, cuts[1:])]
    ends = _in_threads(lambda chunk: _walk_ends(kappa, T, dt, chunk), chunks)
    return [end for chunk_ends in ends for end in chunk_ends]


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
