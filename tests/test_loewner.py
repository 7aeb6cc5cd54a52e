"""Tests for the Loewner forward map, zipper trace, and driving sampler."""

import cmath
import csv
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcft import loewner
from loopcft.loewner import (
    DrivingFunction,
    SwallowedError,
    Trace,
    forward_map,
    sample_sle_driving,
    sle_driving_endpoints,
    trace,
    trace_tip,
    write_trace_csv,
)


def brownian_like_driver(seed: int, steps: int = 400, dt: float = 1e-3):
    rng = np.random.default_rng(seed)
    values = np.concatenate(([0.0], np.cumsum(0.25 * rng.standard_normal(steps))))
    return DrivingFunction(dt=dt, values=tuple(values))


# ---------------------------------------------------------------------------
# driver type
# ---------------------------------------------------------------------------


def test_driver_validation():
    with pytest.raises(ValueError):
        DrivingFunction(dt=0.0, values=(0.0, 1.0))
    with pytest.raises(ValueError):
        DrivingFunction(dt=0.1, values=(0.5, 1.0))
    with pytest.raises(ValueError):
        DrivingFunction(dt=0.1, values=(0.0, math.inf))
    with pytest.raises(ValueError):
        DrivingFunction(dt=0.1, values=())


def test_driver_interpolation_and_metadata():
    w = DrivingFunction(dt=0.5, values=(0.0, 1.0, 3.0))
    assert w.steps == 2
    assert w.total_time == 1.0
    at = w.interpolant()
    assert at(0.0) == 0.0
    assert at(0.25) == pytest.approx(0.5)
    assert at(0.75) == pytest.approx(2.0)
    assert at(5.0) == 3.0  # clamped at the right end
    assert at(-1.0) == 0.0


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def test_forward_map_zero_driver_closed_form():
    w = DrivingFunction.zero(1.0, 1e-3)
    result = forward_map(w, 3j, 1.0)
    assert abs(result - cmath.sqrt((3j) ** 2 + 4)) < 1e-6


def test_forward_map_identity_at_time_zero():
    w = DrivingFunction.zero(1.0, 1e-3)
    assert forward_map(w, 3j, 0.0) == 3j


def test_forward_map_swallows_the_tip_point():
    w = DrivingFunction.zero(1.0, 1e-4)
    with pytest.raises(SwallowedError) as caught:
        forward_map(w, 2j, 1.0)
    assert caught.value.time == pytest.approx(1.0, abs=0.01)
    assert abs(caught.value.point) < 0.2  # the point was heading to 0


def test_forward_map_swallows_a_point_on_the_driver_or_next_to_it():
    # at z = W_0 every RK4 stage divides by zero; next to it the stages overflow
    # to nan.  Neither step passes the error test, so neither is accepted.
    w = DrivingFunction.zero(1.0, 1e-3)
    for z in (0j, 1e-310 + 1e-310j, 5e-324j):
        with pytest.raises(SwallowedError) as caught:
            forward_map(w, z, 1.0)
        assert caught.value.time == 0.0
        assert caught.value.point == z


def test_forward_map_swallows_no_point_of_an_sle_hull_with_kappa_at_most_4():
    # SLE_kappa with kappa <= 4 is a simple curve, so it swallows no point of H;
    # a 10 sqrt(dt) swallow radius used to raise for 11 of these 60 drivers
    for seed in range(60):
        w = sample_sle_driving(8 / 3, 1.0, 1e-3, seed)
        g = forward_map(w, 1 + 1j, 1.0)
        assert g.imag > 0, seed


def test_forward_map_time_validation():
    w = DrivingFunction.zero(1.0, 1e-2)
    with pytest.raises(ValueError):
        forward_map(w, 3j, 2.0)
    with pytest.raises(ValueError):
        forward_map(w, 3j, -1.0)


def test_forward_map_capacity_normalization():
    for seed in (7, 19):
        w = brownian_like_driver(seed, steps=1000)
        defects = []
        for radius in (50.0, 100.0):
            z = complex(radius, 1.0)
            defect = abs(forward_map(w, z, 1.0) - z - 2.0 / z)
            defects.append(defect)
            assert defect * radius * radius < 100.0, (seed, radius)
        assert defects[1] < defects[0]  # decays with |z|


def test_forward_map_concatenation():
    w = brownian_like_driver(3, steps=1000)
    values = np.asarray(w.values)
    mid_value = values[500]
    second_half = DrivingFunction(
        dt=w.dt, values=tuple(v - mid_value for v in values[500:])
    )
    z = 5j
    direct = forward_map(w, z, 1.0)
    half_point = forward_map(w, z, 0.5)
    relayed = forward_map(second_half, half_point - mid_value, 0.5) + mid_value
    assert abs(direct - relayed) < 1e-8


# The forward map as it read before the driver was bound once per call: every
# RK4 stage built the interpolant afresh.  Kept as the oracle for
# bit-identical results, with the same step-floor swallow guard.


def _reference_rk4_step(w, t, z, h):
    def f(s, y):
        return 2.0 / (y - w.interpolant()(s))

    k1 = f(t, z)
    k2 = f(t + h / 2, z + h / 2 * k1)
    k3 = f(t + h / 2, z + h / 2 * k2)
    k4 = f(t + h, z + h * k3)
    return z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _reference_forward_map(w, z, T):
    if T < 0:
        raise ValueError("target time must be nonnegative")
    if T > w.total_time + 1e-12:
        raise ValueError("driver not defined up to the requested time")
    if T == 0:
        return z
    tol = 1e-10
    t = 0.0
    g = complex(z)
    h = w.dt
    while t < T:
        h = min(h, T - t)
        try:
            coarse = _reference_rk4_step(w, t, g, h)
            half = _reference_rk4_step(w, t, g, h / 2)
            fine = _reference_rk4_step(w, t + h / 2, half, h / 2)
        except ZeroDivisionError:
            fine = coarse = math.nan
        if not abs(fine - coarse) <= tol:
            if h <= 1e-12:
                raise SwallowedError(t, g)
            h /= 2
            continue
        g = fine
        t += h
        if h < w.dt:
            h *= 2
    return g


def _hex(z):
    return (float.hex(z.real), float.hex(z.imag))


def _outcome(fn, w, z, T):
    try:
        return ("ok", _hex(fn(w, z, T)))
    except SwallowedError as err:
        return ("swallowed", float.hex(err.time), _hex(err.point))


FORWARD_MAP_DRIVERS = {
    "zero": DrivingFunction.zero(1.0, 1e-3),
    "constant": DrivingFunction(dt=1e-3, values=(0.0,) + (0.75,) * 1000),
    "sle": sample_sle_driving(3.0, 1.0, 1e-3, 11),
    "sle-coarse": sample_sle_driving(4.0, 1.0, 1e-2, 5),
}


@pytest.mark.parametrize("name", sorted(FORWARD_MAP_DRIVERS))
@pytest.mark.parametrize("z", [3j, 0.4 + 1.5j, -2.0 + 0.3j, 50.0 + 1.0j])
@pytest.mark.parametrize("T", [0.0, 0.37, 1.0])
def test_forward_map_matches_reference_bitwise(name, z, T):
    w = FORWARD_MAP_DRIVERS[name]
    assert _outcome(forward_map, w, z, T) == _outcome(_reference_forward_map, w, z, T)


def test_forward_map_swallow_matches_reference_bitwise():
    w = DrivingFunction.zero(1.0, 1e-3)
    got = _outcome(forward_map, w, 2j, 1.0)
    assert got[0] == "swallowed"
    assert got == _outcome(_reference_forward_map, w, 2j, 1.0)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_zero_driver_is_vertical_segment():
    w = DrivingFunction.zero(1.0, 1e-3)
    tr = trace(w)
    assert tr.points[0] == 0
    assert all(p.real == 0 for p in tr.points)
    for k in (1, 10, 500, 1000):
        assert tr.points[k] == pytest.approx(2j * math.sqrt(k * 1e-3), abs=1e-12)


def test_trace_tip_matches_full_trace():
    w = brownian_like_driver(23, steps=300)
    assert trace_tip(w) == pytest.approx(trace(w).tip, abs=1e-12)


@pytest.mark.parametrize("seed", [None, 0, 1, 11, 42])
def test_trace_tip_is_the_one_point_zipper_block_bitwise(seed):
    # both take scalar arithmetic on one point; a longer block's vector loop
    # may round the complex square differently, so trace(w).tip need not match
    if seed is None:
        w = DrivingFunction.zero(1.0, 1e-3)
    else:
        w = sample_sle_driving(8 / 3, 1.0, 1e-3, seed)
    K = w.steps
    assert _bits([trace_tip(w)]) == _bits(loewner._zipper(w, (K, K + 1))[-1:])


def test_trace_tip_fine_grid():
    tip = trace_tip(DrivingFunction.zero(1.0, 1e-4))
    assert abs(tip - 2j) < 1e-3


def test_trace_translation_covariance():
    K = 200
    shift = 0.7
    base = trace(DrivingFunction(dt=1e-3, values=(0.0,) * (K + 1)))
    jumped = trace(DrivingFunction(dt=1e-3, values=(0.0,) + (shift,) * K))
    for k in range(1, K + 1):
        assert jumped.points[k] - shift == pytest.approx(base.points[k], abs=1e-12)


def test_trace_brownian_scaling_exact():
    w = sample_sle_driving(3.0, 1.0, 1e-3, seed=11)
    doubled = DrivingFunction(dt=4 * w.dt, values=tuple(2 * v for v in w.values))
    assert doubled.dt == 4e-3
    left = trace(doubled).points
    right = trace(w).points
    for a, b in zip(left, right):
        assert a == pytest.approx(2 * b, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_trace_stays_in_upper_half_plane(seed):
    w = sample_sle_driving(4.0, 0.2, 1e-2, seed=seed)
    tr = trace(w)
    assert tr.points[0] == 0
    assert all(p.imag >= 0 for p in tr.points)


def _upper_sqrt(values: np.ndarray) -> np.ndarray:
    roots = np.sqrt(values.astype(complex))
    return np.where(roots.imag < 0, -roots, roots)


def _reference_trace_points(w: DrivingFunction) -> tuple[complex, ...]:
    """The allocating zipper loop, one fresh array per operation."""
    K = w.steps
    dt = w.dt
    increments = np.diff(np.asarray(w.values))
    ys = np.zeros(K + 1, dtype=complex)
    for j in range(K, 0, -1):
        ys[j:] = _upper_sqrt(ys[j:] ** 2 - 4.0 * dt) + increments[j - 1]
    ys.imag[ys.imag < 0] = 0.0
    return tuple(complex(v) for v in ys)


def _bits(points) -> list[tuple[str, str]]:
    return [(p.real.hex(), p.imag.hex()) for p in points]


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
@pytest.mark.parametrize("seed", [0, 1, 11, 42])
def test_in_place_trace_matches_reference_bitwise(seed, dt):
    w = sample_sle_driving(3.0, 1.0, dt, seed=seed)
    assert _bits(trace(w).points) == _bits(_reference_trace_points(w))


def test_in_place_trace_matches_reference_on_deterministic_drivers():
    K = 200
    for w in (
        DrivingFunction.zero(1.0, 1e-3),
        DrivingFunction(dt=1e-3, values=(0.0,) + (0.7,) * K),
    ):
        assert _bits(trace(w).points) == _bits(_reference_trace_points(w))


def _equal_work_cuts(points: int, blocks: int) -> list[int]:
    return [round(points * math.sqrt(i / blocks)) for i in range(blocks + 1)]


@pytest.mark.parametrize("dt", [1e-2, 1e-3])
def test_zipper_blocks_match_reference_bitwise(dt):
    K = round(1 / dt)
    splits = [
        [0, K + 1],
        _equal_work_cuts(K + 1, 2),
        _equal_work_cuts(K + 1, 3),
        [0, 1, 2, K // 3, K + 1],  # uneven, with one-point blocks
    ]
    for w in (
        sample_sle_driving(3.0, 1.0, dt, seed=5),
        DrivingFunction.zero(1.0, dt),
        DrivingFunction(dt=dt, values=(0.0,) + (0.7,) * K),
    ):
        want = _bits(_reference_trace_points(w))
        for cuts in splits:
            assert _bits(loewner._zipper(w, cuts)) == want, cuts


def test_trace_is_the_same_bits_on_any_worker_count(monkeypatch):
    # the blocks share one buffer; frequent thread switches would expose an overlap
    w = sample_sle_driving(3.0, 1.0, 2e-4, seed=3)
    assert w.steps == 5000
    traces = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(loewner, "_workers", lambda work, n=workers: n)
            traces.append(_bits(trace(w).points))
    finally:
        sys.setswitchinterval(interval)
    assert traces[0] == traces[1] == traces[2]


def test_trace_cuts_leave_no_one_point_block_past_index_1(monkeypatch):
    # numpy may take a length-1 slice through a scalar path that rounds unlike
    # its vector loop (cuts [0, 500, 501, 1001] change point 500 of an SLE_3
    # trace), so a one-point block past index 1 could change trace()'s bits
    monkeypatch.setattr(loewner, "_usable_cpus", lambda: 64)
    ceilings = [loewner._workers(K * K // 2) for K in range(20001)]
    assert max(ceilings) < 64  # the work, not the CPUs, bounds the worker count
    one_point = []

    def zipper(w, cuts):
        one_point.extend((w.steps, a) for a, b in zip(cuts, cuts[1:]) if b - a == 1 and a > 1)
        return np.zeros(1, dtype=complex)

    monkeypatch.setattr(loewner, "_zipper", zipper)
    monkeypatch.setattr(loewner, "_workers", lambda work: workers)
    for K, ceiling in enumerate(ceilings):
        w = types.SimpleNamespace(steps=K, dt=1.0)
        for workers in range(1, ceiling + 1):
            trace(w)
    assert one_point == []


def test_trace_type_validation():
    with pytest.raises(ValueError):
        Trace(dt=0.1, points=(1 + 0j, 2j))
    with pytest.raises(ValueError):
        Trace(dt=0.1, points=(0j, -1j))
    with pytest.raises(ValueError, match="origin"):
        Trace(dt=0.1, points=())


# ---------------------------------------------------------------------------
# SLE driving sampler
# ---------------------------------------------------------------------------


def test_sampler_determinism():
    a = sample_sle_driving(3.0, 1.0, 1e-2, seed=42)
    b = sample_sle_driving(3.0, 1.0, 1e-2, seed=42)
    assert a.values == b.values
    c = sample_sle_driving(3.0, 1.0, 1e-2, seed=43)
    assert a.values != c.values


def test_sampler_shape_and_start():
    w = sample_sle_driving(2.0, 1.0, 1e-2, seed=0)
    assert w.values[0] == 0.0
    assert w.steps == 100
    assert w.total_time == pytest.approx(1.0)


def test_sampler_parameter_validation():
    with pytest.raises(ValueError):
        sample_sle_driving(5.0, 1.0, 1e-2, seed=0)
    with pytest.raises(ValueError):
        sample_sle_driving(3.0, 1.0, -1e-2, seed=0)
    with pytest.raises(ValueError):
        sample_sle_driving(3.0, 0.0, 1e-2, seed=0)


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_endpoint_is_the_sampled_driver_endpoint_bitwise(dt):
    for seed in range(50):
        want = sample_sle_driving(3.0, 1.0, dt, seed=seed).values[-1]
        assert sle_driving_endpoints(3.0, 1.0, dt, [seed])[0].hex() == want.hex()


@pytest.mark.parametrize("dt, workers", [(1e-3, None), (1e-4, 2)])
def test_endpoint_batch_is_the_per_seed_endpoints_bitwise(monkeypatch, dt, workers):
    seeds = range(100, 160)
    if workers is None:
        assert loewner._workers(len(seeds) * round(1 / dt)) == 1
    else:
        monkeypatch.setattr(loewner, "_workers", lambda work: workers)
    want = [sample_sle_driving(3.0, 1.0, dt, seed=s).values[-1].hex() for s in seeds]
    assert [end.hex() for end in sle_driving_endpoints(3.0, 1.0, dt, seeds)] == want


def test_endpoint_batch_raises_a_worker_error(monkeypatch):
    walk = loewner._sle_walk

    def faulty_walk(kappa, T, dt, seed):
        if seed == 37:
            raise ValueError("seed 37 fails")
        return walk(kappa, T, dt, seed)

    monkeypatch.setattr(loewner, "_sle_walk", faulty_walk)
    monkeypatch.setattr(loewner, "_workers", lambda work: 2)
    with pytest.raises(ValueError, match="seed 37 fails"):
        sle_driving_endpoints(3.0, 1.0, 1e-4, range(30, 40))


@pytest.mark.parametrize(
    "kappa, T, dt",
    [(5.0, 1.0, 1e-2), (0.0, 1.0, 1e-2), (-1.0, 1.0, 1e-2), (3.0, 1.0, -1e-2),
     (3.0, 1.0, 0.0), (3.0, 0.0, 1e-2), (3.0, -1.0, 1e-2),
     (3.0, 1.0, math.inf)],  # infinite jumps: only the finiteness guard catches these
)
def test_endpoint_rejects_what_the_sampler_rejects(kappa, T, dt):
    with pytest.raises(ValueError):
        sample_sle_driving(kappa, T, dt, seed=0)
    with pytest.raises(ValueError):
        sle_driving_endpoints(kappa, T, dt, range(3))


def test_sampler_variance_small_panel():
    # a quick 800-seed panel; the full 10,000-seed study runs in acceptance
    kappa = 3.0
    finals = np.array(
        [sample_sle_driving(kappa, 1.0, 1e-2, seed=s).values[-1] for s in range(800)]
    )
    variance = finals.var(ddof=1)
    standard_error = kappa * math.sqrt(2.0 / (len(finals) - 1))
    assert abs(variance - kappa) < 4 * standard_error


def test_sampler_increment_distribution_moments():
    w = sample_sle_driving(2.0, 10.0, 1e-2, seed=5)
    increments = np.diff(np.asarray(w.values))
    scale = math.sqrt(2.0 * 1e-2)
    assert abs(increments.mean()) < 4 * scale / math.sqrt(len(increments))
    assert increments.std() == pytest.approx(scale, rel=0.1)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    w = DrivingFunction.zero(0.1, 1e-2)
    tr = trace(w)
    path = tmp_path / "trace.csv"
    assert write_trace_csv(path, tr) == len(tr.points)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "re", "im"]
    k = 5
    assert float(rows[k + 1][0]) == pytest.approx(k * 1e-2)
    assert complex(float(rows[k + 1][1]), float(rows[k + 1][2])) == tr.points[k]
