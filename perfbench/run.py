"""Fresh-process benchmark for loopcft.

Each sample is one new interpreter (``child.py``) that runs one workload
once; this process launches it, stamps its ``ready`` and ``done`` signals
with its own clock, reaps it with ``os.wait4`` for its peak RSS, and checks
its output against the digests recorded in ``digests.json``.  The load is
closed-loop with one client: one single-threaded child at a time.  A fresh
process per sample is needed because the module-level ``lru_cache``s in
``loopcft.verma`` would otherwise turn every repeat into a cache hit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kac --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record-digests

The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); with ``--trace 0`` the metrics are the end-to-end
ones and with ``--trace 1`` the per-layer ones.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(ROOT, ".perfbench_out")

INPUT_SEEDS = 16  # program seeds with recorded digests: 2000 * (seed % 16)
KAC_KAPPAS = ["3/1", "2/1", "8/3", "4/1"]  # central charges 1/2, -2, 0, 1
SETUP_PROBES = 5
RUN_CAP_S = 170.0  # per workload: samples still running at this age are killed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" or "states"
    distinct_inputs: int  # seeds 0 .. distinct_inputs-1 reach every input

    def inputs(self, seed: int) -> tuple[str, dict]:
        """(input id, child spec fields) for a benchmark seed."""
        program_seed = 2000 * (seed % INPUT_SEEDS)
        if self.name == "report-all":
            argv = ["report-all", "--level", "5", "--max-mode", "4", "--seed", str(program_seed)]
            return f"seed={program_seed}", {"argv": argv}
        if self.name == "kac":
            kappa = KAC_KAPPAS[seed % len(KAC_KAPPAS)]
            return f"kappa={kappa}", {"argv": ["kac", "--level", "6", "--kappa", kappa]}
        if self.name == "loewner":
            argv = [
                "loewner-demo", "--kappa", "3/1", "--dt", "1e-4", "--seeds", "2000",
                "--seed", str(program_seed),
            ]
            return f"seed={program_seed}", {"argv": argv}
        # the evaluation order follows the seed; the certified table does not
        spec = {"max_mode": 2, "max_weight": 6, "window": 10, "order_seed": seed}
        return "window=10", spec


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-all", "cli", INPUT_SEEDS),
        Workload("states", "states", 1),
        Workload("kac", "cli", len(KAC_KAPPAS)),
        Workload("loewner", "cli", INPUT_SEEDS),
    )
}


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _read_signals(fd: int, deadline: float) -> tuple[list[tuple[float, str]], bool]:
    """Lines from the signal pipe, each stamped on arrival; True on timeout."""
    events: list[tuple[float, str]] = []
    pending = b""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            return events, True
        chunk = os.read(fd, 4096)
        now = time.perf_counter()
        if not chunk:
            return events, False
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            events.append((now, line.decode()))


@dataclass
class Launch:
    code: int
    timed_out: bool
    setup_s: float | None
    run_s: float | None
    import_s: float | None
    rss_mb: float
    stdout: str
    stderr: str


def launch(spec: dict, workdir: str, deadline: float) -> Launch:
    read_fd, write_fd = os.pipe()
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    spec = {**spec, "signal_fd": write_fd}
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", CHILD, json.dumps(spec)],
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            pass_fds=(write_fd,),
        )
        os.close(write_fd)
        try:
            events, timed_out = _read_signals(read_fd, deadline)
        finally:
            os.close(read_fd)
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stamps = {line.split()[0]: (at, line.split()[1:]) for at, line in events}
    ready = stamps.get("ready")
    done = stamps.get("done")
    with open(out_path) as handle:
        stdout = handle.read()
    with open(err_path) as handle:
        stderr = handle.read()
    return Launch(
        code=proc.returncode,
        timed_out=timed_out,
        setup_s=ready[0] - start if ready else None,
        run_s=done[0] - ready[0] if ready and done else None,
        import_s=float(ready[1][0]) if ready else None,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


# ---------------------------------------------------------------------------
# outputs and their digests
# ---------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _without_timing(value):
    if isinstance(value, dict):
        return {k: _without_timing(v) for k, v in value.items() if k != "timing"}
    if isinstance(value, list):
        return [_without_timing(v) for v in value]
    return value


def certify(workload: Workload, result: Launch, csv_path: str | None) -> dict:
    """Digests, operation counts and check timings of one finished sample."""
    doc = json.loads(result.stdout)
    if workload.kind == "states":
        return {
            "digests": {"coefficients": _sha256(json.dumps(doc["coefficients"]))},
            "operations": doc["evaluations"],
            "failed": doc["failed"],
            "timed_s": 0.0,
        }
    digests = {"report": _sha256(json.dumps(_without_timing(doc), sort_keys=True))}
    if csv_path is not None:
        with open(csv_path) as handle:
            digests["trace_csv"] = _sha256(handle.read())
    return {
        "digests": digests,
        "operations": len(doc["checks"]),
        "failed": sum(c["status"] != "pass" for c in doc["checks"]),
        "timed_s": sum(c["timing"] for c in doc["checks"]),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from one trace
# ---------------------------------------------------------------------------

SUITES = [
    "verify-commutators", "gram", "kac", "singular",
    "operators", "reflection", "bubble-limit", "loewner-demo",
]

# hot counters: metric prefix -> counter name
HOT = {
    "poly.mul": "poly.mul", "poly.add": "poly.add", "poly.derivative": "poly.derivative",
    "poly.substitute": "poly.substitute", "series.mul": "series.mul",
    "series.pow": "series.pow", "series.inverse": "series.inverse",
    "series.reversion": "series.reversion", "series.schwarzian": "series.schwarzian",
    "linalg": "linalg", "operators.apply": "operators.apply",
    "operators.bracket": "operators.bracket", "operators.residue": "operators.residue",
    "verma.rank": "verma.rank", "spectral": "spectral",
    "loewner.forward_map": "loewner.forward_map", "loewner.trace_tip": "loewner.trace_tip",
}

# (metric, unit) in output order; counts repeat exactly between traced runs
LAYER_METRICS = [
    ("poly.mul.calls", "count"), ("poly.mul.term_pairs", "count"), ("poly.mul.s", "s"),
    ("poly.add.calls", "count"), ("poly.add.s", "s"),
    ("poly.derivative.calls", "count"), ("poly.derivative.s", "s"),
    ("poly.substitute.s", "s"),
    ("series.mul.calls", "count"), ("series.mul.s", "s"), ("series.pow.s", "s"),
    ("series.inverse.s", "s"), ("series.reversion.calls", "count"),
    ("series.reversion.s", "s"), ("series.schwarzian.s", "s"),
    ("linalg.calls", "count"), ("linalg.s", "s"),
    ("operators.build.calls", "count"), ("operators.build.s", "s"),
    ("operators.build.max_s", "s"), ("operators.table.lookups", "count"),
    ("operators.table.hit_ratio", "ratio"), ("operators.apply.calls", "count"),
    ("operators.apply.s", "s"), ("operators.bracket.calls", "count"),
    ("operators.bracket.s", "s"), ("operators.residue.calls", "count"),
    ("operators.residue.s", "s"),
    ("verma.gram_entry.calls", "count"), ("verma.gram_matrix.s", "s"),
    ("verma.kac_determinant.s", "s"), ("verma.rank.s", "s"),
    ("spectral.calls", "count"), ("spectral.s", "s"),
    ("loewner.sample.calls", "count"), ("loewner.sample.s", "s"), ("loewner.trace.s", "s"),
    ("loewner.forward_map.calls", "count"), ("loewner.forward_map.s", "s"),
    ("loewner.trace_tip.s", "s"), ("loewner.csv.s", "s"),
    *[(f"reports.suite.{suite}.s", "s") for suite in SUITES],
    ("reports.checks", "count"), ("reports.check.self_s", "s"), ("reports.untimed_s", "s"),
    ("cli.emit.s", "s"), ("setup.import_s", "s"),
    ("host_ref_s", "s"), ("trace.overhead_s", "s"),
]
UNITS = dict(LAYER_METRICS)


def layer_metrics(trace: dict, timed_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sample (setup, host and overhead aside)."""
    counters = trace["counters"]
    spans = trace["spans"]
    out: dict[str, float] = {}
    for prefix, counter in HOT.items():
        calls, self_s, pairs, _ = counters.get(counter, [0, 0.0, 0, 0])
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.s"] = self_s
        if prefix == "poly.mul":
            out["poly.mul.term_pairs"] = pairs
    lookups, _, _, hits = counters.get("operators.table", [0, 0.0, 0, 0])
    out["operators.table.lookups"] = lookups
    out["operators.table.hit_ratio"] = hits / lookups if lookups else 0.0
    out["verma.gram_entry.calls"] = counters.get("verma.gram_entry", [0])[0]

    def self_times(name: str) -> list[float]:
        return [span["self_s"] for span in spans if span["name"] == name]

    builds = self_times("operators.build")
    out["operators.build.calls"] = len(builds)
    out["operators.build.s"] = sum(builds)
    out["operators.build.max_s"] = max(builds, default=0.0)
    samples = self_times("loewner.sample")
    out["loewner.sample.calls"] = len(samples)
    for metric, name in (
        ("verma.gram_matrix.s", "verma.gram_matrix"),
        ("verma.kac_determinant.s", "verma.kac_determinant"),
        ("loewner.sample.s", "loewner.sample"),
        ("loewner.trace.s", "loewner.trace"),
        ("loewner.csv.s", "loewner.csv"),
        ("cli.emit.s", "cli.emit"),
        ("reports.check.self_s", "reports.check"),
    ):
        out[metric] = sum(self_times(name))
    suite_wall = 0.0
    for suite in SUITES:
        wall = sum(s["s"] for s in spans if s["name"] == f"reports.suite.{suite}")
        out[f"reports.suite.{suite}.s"] = wall
        suite_wall += wall
    out["reports.checks"] = len(self_times("reports.check"))
    out["reports.untimed_s"] = suite_wall - timed_s if suite_wall else 0.0
    return {name: out[name] for name, _ in LAYER_METRICS if name in out}


def span_summary(trace: dict, count: int = 3) -> list[str]:
    """The spans with the most self time, then the slowest checks, each with
    the spans nested directly under it."""
    spans = trace["spans"]
    lines = []
    for span in sorted(spans, key=lambda s: -s["self_s"])[:count]:
        parent = spans[span["parent"]]["label"] if span["parent"] is not None else "-"
        lines.append(f"  top self time: {span['label']}: {span['self_s']:.3f} s (in {parent})")
    checks = sorted(
        (s for s in spans if s["name"] == "reports.check"), key=lambda s: -s["s"]
    )[:count]
    for check in checks:
        lines.append(f"  {check['label']}: {check['s']:.3f} s, self {check['self_s']:.3f} s")
        children: dict[str, list[float]] = {}
        for child in spans:
            if child["parent"] == check["id"]:
                children.setdefault(child["label"], []).append(child["s"])
        for label, times in children.items():
            count = f" x{len(times)}" if len(times) > 1 else ""
            lines.append(f"    child span {label}{count}: {sum(times):.3f} s")
    return lines


# ---------------------------------------------------------------------------
# one workload over one run
# ---------------------------------------------------------------------------


def host_ref_s() -> float:
    """A fixed pure-Python loop; recorded beside each sample, never compared."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(200_000):
        key = i % 997
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


@dataclass
class Bench:
    workload: Workload
    seed: int
    digests: dict
    workdir: str
    run_deadline: float
    setup: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    traced_run: list[float] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    host: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    last_trace: dict | None = None

    def __post_init__(self):
        self.input_id, self.spec = self.workload.inputs(self.seed)
        self.expected = self.digests.get(self.workload.name, {}).get(self.input_id)
        if self.expected is None:
            self.problems.append(f"no recorded digest for {self.workload.name} {self.input_id}")

    def _spec(self, setup_only: bool, trace_out: str | None, csv_path: str | None) -> dict:
        spec = {**self.spec, "kind": self.workload.kind, "setup_only": setup_only,
                "trace_out": trace_out}
        if csv_path is not None:
            spec["argv"] = spec["argv"] + ["--trace-csv", csv_path]
        return spec

    def probe(self, keep: bool = True) -> None:
        result = launch(self._spec(True, None, None), self.workdir, self.run_deadline)
        if result.setup_s is None:
            self.problems.append(f"setup probe failed (exit {result.code}): {result.stderr[-300:]}")
        elif keep:
            self.setup.append(result.setup_s)

    def sample(self, traced: bool) -> float:
        """One full sample; returns its wall time including set-up."""
        csv_path = os.path.join(self.workdir, "trace.csv") if self.workload.name == "loewner" else None
        trace_out = os.path.join(self.workdir, "trace.json") if traced else None
        for path in (csv_path, trace_out):
            if path is not None and os.path.exists(path):
                os.remove(path)
        self.host.append(host_ref_s())
        start = time.perf_counter()
        result = launch(self._spec(False, trace_out, csv_path), self.workdir, self.run_deadline)
        wall = time.perf_counter() - start
        operations = self.expected["operations"] if self.expected else 1
        problem = None
        if result.code != 0 or result.run_s is None:
            problem = f"exit {result.code}{' (timed out)' if result.timed_out else ''}: {result.stderr[-300:]}"
        else:
            try:
                cert = certify(self.workload, result, csv_path)
            except (ValueError, KeyError, OSError) as exc:
                cert, problem = None, f"unreadable output: {exc!r}"
            if cert is not None:
                if self.expected is None or cert["digests"] != self.expected["digests"]:
                    problem = f"output digest mismatch for {self.input_id}"
                elif cert["operations"] != operations:
                    problem = f"{cert['operations']} operations, expected {operations}"
        self.attempted += operations
        if problem is not None:
            self.failed += operations
            self.problems.append(problem)
            return wall
        self.failed += cert["failed"]
        self.setup.append(result.setup_s)
        self.imports.append(result.import_s)
        if traced:
            with open(trace_out) as handle:
                trace = json.load(handle)
            self.traced_run.append(result.run_s)
            self.layers.append(layer_metrics(trace, cert["timed_s"]))
            self.last_trace = trace
        else:
            self.run.append(result.run_s)
            self.rss.append(result.rss_mb)
        return wall

    def end_to_end(self) -> dict:
        # run_s is the fastest sample: other tenants of a shared host only
        # ever add time, in bursts that can cover half of a run's samples
        return {
            "run_s": {"value": min(self.run), "unit": "s"},
            "setup_s": {"value": statistics.median(self.setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(self.rss), "unit": "MB"},
        }

    def per_layer(self) -> dict:
        merged: dict[str, float] = {}
        for name in self.layers[0]:
            values = [layers[name] for layers in self.layers]
            if UNITS[name] == "count":
                if len(set(values)) > 1:
                    self.problems.append(f"{name} differs between traced samples: {values}")
                merged[name] = values[0]
            else:
                merged[name] = statistics.median(values)
        merged["setup.import_s"] = statistics.median(self.imports)
        merged["host_ref_s"] = statistics.median(self.host)
        merged["trace.overhead_s"] = statistics.median(self.traced_run) - statistics.median(self.run)
        return {name: {"value": merged[name], "unit": UNITS[name]} for name, _ in LAYER_METRICS}

    def result(self, trace: bool) -> dict:
        complete = bool(self.run and self.setup and (self.layers or not trace))
        if not complete:
            self.problems.append("no complete sample")
        metrics = {}
        if complete:
            metrics = self.per_layer() if trace else self.end_to_end()
        correct = complete and not self.problems and self.failed == 0
        return {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }

    def summary(self, trace: bool) -> list[str]:
        lines = [f"workload {self.workload.name} ({self.input_id})"]

        def row(name, values, unit):
            if values:
                lines.append(
                    f"  {name:<14} median {statistics.median(values):.6g} {unit}, "
                    f"min {min(values):.6g} {unit}  (n={len(values)})"
                )

        row("run_s", self.run, "s")
        row("setup_s", self.setup, "s")
        row("peak_rss_mb", self.rss, "MB")
        ratio = self.failed / self.attempted if self.attempted else 1.0
        lines.append(f"  {'fail_ratio':<14} {ratio:.6g}  ({self.failed} of {self.attempted} operations)")
        row("host_ref_s", self.host, "s")
        if trace:
            row("traced run_s", self.traced_run, "s")
            if self.last_trace is not None:
                lines += span_summary(self.last_trace)
        lines += [f"  problem: {p}" for p in self.problems]
        return lines


def measure(names: list[str], seed: int, seconds: float, trace: bool, workdir: str) -> list[Bench]:
    """Probe set-up, then take sample sets until the time is used.

    Each sample set runs every workload once, the order rotated by one per
    set.  A run takes at least one untraced sample per workload (and one
    traced in trace mode), then starts another sample set only while the
    last one says it would end less than half a set past ``seconds`` per
    workload.
    """
    with open(DIGESTS) as handle:
        digests = json.load(handle)
    seconds *= len(names)
    start = time.perf_counter()
    run_deadline = start + RUN_CAP_S * len(names)
    benches = [
        Bench(WORKLOADS[n], seed, digests, workdir, run_deadline) for n in names
    ]
    for bench in benches:
        bench.probe(keep=False)  # compiles bytecode and warms the file cache
        for _ in range(SETUP_PROBES):
            bench.probe()
    kinds = [True, False] if trace else [False]
    last = 0.0
    for round_no in range(10_000):
        for traced in kinds if round_no % 2 == 0 else kinds[::-1]:
            order = benches[round_no % len(benches):] + benches[: round_no % len(benches)]
            now = time.perf_counter()
            if round_no > 0 and now - start + last / 2 > seconds or now > run_deadline:
                return benches
            last = sum(bench.sample(traced) for bench in order)
    return benches


# ---------------------------------------------------------------------------
# digest recording
# ---------------------------------------------------------------------------


def record_digests(workdir: str) -> int:
    """Run every workload input once and store its output digests."""
    digests: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        for seed in range(workload.distinct_inputs):
            bench = Bench(workload, seed, {}, workdir, time.perf_counter() + 600)
            csv_path = os.path.join(workdir, "trace.csv") if workload.name == "loewner" else None
            result = launch(bench._spec(False, None, csv_path), workdir, bench.run_deadline)
            if result.code != 0:
                print(f"{workload.name} {bench.input_id}: exit {result.code}\n{result.stderr}", file=sys.stderr)
                return 1
            cert = certify(workload, result, csv_path)
            if cert["failed"]:
                print(f"{workload.name} {bench.input_id}: {cert['failed']} failed", file=sys.stderr)
                return 1
            digests.setdefault(workload.name, {})[bench.input_id] = {
                "digests": cert["digests"],
                "operations": cert["operations"],
            }
            print(f"{workload.name} {bench.input_id}: {cert['operations']} operations, run {result.run_s:.2f} s")
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record digests.json from the current program")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "loopcft", "__init__.py")):
        print(f"no loopcft sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.record_digests:
            return record_digests(workdir)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        benches = measure(names, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for bench in benches:
        if bench.last_trace is not None:
            with open(os.path.join(OUT, f"trace-{bench.workload.name}.json"), "w") as handle:
                json.dump(bench.last_trace, handle)
        print("\n".join(bench.summary(bool(args.trace))))
    for bench in benches:
        print(json.dumps(bench.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
