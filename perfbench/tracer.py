"""Per-layer tracing for one benchmark child, installed from outside ``src/``.

Every function is wrapped under each name it is looked up by: a function
imported into several modules (``verma.gram_entry`` is also
``reports.gram_entry`` and ``spectral.gram_entry``) is replaced in every
module namespace that binds it, and methods are replaced on their class.
Wrapping only the defining module would miss every call made through an
imported name.

Two kinds of wrapper share one call stack:

* hot calls (polynomial, series and linear algebra, ``ModeOperator.apply``,
  table lookups, ...) feed aggregated counters: calls, self time, and for
  ``CoeffPoly`` products the term pairs ``len(a) * len(b)``;
* coarse calls (suites, checks, operator builds, ``gram_matrix``,
  ``kac_determinant``, Loewner sample/trace/csv, the CLI emit) are recorded as
  spans with a parent id.

A hot call's self time is its duration minus every wrapped call nested in
it.  A span's self time is its duration minus its child spans only, so a
span's self time includes the hot work done inside it.  Spans and counters
stay in memory and are written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # one frame per active wrapped call: [time in wrapped children]
        self._stack: list[list[float]] = []
        # active spans: [span id, time in child spans]
        self._spans_open: list[list] = []
        self.counters: dict[str, list] = {}
        self.spans: list[dict] = []
        self.patched: dict[str, list[str]] = {}

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name: str) -> list:
        # [calls, self seconds, extra count, hits]
        return self.counters.setdefault(name, [0, 0.0, 0, 0])

    def hot(self, name: str, fn, pairs: type | None = None, lookups: bool = False):
        """Counting wrapper.  ``pairs`` is the polynomial class whose products
        add ``len(a) * len(b)`` term pairs (a scalar factor counts as one
        term); ``lookups`` counts calls that start no operator build."""
        counter = self._counter(name)
        stack = self._stack
        spans = self.spans
        clock = _clock

        def wrapper(*args, **kwargs):
            if pairs is not None:
                other = args[1]
                counter[2] += len(args[0]) * (len(other) if type(other) is pairs else 1)
            first_span = len(spans)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                counter[0] += 1
                counter[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if lookups and not any(
                    span["name"] == "operators.build" for span in spans[first_span:]
                ):
                    counter[3] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def coarse(self, name: str, fn, label=None):
        stack = self._stack
        spans_open = self._spans_open
        spans = self.spans
        clock = _clock

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = spans_open[-1][0] if spans_open else None
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "label": f"{name} {label(*args, **kwargs)}" if label else name,
            }
            spans.append(record)
            frame = [0.0]
            opened = [span_id, 0.0]
            stack.append(frame)
            spans_open.append(opened)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                spans_open.pop()
                record["start"] = start
                record["s"] = elapsed
                record["self_s"] = elapsed - opened[1]
                if stack:
                    stack[-1][0] += elapsed
                if spans_open:
                    spans_open[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def replace_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` in every loaded loopcft module."""
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("loopcft"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self.patched.setdefault(fn.__name__, []).append(
                        f"{module_name}.{attr}"
                    )

    def replace_method(self, cls, names, wrapper) -> None:
        for attr in names:
            setattr(cls, attr, wrapper)
            self.patched.setdefault(f"{cls.__name__}.{names[0]}", []).append(
                f"{cls.__module__}.{cls.__name__}.{attr}"
            )

    def dump(self, path: str) -> None:
        payload = {
            "counters": self.counters,
            "spans": self.spans,
            "patched": self.patched,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _build_label(n, bar=False, max_index=8, *args, **kwargs):
    family = "Lbar" if bar else "L"
    return f"{family}({n}) window {max_index}"


def install() -> Tracer:
    """Wrap the public layer functions of every loopcft module."""
    from loopcft import cli, loewner, operators, reports, spectral, verma
    from loopcft.symbolic import CoeffPoly, LaurentSeries, linalg, series

    tracer = Tracer()
    fn_hot = [
        ("series.reversion", series.series_reversion),
        ("series.schwarzian", series.schwarzian),
        ("operators.bracket", operators.commutator_defect),
        ("operators.residue", operators.varpi),
        ("operators.residue", operators.vartheta),
        ("verma.gram_entry", verma.gram_entry),
        ("verma.rank", verma.gram_rank_at),
        ("loewner.forward_map", loewner.forward_map),
        ("loewner.trace_tip", loewner.trace_tip),
    ]
    fn_hot += [("linalg", getattr(linalg, name)) for name in linalg.__all__]
    fn_hot += [
        ("spectral", getattr(spectral, name))
        for name in spectral.__all__
        if not isinstance(getattr(spectral, name), type)
    ]
    for name, fn in fn_hot:
        wrapper = tracer.hot(name, fn)
        tracer.replace_function(fn, wrapper)

    method_hot = [
        ("poly.mul", CoeffPoly, ("__mul__", "__rmul__"), {"pairs": CoeffPoly}),
        ("poly.add", CoeffPoly, ("__add__", "__radd__"), {}),
        ("poly.derivative", CoeffPoly, ("derivative",), {}),
        ("poly.substitute", CoeffPoly, ("substitute",), {}),
        ("series.mul", LaurentSeries, ("__mul__",), {}),
        ("series.pow", LaurentSeries, ("__pow__",), {}),
        ("series.inverse", LaurentSeries, ("inverse",), {}),
        ("operators.apply", operators.ModeOperator, ("apply",), {}),
        ("operators.table", operators.OperatorTable, ("mode_operator",), {"lookups": True}),
    ]
    for name, cls, attrs, options in method_hot:
        wrapper = tracer.hot(name, vars(cls)[attrs[0]], **options)
        tracer.replace_method(cls, attrs, wrapper)

    suites = {
        "suite_commutators": "verify-commutators",
        "suite_gram": "gram",
        "suite_kac": "kac",
        "suite_singular": "singular",
        "suite_operators": "operators",
        "suite_reflection": "reflection",
        "suite_bubble": "bubble-limit",
        "suite_loewner": "loewner-demo",
    }
    fn_coarse = [
        (f"reports.suite.{suite}", getattr(reports, attr), None)
        for attr, suite in suites.items()
    ]
    fn_coarse += [
        ("operators.build", operators.build_mode_operator, _build_label),
        ("verma.gram_matrix", verma.gram_matrix, lambda level: f"level {level}"),
        ("verma.kac_determinant", verma.kac_determinant, lambda level: f"level {level}"),
        ("loewner.sample", loewner.sample_sle_driving, None),
        ("loewner.trace", loewner.trace, None),
        ("loewner.csv", loewner.write_trace_csv, None),
        ("cli.emit", cli._emit, None),
    ]
    for name, fn, label in fn_coarse:
        tracer.replace_function(fn, tracer.coarse(name, fn, label))

    check = tracer.coarse(
        "reports.check",
        reports.Report.run,
        lambda report, name, fn: f"{report.suite}: {name}",
    )
    tracer.replace_method(reports.Report, ("run",), check)
    return tracer
