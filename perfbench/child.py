"""One benchmark sample: a fresh interpreter that runs one workload once.

Started by ``run.py`` with a JSON spec as its only argument.  It writes two
lines to the signal pipe named in the spec, and ``run.py`` stamps each line
on arrival with its own clock:

* ``ready <import seconds>`` once the interpreter is up, ``loopcft`` is
  imported and the run configuration is parsed (for the CLI workloads, when
  ``loopcft.cli._config`` returns);
* ``done`` once the certified result is on stdout.

With ``setup_only`` the process exits right after ``ready``.  With
``trace_out`` the layer tracer is installed before ``ready`` and its spans
and counters are written to that path after ``done``.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time


def _run_cli(argv: list[str], ready) -> int:
    from loopcft import cli

    parse = cli._config

    def parse_then_ready(ctx, **overrides):
        cfg = parse(ctx, **overrides)
        ready()
        return cfg

    cli._config = parse_then_ready
    try:
        cli.main(args=argv, prog_name="loopcft")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def _monomial_states(max_weight: int):
    """Every monomial a_k abar_k' of weighted total degree <= max_weight."""
    from loopcft.operators import fresh_state
    from loopcft.symbolic import CoeffPoly, a, abar, partitions_of

    states = []
    for total in range(max_weight + 1):
        for left in range(total + 1):
            for pl in partitions_of(left):
                for pr in partitions_of(total - left):
                    mono = CoeffPoly.one()
                    for part in pl.parts:
                        mono = mono * CoeffPoly.generator(a(part))
                    for part in pr.parts:
                        mono = mono * CoeffPoly.generator(abar(part))
                    states.append(fresh_state(mono))
    return states


def _run_states(spec: dict, ready) -> int:
    """Acceptance criterion 01 cut to |n| <= max_mode, in a seeded order.

    Prints the evaluation counts and the canonical text of every operator
    coefficient the table used; ``run.py`` checks both.
    """
    from fractions import Fraction

    from loopcft.operators import OperatorTable
    from loopcft.symbolic import CC, CoeffPoly

    k = spec["max_mode"]
    central = CoeffPoly.generator(CC)
    states = _monomial_states(spec["max_weight"])
    pairs = [(n, m, False) for n in range(-k, k + 1) for m in range(n, k + 1)]
    pairs += [(n, m, True) for n in range(-k, k + 1) for m in range(-k, k + 1)]
    order = random.Random(spec["order_seed"])
    order.shuffle(states)
    order.shuffle(pairs)
    ready()

    table = OperatorTable(max_index=spec["window"])
    evaluations = failed = 0
    for n, m, mixed in pairs:
        ln = table.L(n)
        lm = table.Lbar(m) if mixed else table.L(m)
        for s in states:
            evaluations += 1
            try:
                defect = ln.apply(lm.apply(s)) - lm.apply(ln.apply(s))
                if not mixed:
                    expect = table.L(n + m).apply(s).scale(n - m)
                    if n + m == 0:
                        expect = expect + s.scale(central * Fraction(n**3 - n, 12))
                    defect = defect - expect
            except ValueError:
                failed += 1
                continue
            failed += not defect.is_zero

    coefficients = []
    for bar, modes in ((False, range(-2 * k, 2 * k + 1)), (True, range(-k, k + 1))):
        for n in modes:
            op = table.mode_operator(n, bar=bar)
            name = f"{'Lbar' if bar else 'L'}({n})"
            coefficients.append([f"{name} e", op.e_coeff.canonical_text()])
            coefficients.append([f"{name} id", op.id_coeff.canonical_text()])
            for field in ("d_a", "d_abar"):
                for m, poly in sorted(getattr(op, field).items()):
                    coefficients.append([f"{name} {field}[{m}]", poly.canonical_text()])
    json.dump(
        {"evaluations": evaluations, "failed": failed, "coefficients": coefficients},
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    signal = os.fdopen(spec["signal_fd"], "w", buffering=1)
    start = time.perf_counter()
    if spec["kind"] == "cli":
        import loopcft.cli  # noqa: F401
    else:
        import loopcft.operators  # noqa: F401
    import_s = time.perf_counter() - start
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(sys.modules["loopcft"].__file__).startswith(src + os.sep):
        raise SystemExit(f"loopcft was imported from outside {src}")

    tracer = None
    if spec["trace_out"]:
        import tracer as tracing

        tracer = tracing.install()

    signalled = []

    def ready() -> None:
        if signalled:
            return
        signalled.append(True)
        signal.write(f"ready {import_s!r}\n")
        if spec["setup_only"]:
            os._exit(0)

    if spec["kind"] == "cli":
        code = _run_cli(spec["argv"], ready)
    else:
        code = _run_states(spec, ready)
    sys.stdout.flush()
    signal.write("done\n")
    if tracer is not None:
        tracer.dump(spec["trace_out"])
    signal.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
