"""Verification suites and the JSON report they emit.

Every suite takes a :class:`RunConfig` and returns a :class:`Report` — a flat
list of named pass/fail checks with witnesses, plus an echo of the parameters
that produced them.  Reports are deterministic for a fixed (config, seed)
pair with one deliberate exception: the per-check ``timing`` field records
wall-clock seconds and is excluded from any determinism guarantee.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from . import spectral
from .operators import (
    ModeOperator,
    OperatorTable,
    coefficient_state,
    commutator_defect,
    geometric_pairing,
    psi_state,
    state_family_residuals,
    varpi,
    vartheta,
)
from .symbolic import CC, LAMBDA, CoeffPoly, invert, partition_count, partitions_of
from .verma import (
    central_charge,
    gram_entry,
    gram_matrix,
    gram_matrix_at,
    gram_rank_at,
    kac_determinant_at,
    kac_lambda,
    kac_table,
    singular_vectors,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckRecord",
    "Report",
    "RunConfig",
    "parse_rational",
    "suite_commutators",
    "suite_gram",
    "suite_kac",
    "suite_singular",
    "suite_operators",
    "suite_reflection",
    "suite_bubble",
    "suite_loewner",
    "report_all",
]

SCHEMA_VERSION = "1"

_LAM = CoeffPoly.generator(LAMBDA)
_C = CoeffPoly.generator(CC)
_ZERO = CoeffPoly.zero()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Exact rational from a ``p/q`` string (or an int / Fraction as-is)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError(
            f"refusing float {text!r} where an exact rational is required; "
            "write it as p/q"
        )
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# The bounds of the float checks: pinned here, not knobs.  params() echoes
# them, and cache_dir (always null), because perfbench/digests.json pins
# every report's params.
_TOLERANCES = {"tol_reflection": 1e-12, "tol_pole": 1e-9, "tol_bubble": 1e-4, "tol_loewner": 1e-6}


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of the knobs that callers vary, shared by every suite.

    Rational parameters arrive as exact ``p/q`` strings; ``weight`` is the
    conformal weight (the ``lambda`` key in config files, since ``lambda``
    is not a valid attribute name).  Counts are ints (not bools) and must
    be non-negative.  ``loewner_dt`` is a finite positive number that tiles
    the Loewner suite's unit horizon: 1/dt is an integer to within 1e-9, so
    every driver grid ends at exactly t = 1.  That integer is at most
    ``_MAX_LOEWNER_STEPS``, since the sampled trace costs (1/dt)^2.
    ``output`` is where the CLI writes the report, ``"-"`` for stdout.
    A value of the wrong type is a ``ValueError``, as is one out of range.
    """

    max_mode: int = 3
    max_degree: int = 4
    level: int = 3
    kappa: Fraction = Fraction(3)
    weight: Fraction | None = None
    seed: int = 0
    loewner_dt: float = 1e-3
    loewner_seeds: int = 2000
    output: str = "-"

    # JSON config files use ``lambda`` for the weight knob.
    _KEY_ALIASES = {"lambda": "weight"}
    _INT_KEYS = ("max_mode", "max_degree", "level", "seed", "loewner_seeds")
    # the types accepted by each knob that is neither a count nor loewner_dt;
    # from_sources parses a knob that accepts a Fraction from its p/q string
    _OTHER_TYPES = {"kappa": (Fraction,), "weight": (Fraction, type(None)), "output": (str,)}
    # loewner-demo --trace-csv on a 2-vCPU x86-64 VM: 6.4 s at 1/dt = 2e4 (7.9 s
    # on one CPU), 9.8 s at 3e4, 15.5 s at 4e4
    _MAX_LOEWNER_STEPS = 20_000

    def __post_init__(self):
        for name in self._INT_KEYS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        for name, kinds in self._OTHER_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise ValueError(f"{name} has the wrong type: {value!r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.loewner_seeds < 2:
            raise ValueError("loewner_seeds must be at least 2")
        dt = self.loewner_dt
        if not isinstance(dt, (int, float)) or isinstance(dt, bool):
            raise ValueError(f"loewner_dt must be a number, got {dt!r}")
        if not math.isfinite(dt) or dt <= 0:
            raise ValueError("loewner_dt must be finite and positive")
        steps = 1 / dt
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
            raise ValueError(
                f"loewner_dt must divide the horizon 1 into whole steps, but 1/dt = {steps!r}"
            )
        if round(steps) > self._MAX_LOEWNER_STEPS:
            raise ValueError(
                f"loewner_dt must be at least 1/{self._MAX_LOEWNER_STEPS} "
                f"(at most {self._MAX_LOEWNER_STEPS} steps), but 1/dt = {steps!r}"
            )

    @classmethod
    def from_sources(
        cls, config_path: str | Path | None = None, overrides: dict | None = None
    ) -> "RunConfig":
        """Defaults, then config-file values, then explicit overrides.

        The file is a flat JSON object; unknown keys are an error so typos
        fail loudly instead of silently running with defaults, and so is a
        file that names one knob twice (a repeated key, or ``lambda`` and
        ``weight``) instead of silently running at the last value.
        """
        merged: dict = {}
        if config_path is not None:
            try:
                # an object as its (key, value) pairs, so a repeated key is seen
                raw = json.loads(Path(config_path).read_text(), object_pairs_hook=tuple)
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(raw, tuple):
                raise ValueError("config file must hold a flat JSON object")
            for key, value in raw:
                name = cls._KEY_ALIASES.get(key, key)
                if name in merged:
                    raise ValueError(f"config file names knob {name!r} twice")
                merged[name] = value
        merged.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        known = {f.name for f in fields(cls)}
        for name, value in merged.items():
            if name not in known:
                raise ValueError(f"unknown config key: {name!r}")
            if value is not None and Fraction in cls._OTHER_TYPES.get(name, ()):
                merged[name] = parse_rational(value)
        return cls(**merged)

    def params(self) -> dict:
        """JSON-safe echo of every knob, rationals as p/q strings, plus the
        pinned tolerances and a null ``cache_dir``."""
        aliases = {name: key for key, name in self._KEY_ALIASES.items()}
        out = {**_TOLERANCES, "cache_dir": None}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Fraction):
                value = _frac_str(value)
            out[aliases.get(f.name, f.name)] = value
        return out


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    status: str  # "pass" or "fail"
    witness: str
    timing: float


@dataclass
class Report:
    suite: str
    params: dict
    checks: list[CheckRecord] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return asdict(self) | {"overall": self.overall}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def run(self, name: str, fn: Callable[[], tuple[bool, str]]) -> bool:
        """Execute one check, timing it; any exception it raises becomes a failure."""
        start = time.perf_counter()
        try:
            ok, witness = fn()
        except Exception as exc:
            # logging costs start-up time, so it is imported only when a check raises
            import logging

            logging.getLogger("loopcft.reports").debug(
                "check %r of suite %s raised", name, self.suite, exc_info=True
            )
            ok, witness = False, f"{type(exc).__name__}: {exc}"
        self.checks.append(
            CheckRecord(
                name=name,
                status="pass" if ok else "fail",
                witness=witness,
                timing=round(time.perf_counter() - start, 6),
            )
        )
        return ok


def _describe_defect(defect: ModeOperator) -> str:
    bad = sorted(defect.d_a) + [f"bar{m}" for m in sorted(defect.d_abar)]
    if not defect.id_coeff.is_zero:
        bad.append("id")
    if not defect.e_coeff.is_zero:
        bad.append("euler")
    return f"nonzero defect components at {bad}"


def _off_kac_weight(cfg: RunConfig) -> Fraction:
    """The requested weight, or the default generic weight 5/7."""
    return cfg.weight if cfg.weight is not None else Fraction(5, 7)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


# The largest value of each knob a suite accepts.  Runs at the caps took at
# most about 10 s, and runs one step past them 9 to 49 s (subprocess wall
# time on a 2-vCPU x86-64 VM, Python 3.11; the README lists the grid).
# Operators' level cap keeps its window, max(max_mode + max_degree, level,
# 8), within the measured 28.  report-all checks every cap here, and its own
# level cap keeps the corner where the verify-commutators caps are reached
# at level 9: at level 10 kac alone takes about 7 s.
_CAPS = {
    "verify-commutators": {"max_mode": 8, "max_mode + max_degree": 19},
    "gram": {"level": 12},
    "kac": {"level": 10},
    "operators": {"max_mode": 16, "max_mode + max_degree": 28, "level": 28},
    "report-all": {"level": 9},
}


def _check_caps(cfg: RunConfig, suite: str) -> None:
    """Raise ``ValueError`` if a knob passes the suite's cap in ``_CAPS``."""
    knobs = {
        "level": cfg.level,
        "max_mode": cfg.max_mode,
        "max_mode + max_degree": cfg.max_mode + cfg.max_degree,
    }
    for knob, cap in _CAPS[suite].items():
        if knobs[knob] > cap:
            raise ValueError(f"{suite} suite needs {knob} <= {cap}, got {knobs[knob]}")


def _suite_table(window: int, shared: OperatorTable | None) -> OperatorTable:
    """A fresh table at the suite's window, or ``shared`` narrowed to it."""
    if shared is None:
        return OperatorTable(max_index=window)
    return shared.restricted(window)


def _commutators_window(cfg: RunConfig) -> int:
    return max(cfg.max_degree + cfg.max_mode, 2 * cfg.max_mode + 1, 2)


def suite_commutators(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Bracket relations as operator identities on a shared index window.

    An operator-level identity on window ``w`` certifies the action on every
    state of index at most ``w``, so the window is sized to cover all
    monomials up to ``max_degree``.  A ``table`` passed in is narrowed to
    that window, as in every suite that takes one.
    """
    _check_caps(cfg, "verify-commutators")
    report = Report("verify-commutators", cfg.params())
    k = cfg.max_mode
    table = _suite_table(_commutators_window(cfg), table)

    def bracket(n: int, m: int, mixed: bool) -> tuple[bool, str]:
        u = table.L(n)
        t = table.Lbar(m) if mixed else table.L(m)
        defect = commutator_defect(u, t, table)
        if defect.is_zero:
            kind = "zero" if mixed else "algebra value"
            return True, f"[{n},{m}] equals {kind} on window {defect.max_index}"
        return False, _describe_defect(defect)

    for n in range(-k, k + 1):
        for m in range(n + 1, k + 1):
            report.run(f"bracket L({n}) L({m})", partial(bracket, n, m, False))
    for n in range(-k, k + 1):
        for m in range(-k, k + 1):
            report.run(f"bracket L({n}) Lbar({m})", partial(bracket, n, m, True))

    def mirror_family() -> tuple[bool, str]:
        defect = commutator_defect(table.Lbar(1), table.Lbar(-1), table)
        return defect.is_zero, "barred family closes identically (mirror construction)"

    report.run("bracket Lbar(1) Lbar(-1)", mirror_family)
    return report


def _gram_window(cfg: RunConfig) -> int:
    # pairings up to level N read only a_1 .. a_N
    return max(cfg.level, 1)


def suite_gram(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Geometric pairings against the abstract Shapovalov form."""
    _check_caps(cfg, "gram")
    report = Report("gram", cfg.params())
    top = cfg.level
    table = _suite_table(_gram_window(cfg), table)

    def level_match(n: int) -> tuple[bool, str]:
        parts_list = partitions_of(n)
        states = [psi_state(kp.parts, (), table) for kp in parts_list]
        for k in parts_list:
            for kp, state in zip(parts_list, states):
                got = geometric_pairing(k.parts, state, table)
                want = gram_entry(k.parts, kp.parts)
                if got != want:
                    return False, f"mismatch at <{k.parts}|{kp.parts}>"
        size = len(parts_list)
        return True, f"all {size}x{size} entries agree exactly"

    for n in range(top + 1):
        report.run(f"geometric matches abstract, level {n}", partial(level_match, n))

    def inverse_check() -> tuple[bool, str]:
        level, weight = min(top, 2), _off_kac_weight(cfg)
        matrix = gram_matrix_at(level, weight, central_charge(cfg.kappa))
        try:
            inverse = invert(matrix)
        except ValueError:  # the weight sits on a Kac zero
            status = "singular"
        else:
            size = range(len(matrix))
            product = [[sum(row[k] * inverse[k][j] for k in size) for j in size] for row in matrix]
            identity = [[int(i == j) for j in size] for i in size]
            status = "identity" if product == identity else "mismatch"
        return status == "identity", f"B * B^-1 at level {level}, lambda={weight}: {status}"

    report.run("exact inverse sanity", inverse_check)
    return report


def suite_kac(cfg: RunConfig) -> Report:
    """Determinant of the Gram form and its degenerate-weight roots."""
    _check_caps(cfg, "kac")
    report = Report("kac", cfg.params())
    level = cfg.level
    charge = central_charge(cfg.kappa)

    def golden_level_two() -> tuple[bool, str]:
        matrix = gram_matrix(2)
        expect = [
            [4 * _LAM * (2 * _LAM + 1), 6 * _LAM],
            [6 * _LAM, 4 * _LAM + _C * Fraction(1, 2)],
        ]
        for i in range(2):
            for j in range(2):
                if matrix[i][j] != expect[i][j]:
                    return False, f"entry ({i},{j}) differs"
        det2 = kac_determinant_at(2, charge)
        product = (
            32
            * _LAM
            * (_LAM - CoeffPoly.constant(kac_lambda(1, 2, cfg.kappa)))
            * (_LAM - CoeffPoly.constant(kac_lambda(2, 1, cfg.kappa)))
        )
        if det2 != product:
            return False, "determinant does not factor through the two weights"
        return True, "matrix and factored determinant agree exactly"

    if level >= 2:
        report.run("level-2 matrix and factorization", golden_level_two)

    def roots() -> tuple[bool, str]:
        det = kac_determinant_at(level, charge)
        candidates = sorted({kac_lambda(r, s, cfg.kappa) for r, s in kac_table(level)})
        for w in candidates:
            residue = det.substitute({LAMBDA: w})
            if not residue.is_zero:
                return False, f"lambda={w} is not a root"
        shown = ", ".join(str(w) for w in candidates)
        return True, f"det = {det.canonical_text()}; roots: {shown}"

    report.run(f"degenerate roots at level {level}", roots)

    def ranks() -> tuple[bool, str]:
        off_kac = _off_kac_weight(cfg)
        observed = []
        for n in range(min(level, 4) + 1):
            rank = gram_rank_at(n, off_kac, charge)
            if rank != partition_count(n):
                return False, f"rank {rank} != p({n}) at generic weight"
            observed.append(rank)
        return True, f"full ranks {observed} at lambda={_frac_str(off_kac)}"

    report.run("generic weights keep full rank", ranks)
    return report


def _singular_window(cfg: RunConfig) -> int:
    # the suite applies only L(-1) and L(-2) to the vacuum
    return 2


def suite_singular(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Null combinations along the degenerate-weight families."""
    report = Report("singular", cfg.params())
    table = _suite_table(_singular_window(cfg), table)
    charge = central_charge(cfg.kappa)

    def level_two_family(r: int, s: int) -> tuple[bool, str]:
        quad = psi_state((1, 1), (), table)
        combo = quad - psi_state((2,), (), table).scale(Fraction(2, 3) * (2 * _LAM + 1))
        residuals = state_family_residuals(combo.poly, r, s)
        if residuals:
            return False, f"{len(residuals)} residual monomials survive"
        return True, "vanishes identically along the family"

    for r, s in [(1, 2), (2, 1)]:
        report.run(f"level-2 null state on family ({r},{s})", partial(level_two_family, r, s))

    def kernel(r: int, s: int) -> tuple[bool, str]:
        n = r * s
        weight = kac_lambda(r, s, cfg.kappa)
        basis = singular_vectors(n, weight, charge)
        if not basis:
            return False, "no kernel vector at the degenerate weight"
        # rank-nullity: the kernel basis already fixes the rank
        size = partition_count(n)
        return True, (
            f"kernel dim {len(basis)}, rank {size - len(basis)} of {size} "
            f"at lambda={_frac_str(weight)}"
        )

    for r, s in [(1, 2), (2, 1), (1, 3)]:
        if r * s <= max(cfg.level, 2):
            report.run(f"rank drop at level {r * s} family ({r},{s})", partial(kernel, r, s))
    return report


def _operators_window(cfg: RunConfig) -> int:
    # the duality check raises to partitions of size up to max(level, 2)
    return max(cfg.max_degree + cfg.max_mode, cfg.level, 8)


def suite_operators(cfg: RunConfig, table: OperatorTable | None = None) -> Report:
    """Shape constraints and scalar anchors of the mode operators."""
    _check_caps(cfg, "operators")
    report = Report("operators", cfg.params())
    k = cfg.max_mode
    table = _suite_table(_operators_window(cfg), table)

    def shape(n: int) -> tuple[bool, str]:
        op = table.L(n)
        for m in range(1, table.max_index + 1):
            p = op.d_a.get(m, _ZERO)
            if n >= 1:
                if m < n and not p.is_zero:
                    return False, f"d_a[{m}] should vanish"
                if m == n and p != CoeffPoly.constant(-1):
                    return False, f"d_a[{n}] should be -1"
            if not p.is_zero and p.weighted_monomial_degrees() != {(m - n, 0)}:
                return False, f"d_a[{m}] has the wrong weighted degree"
            q = op.d_abar.get(m, _ZERO)
            if n >= 1 and not q.is_zero:
                return False, f"d_abar[{m}] should vanish for positive modes"
            for left, right in q.weighted_monomial_degrees():
                if left - right != -(n + m) or left + right > m - n:
                    return False, f"d_abar[{m}] breaks the degree constraint"
        return True, f"all coefficients up to index {table.max_index} well-shaped"

    for n in range(-k, k + 1):
        report.run(f"degree structure of mode {n}", partial(shape, n))

    def scalars(n: int) -> tuple[bool, str]:
        op = table.L(n)
        if op.e_coeff != -varpi(n):
            return False, "Euler coefficient disagrees with the residue route"
        if op.id_coeff != -(_C * vartheta(n)) * Fraction(1, 12):
            return False, "identity coefficient disagrees with the residue route"
        return True, "scalar parts match the independent residue computation"

    for n in range(-k, k + 1):
        report.run(f"scalar anchors of mode {n}", partial(scalars, n))

    def duality() -> tuple[bool, str]:
        cap = max(cfg.level, 2)
        for n in range(1, cap + 1):
            for part in partitions_of(n):
                got = geometric_pairing(part, coefficient_state(part), table)
                expect = Fraction(1)
                for value in set(part.parts):
                    mult = part.parts.count(value)
                    expect *= Fraction(-1) ** mult * math.factorial(mult)
                if got != CoeffPoly.constant(expect):
                    return False, f"pairing off at partition {part.parts}"
        return True, f"signed factorials reproduced for all |k| <= {cap}"

    report.run("coefficient duality", duality)
    return report


def _kappa_in_range(cfg: RunConfig, suite: str) -> float:
    """The config's kappa as a float, checked exactly against the range
    (0, 4] that the reflection and Loewner suites accept; ``suite`` names
    the one asking."""
    if not 0 < cfg.kappa <= 4:
        raise ValueError(f"{suite} suite needs kappa in (0, 4]")
    return float(cfg.kappa)


def suite_reflection(cfg: RunConfig) -> Report:
    """Reflection coefficient normalization, poles, and spot values."""
    report = Report("reflection", cfg.params())
    kappa = _kappa_in_range(cfg, "reflection")

    def unit_at_zero() -> tuple[bool, str]:
        value = spectral.reflection_R(0.0, kappa)
        ok = abs(value - 1.0) <= _TOLERANCES["tol_reflection"]
        return ok, f"R(0) = {value!r}"

    report.run("normalization R(0) = 1", unit_at_zero)

    def first_pole() -> tuple[bool, str]:
        found = spectral.reflection_smallest_pole(kappa)
        expect = 0.5 * (1 - kappa / 8)
        ok = abs(found - expect) <= _TOLERANCES["tol_pole"]
        return ok, f"pole located at {found!r}, closed form {expect!r}"

    report.run("smallest real pole", first_pole)

    if cfg.weight is not None:
        def spot() -> tuple[bool, str]:
            value = spectral.reflection_R(float(cfg.weight), kappa)
            return True, f"R({_frac_str(cfg.weight)}) = {value!r}"

        report.run("requested evaluation", spot)
    return report


def suite_bubble(cfg: RunConfig, csv_path: str | Path | None = None) -> Report:
    """Annulus function, kernel-difference limits, and the off-center mass;
    the convergence scan goes to ``csv_path`` before the first check."""
    report = Report("bubble-limit", cfg.params())
    if csv_path is not None:
        angles = [0.7 + g for g in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)]
        spectral.write_bubble_limit_scan(csv_path, spectral.mobius_annulus(0.3, 0.25), 0.7, angles)

    def centered_limit() -> tuple[bool, str]:
        q, gap = 0.3, 1e-3
        diff = spectral.bubble_mass_limit(spectral.mobius_annulus(0.0, q), 0.0, gap)
        want = spectral.U_of_q(q)
        rel = abs(diff - want) / want
        ok = rel <= _TOLERANCES["tol_bubble"]
        return ok, f"kernel difference {diff!r} vs U(q) {want!r}, rel {rel:.3e}"

    report.run("centered annulus kernel limit", centered_limit)

    def off_center() -> tuple[bool, str]:
        amap = spectral.mobius_annulus(0.3, 0.25)
        theta, gap = 0.7, 1e-3
        closed = spectral.bubble_mass(amap, theta)
        straddle = spectral.bubble_mass_limit(
            amap, theta - gap / 2, theta + gap / 2
        )
        rel = abs(straddle - closed) / abs(closed)
        ok = rel <= _TOLERANCES["tol_bubble"]
        return ok, f"straddle {straddle!r} vs closed form {closed!r}, rel {rel:.3e}"

    report.run("off-center bubble mass", off_center)

    def small_q() -> tuple[bool, str]:
        q = 1e-30
        u = spectral.U_of_q(q)
        product = u * abs(math.log(q))
        ok = u < 0.01 and 0.45 < product < 0.55
        return ok, f"U(q) = {u!r}, U(q)|log q| = {product!r}"

    report.run("small-q decay of the annulus function", small_q)
    return report


def suite_loewner(cfg: RunConfig, csv_path: str | Path | None = None) -> Report:
    """Forward map, trace tip, and driver variance for the random driver; one
    trace sampled from ``seed`` goes to ``csv_path`` before the first check."""
    from . import loewner

    report = Report("loewner-demo", cfg.params())
    kappa = _kappa_in_range(cfg, "loewner")
    dt = cfg.loewner_dt
    if csv_path is not None:
        driver = loewner.sample_sle_driving(kappa, 1.0, dt, seed=cfg.seed)
        loewner.write_trace_csv(csv_path, loewner.trace(driver))

    def closed_form_map() -> tuple[bool, str]:
        w = loewner.DrivingFunction.zero(total_time=1.0, dt=dt)
        got = loewner.forward_map(w, 3j, 1.0)
        want = (3j**2 + 4) ** 0.5
        want = want if want.imag >= 0 else -want
        err = abs(got - want)
        ok = err <= _TOLERANCES["tol_loewner"]
        return ok, f"|g_1(3i) - sqrt(9i^2+4)| = {err:.3e}"

    report.run("zero driver forward map", closed_form_map)

    def tip() -> tuple[bool, str]:
        w = loewner.DrivingFunction.zero(total_time=1.0, dt=dt)
        got = loewner.trace_tip(w)
        err = abs(got - 2j)
        ok = err <= 1e-3
        return ok, f"|tip - 2i| = {err:.3e} at dt = {dt!r}"

    report.run("vertical trace tip", tip)

    def variance() -> tuple[bool, str]:
        n = cfg.loewner_seeds
        total = 0.0
        total_sq = 0.0
        seeds = range(cfg.seed, cfg.seed + n)
        for w_final in loewner.sle_driving_endpoints(kappa, 1.0, dt, seeds):
            total += w_final
            total_sq += w_final * w_final
        mean = total / n
        var = (total_sq - n * mean * mean) / (n - 1)
        se = kappa * (2.0 / (n - 1)) ** 0.5
        ok = abs(var - kappa) <= 3 * se
        return ok, f"sample variance {var:.4f} vs kappa {kappa}, 3 SE = {3 * se:.4f}"

    report.run("driver variance across seeds", variance)
    return report


def report_all(cfg: RunConfig) -> Report:
    """Every suite in sequence, merged into one flat report.

    The suites that use operators share one table at the widest of their
    windows, and each narrows it to its own, so every mode is built once.
    Kappa and every suite's caps are checked before any suite runs, so a
    refused config costs no exact work.
    """
    _kappa_in_range(cfg, "reflection")
    for suite in _CAPS:
        _check_caps(cfg, suite)
    merged = Report("all", cfg.params())
    # each suite with its operator window, None for the suites that take no table
    suites = (
        (suite_commutators, _commutators_window),
        (suite_gram, _gram_window),
        (suite_kac, None),
        (suite_singular, _singular_window),
        (suite_operators, _operators_window),
        (suite_reflection, None),
        (suite_bubble, None),
        (suite_loewner, None),
    )
    table = OperatorTable(max_index=max(window(cfg) for _, window in suites if window))
    for suite, window in suites:
        part = suite(cfg, table) if window else suite(cfg)
        for check in part.checks:
            merged.checks.append(replace(check, name=f"{part.suite}: {check.name}"))
    return merged
