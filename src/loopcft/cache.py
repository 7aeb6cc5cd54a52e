"""Persistent store for built operator tables.

File format: a small binary envelope around a JSON payload —

    magic ``LCFC`` | version byte | crc32(payload) | payload length | payload

The polynomials travel as canonical text, so a cache round-trip is exact.
Stale-version files are ignored (callers rebuild); corrupt files produce a
warning through the module logger and are likewise rebuilt, never trusted.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import zlib
from pathlib import Path

from .operators import ModeOperator, OperatorTable
from .symbolic import CoeffPoly

__all__ = [
    "CacheConsistencyError",
    "default_cache_dir",
    "table_path",
    "save_operator_table",
    "load_operator_table",
    "warm",
    "clear",
    "stat",
]

_MAGIC = b"LCFC"
_VERSION = 1
_HEADER = struct.Struct(">4sBIQ")

log = logging.getLogger("loopcft.cache")


class CacheConsistencyError(RuntimeError):
    """A re-warmed table disagrees with previously cached coefficients."""


def default_cache_dir() -> Path:
    """LOOPCFT_CACHE_DIR if set, otherwise a per-user cache location."""
    override = os.environ.get("LOOPCFT_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "loopcft"


def table_path(cache_dir: Path | str, max_index: int) -> Path:
    return Path(cache_dir) / f"operators_m{max_index}.lcfc"


def _encode_operator(op: ModeOperator) -> dict:
    return {
        "mode": op.mode,
        "bar": op.bar,
        "max_index": op.max_index,
        "provenance": op.provenance,
        "e_coeff": op.e_coeff.canonical_text(),
        "id_coeff": op.id_coeff.canonical_text(),
        "d_a": {str(m): c.canonical_text() for m, c in sorted(op.d_a.items())},
        "d_abar": {str(m): c.canonical_text() for m, c in sorted(op.d_abar.items())},
    }


def _decode_operator(blob: dict) -> ModeOperator:
    return ModeOperator(
        mode=blob["mode"],
        bar=blob["bar"],
        max_index=blob["max_index"],
        e_coeff=CoeffPoly.from_canonical_text(blob["e_coeff"]),
        id_coeff=CoeffPoly.from_canonical_text(blob["id_coeff"]),
        d_a={int(m): CoeffPoly.from_canonical_text(c) for m, c in blob["d_a"].items()},
        d_abar={
            int(m): CoeffPoly.from_canonical_text(c) for m, c in blob["d_abar"].items()
        },
        provenance=blob["provenance"] + "|cached",
    )


def save_operator_table(table: OperatorTable, cache_dir: Path | str) -> Path:
    """Write every operator currently held by the table; returns the path."""
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload_obj = {
        "max_index": table.max_index,
        "route": table.route,
        "operators": [
            _encode_operator(op)
            for _, op in sorted(table._cache.items(), key=lambda kv: kv[0])
        ],
    }
    payload = json.dumps(payload_obj, sort_keys=True).encode("utf-8")
    path = table_path(directory, table.max_index)
    # write a sibling temp file and rename it over the target, so a failed
    # write never leaves a half-written table where a good one was
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, _VERSION, zlib.crc32(payload), len(payload)))
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _read_payload(path: Path) -> dict | None:
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if len(raw) < _HEADER.size:
        log.warning("cache file %s truncated; ignoring and rebuilding", path)
        return None
    magic, version, crc, length = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        log.warning("cache file %s has wrong magic; ignoring and rebuilding", path)
        return None
    if version != _VERSION:
        log.info("cache file %s written by version %d; ignoring", path, version)
        return None
    payload = raw[_HEADER.size : _HEADER.size + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        log.warning("cache file %s failed its checksum; ignoring and rebuilding", path)
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        log.warning("cache file %s holds unreadable data; ignoring and rebuilding", path)
        return None


def load_operator_table(cache_dir: Path | str, max_index: int) -> OperatorTable | None:
    """Rebuild a table from disk, or None when absent, stale, or corrupt."""
    blob = _read_payload(table_path(cache_dir, max_index))
    if blob is None or blob.get("max_index") != max_index:
        return None
    table = OperatorTable(max_index=max_index, route=blob.get("route", "welding"))
    for op_blob in blob["operators"]:
        table.insert(_decode_operator(op_blob))
    return table


def warm(
    cache_dir: Path | str,
    max_mode: int = 4,
    max_index: int = 8,
    route: str = "welding",
) -> tuple[OperatorTable, dict]:
    """Build (or extend) and persist the operator table; cross-check old data.

    When a cached table at a different window exists, every operator shared
    with the fresh build must agree on the common index range; a mismatch is
    a hard error rather than a silent overwrite.
    """
    directory = Path(cache_dir)
    info: dict = {"checked_against": [], "modes": []}
    table = load_operator_table(directory, max_index)
    if table is None:
        table = OperatorTable(max_index=max_index, route=route)
    for n in range(-max_mode, max_mode + 1):
        table.L(n)
        table.Lbar(n)
        info["modes"].append(n)
    if directory.is_dir():
        for other in sorted(directory.glob("operators_m*.lcfc")):
            if other == table_path(directory, max_index):
                continue
            blob = _read_payload(other)
            if blob is None:
                continue
            for op_blob in blob["operators"]:
                key = (op_blob["mode"], op_blob["bar"])
                if key not in table._cache:
                    continue
                old = _decode_operator(op_blob)
                if not table._cache[key].agrees_with(old):
                    raise CacheConsistencyError(
                        f"cached mode {key} in {other.name} disagrees with rebuild"
                    )
            info["checked_against"].append(other.name)
    path = save_operator_table(table, directory)
    info["path"] = str(path)
    return table, info


def clear(cache_dir: Path | str) -> int:
    """Delete all cache files; returns how many were removed."""
    directory = Path(cache_dir)
    removed = 0
    if directory.is_dir():
        for path in directory.glob("operators_m*.lcfc"):
            path.unlink()
            removed += 1
    return removed


def stat(cache_dir: Path | str) -> list[dict]:
    """One summary entry per readable cache file."""
    directory = Path(cache_dir)
    entries = []
    if directory.is_dir():
        for path in sorted(directory.glob("operators_m*.lcfc")):
            blob = _read_payload(path)
            if blob is None:
                entries.append({"file": path.name, "status": "unreadable"})
                continue
            modes = sorted({op["mode"] for op in blob["operators"]})
            entries.append(
                {
                    "file": path.name,
                    "status": "ok",
                    "max_index": blob["max_index"],
                    "route": blob.get("route", "welding"),
                    "modes": modes,
                    "operators": len(blob["operators"]),
                    "bytes": path.stat().st_size,
                }
            )
    return entries
