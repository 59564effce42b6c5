#!/usr/bin/env python3
"""Validates BENCH_*.json perf-trajectory files against the icn-bench-v1 schema.

Usage: tools/check_bench_schema.py BENCH_a.json [BENCH_b.json ...]

Exits nonzero (with one line per violation) if any file is malformed, so the
CI perf-smoke job fails when the emitter and the schema drift apart.
"""
import json
import sys

REQUIRED_TOP = {
    "schema": str,
    "bench": str,
    "git_rev": str,
    "preset": str,
    "simd": str,
    "crc32c_backend": str,
    "hw_threads": int,
    "runs": list,
}
REQUIRED_RUN = {
    "name": str,
    "op": str,
    "iterations": int,
    "wall_ns": (int, float),
    "threads": (int, float),
}
SIMD_LEVELS = {"scalar", "avx2"}
CRC_BACKENDS = {"table", "sse4.2"}
PRESETS = {"full", "smoke"}
# Optional top-level keys (emitted conditionally, e.g. the single-core
# caveat note on 1-hardware-thread hosts).
OPTIONAL_TOP = {"notes": str}


def check(path: str) -> list[str]:
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]
    for key, typ in REQUIRED_TOP.items():
        if key not in doc:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(doc[key], typ):
            errors.append(f"{path}: {key!r} must be {typ}, got {type(doc[key])}")
    for key, typ in OPTIONAL_TOP.items():
        if key in doc and not isinstance(doc[key], typ):
            errors.append(f"{path}: {key!r} must be {typ}, got {type(doc[key])}")
    if errors:
        return errors
    if doc["schema"] != "icn-bench-v1":
        errors.append(f"{path}: schema {doc['schema']!r} != 'icn-bench-v1'")
    if doc["preset"] not in PRESETS:
        errors.append(f"{path}: preset {doc['preset']!r} not in {PRESETS}")
    if doc["simd"] not in SIMD_LEVELS:
        errors.append(f"{path}: simd {doc['simd']!r} not in {SIMD_LEVELS}")
    if doc["crc32c_backend"] not in CRC_BACKENDS:
        errors.append(
            f"{path}: crc32c_backend {doc['crc32c_backend']!r} "
            f"not in {CRC_BACKENDS}")
    if not doc["runs"]:
        errors.append(f"{path}: no runs recorded")
    for i, run in enumerate(doc["runs"]):
        where = f"{path}: runs[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{where}: not an object")
            continue
        for key, typ in REQUIRED_RUN.items():
            if key not in run:
                errors.append(f"{where}: missing {key!r}")
            elif not isinstance(run[key], typ) or isinstance(run[key], bool):
                errors.append(f"{where}: {key!r} has wrong type")
        if "wall_ns" in run and isinstance(run["wall_ns"], (int, float)):
            if not run["wall_ns"] > 0:
                errors.append(f"{where}: wall_ns must be positive")
        if "iterations" in run and isinstance(run["iterations"], int):
            if run["iterations"] <= 0:
                errors.append(f"{where}: iterations must be positive")
    return errors


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in sys.argv[1:]:
        all_errors.extend(check(path))
    for err in all_errors:
        print(err, file=sys.stderr)
    if not all_errors:
        print(f"ok: {len(sys.argv) - 1} file(s) conform to icn-bench-v1")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
