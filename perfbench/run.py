#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload study|plant|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the repository's libraries) into .bench_build/,
or into $CARGO_TARGET_DIR when that is set; later calls only rebuild what
changed. Build output goes to stderr. The benchmark's own output goes to
stdout and ends with one JSON result line, whose metric names are checked
against BENCHMARK.json before it is passed on.

Exit codes: the benchmark's own (0 ok, 1 a check failed, 2 bad arguments,
3 the run threw), 4 when the build fails, 5 when the result line does not
match BENCHMARK.json, 6 when the run outlives its time limit.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_root():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def build(build_dir):
    """Configures once, then builds the benchmark; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "icn_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return build_dir / "icn_perfbench"


def source_rev():
    """git revision when there is one, plus a digest of the sources built."""
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=env)
        rev = git.stdout.strip() if git.returncode == 0 else "nogit"
    except (OSError, subprocess.SubprocessError):
        rev = "nogit"
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def arg_value(argv, name):
    """Value following `name` in argv, or None."""
    try:
        return argv[argv.index(name) + 1]
    except (ValueError, IndexError):
        return None


def time_limit(argv):
    """Seconds the run may take: its measured phase plus set-up headroom."""
    try:
        seconds = float(arg_value(argv, "--seconds"))
    except (TypeError, ValueError):
        seconds = 0.0
    return 2.0 * seconds + 60.0


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Problem with the result line, or None when it matches BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main(argv):
    build_dir = build_root() / "perfbench"
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 4
    workdir = build_root() / "work"
    command = [str(binary), *argv, "--workdir", str(workdir),
               "--rev", source_rev()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=time_limit(argv))
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded its time limit", file=sys.stderr)
        return 6
    lines = run.stdout.splitlines()
    if run.returncode in (0, 1) and lines:
        problem = check_result(lines[-1], arg_value(argv, "--trace") == "1")
        if problem is not None:
            sys.stderr.write(run.stdout)
            print(f"run.py: {problem}", file=sys.stderr)
            return 5
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
