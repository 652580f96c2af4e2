#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

Run from the repository root. The program and the repository's libraries
are built in Release into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the program's JSON
result. Exits non-zero without a result when the sources are missing, the
build or the program fails, or its metrics are not the ones
BENCHMARK.json declares for the mode. A traced run reports 0 for the
per-layer metrics of layers its workload does not exercise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_grid", "facility_large")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no repository sources under {root}/src",
              file=sys.stderr)
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"

    # A build tree configured from another checkout cannot be reused.
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={bench_dir}\n"
                           not in cache.read_text()):
        shutil.rmtree(build_dir)
    configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not cache.exists():
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 3

    program = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.run(program, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    result = json.loads(lines[-1])
    problem = check_metrics(root, args, lines[:-1], result["metrics"])
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


def check_metrics(root: Path, args, lines: list, metrics: dict) -> str:
    """Compare the program's metrics with those BENCHMARK.json declares.

    A traced run reports the layers its workload exercises; the declared
    per-layer metrics of the other layers are added to `metrics` as 0.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    # "not measured: <name> (<why>)" lines excuse a metric on this host.
    excused = {line.split()[2] for line in lines
               if line.startswith("not measured: ")}
    missing = sorted(set(declared) - set(metrics) - excused)
    if args.trace:
        for name in missing:
            print(f"layer not exercised by {args.workload}: {name}")
            metrics[name] = {"value": 0, "unit": declared[name]}
        missing = []
    extra = sorted(set(metrics) - set(declared))
    units = sorted(n for n in set(declared) & set(metrics)
                   if declared[n] != metrics[n]["unit"])
    if missing or extra or units:
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, unit mismatch {units}")
    return ""


if __name__ == "__main__":
    sys.exit(main())
