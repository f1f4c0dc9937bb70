"""Reduced-size smoke run of the benchmark.

    python3 bench/selfcheck.py

Run from the repository root.  For every workload, at reduced sizes and
one second per run, it checks that the untraced run prints exactly the
end-to-end metrics of BENCHMARK.json and the traced run exactly its
per-layer metrics, with their units, and that every oracle of the workload
ran.  It then copies BENCHMARK.json and bench/ into an empty directory and
checks that the benchmark fails there without printing a result.  Exits 1
on any problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

EXPECTED_ORACLES = {
    "phase-grid": {"phase-region-map"},
    "chain-spectra": {"bands-obc-eigvalsh", "bands-obc-zero-modes", "bands-pbc-bloch-union"},
    "steady-state": {
        "effective-pm-symmetry", "effective-double-reference", "effective-mpmath-80-digit",
        "density-particle-number", "density-edge-topological", "density-edge-trivial",
    },
    "dense-system": {
        "classify-class-A", "metric-reduced-modes", "metric-direct-path",
        "metric-generator-T", "metric-residuals", "theorem3-envelope",
    },
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec, workload) -> list:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_benchmark(os.getcwd(), workload, trace)
        where = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != RESULT_KEYS or result["attempted"] < 1:
            problems.append(f"{where}: bad result keys or counts {sorted(result)}")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{where}: metrics differ from BENCHMARK.json {section}: "
                            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                            f"units {[(k, got[k], want[k]) for k in set(got) & set(want) if got[k] != want[k]]}")
        if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
            problems.append(f"{where}: non-finite metric value")
        with open(os.path.join(".bench_out", f"{workload}-s1-small", f"record-trace{trace}.json"),
                  encoding="utf-8") as fh:
            record = json.load(fh)
        missing = EXPECTED_ORACLES[workload] - set(record["oracles"])
        if missing:
            problems.append(f"{where}: oracles did not run: {sorted(missing)}")
        print(f"{where}: {len(got)} metrics, correct={result['correct']}, "
              f"{record['checked']} checks, {len(record['misses'])} distinct misses")
    return problems


def check_bare_directory() -> list:
    """Only BENCHMARK.json and bench/: the run must fail and print no result."""
    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("bench", os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "phase-grid", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print(f"bare directory: exit {proc.returncode} without a result")
    return []


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_workload(spec, workload)
    problems += check_bare_directory()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
