"""nhtopo benchmark: four seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (tracing off); with ``--trace 1`` they are the per-layer
ones of a traced run.  A readable summary goes to stderr, and the full
record (environment, samples, output hashes, oracle misses) and the spans
go to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter, process_time

import harness

harness.pin_blas_threads()

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
MIN_SETUP_PROBES = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import nhtopo.cli"


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_runtime():
    """(config, threads) read from the loaded OpenBLAS, or (None, None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return config().decode(), threads()
    return None, None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime_config": config,
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in harness.BLAS_ENV},
    }


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure_setup(root: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    nhtopo.cli (numpy and scipy included).  The child reports on a pipe; a
    blocking read avoids the polling of ``wait(timeout=...)``, which would
    round the figure up to its sleep interval."""
    cmd = [sys.executable, "-c", IMPORT_PROBE + "; print('imported', flush=True)"]
    start = perf_counter()
    child = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = perf_counter() - start
    child.stdout.close()
    if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "imported":
        raise RuntimeError(f"import probe failed: {' '.join(cmd)}")
    return elapsed


def measure_peak_rss_mb(root: str, commands_path: str) -> float:
    """Peak RSS of a fresh process running one pass, in MiB."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "one_pass.py"), commands_path],
        cwd=root, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["maxrss_kb"] / 1024.0


def timed_pass(cli_main, argvs):
    """(wall seconds, CPU seconds of this process, results) of one pass."""
    gc.collect()
    start, cpu = perf_counter(), process_time()
    results = harness.run_pass(cli_main, argvs)
    return perf_counter() - start, process_time() - cpu, results


def timed_reference(ref) -> tuple:
    """(wall seconds, CPU seconds) of one call of a reference kernel."""
    gc.collect()
    start, cpu = perf_counter(), process_time()
    ref()
    return perf_counter() - start, process_time() - cpu


def _another_pass(walls, deadline) -> bool:
    """At least MIN_PASSES, then only passes expected to end by the deadline.

    ``walls`` holds the wall time of each earlier step: a pass and
    whatever runs with it."""
    if len(walls) < MIN_PASSES:
        return True
    return perf_counter() + statistics.median(walls) <= deadline


def output_hashes(results) -> list:
    return [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in results]


class Checker:
    """Checks every pass; a pass whose output bytes equal an already
    checked pass reuses that verdict instead of re-running the oracles."""

    def __init__(self, workload):
        self.workload = workload
        self.total = oracles.Verdict()
        self.by_hash: dict = {}
        self.cache: dict = {}
        self.commands_checked = True
        self.errors: list = []

    def add(self, results) -> None:
        key = tuple(zip([code for code, _, _ in results], output_hashes(results)))
        if key not in self.by_hash:
            verdict = oracles.Verdict()
            for (argv, spec), (code, out, err) in zip(self.workload.commands, results):
                one = oracles.check_command(argv, spec, code, out, self.cache)
                self.commands_checked &= code != 0 or one.checked > 0
                if code != 0:
                    self.errors.append(f"{' '.join(argv)}: exit {code}: {err[-500:]}")
                verdict.add(one)
            self.by_hash[key] = verdict
        self.total.add(self.by_hash[key])

    @property
    def correct(self) -> bool:
        """No failed operation, and every command's oracles ran."""
        return self.total.failed == 0 and self.commands_checked

    def fractions(self) -> tuple:
        t = self.total
        fail = t.failed / t.attempted
        miss = len(t.misses) / t.checked if t.checked else 1.0  # no check ran: every output failed
        return fail, miss


def _summary(samples) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def warm_up(cli, args, outdir) -> None:
    """Run the reduced-size commands once, untimed: the same code paths as
    the workload, so lazy imports and first-call costs are paid, at a
    fraction of the cost of a full pass."""
    small = workloads.build(args.workload, args.seed, os.path.join(outdir, "warm-up"), small=True)
    harness.run_pass(cli.main, small.argvs)


def plain_run(cli, workload, args, root, outdir) -> tuple:
    measure_setup(root)  # writes bytecode and warms the file cache; not counted
    peak_rss = measure_peak_rss_mb(root, os.path.join(outdir, "commands.json"))
    checker = Checker(workload)
    warm_up(cli, args, outdir)
    ref = reference.kernel(args.workload)
    ref()
    steps, setup, walls, cpus, ref_walls, ref_cpus = [], [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while _another_pass(steps, deadline):
        step_start = perf_counter()
        # One import probe per pass spreads them over the run, so that
        # their median is not that of a single busy moment of the host.
        setup.append(measure_setup(root))
        ref_wall, ref_cpu = timed_reference(ref)
        wall, cpu, results = timed_pass(cli.main, workload.argvs)
        walls.append(wall)
        cpus.append(cpu)
        ref_walls.append(ref_wall)
        ref_cpus.append(ref_cpu)
        checker.add(results)
        steps.append(perf_counter() - step_start)
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(measure_setup(root))
    fail, miss = checker.fractions()
    ref_speed = reference.NOMINAL_S[args.workload] / statistics.median(ref_cpus)
    metrics = {
        "pass_per_ref": (statistics.median(cpus) / statistics.median(ref_cpus), "ratio"),
        "setup_s": (statistics.median(setup) * ref_speed, "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "ok_frac": (1.0 - fail, "ratio"),
        "oracle_ok_frac": (1.0 - miss, "ratio"),
    }
    record = {"wall_s": _summary(walls), "cpu_s": _summary(cpus),
              "ref_wall_s": _summary(ref_walls), "ref_cpu_s": _summary(ref_cpus),
              "setup_raw_s": _summary(setup),
              "fail_frac": fail, "oracle_miss_frac": miss, "output_sha256": output_hashes(results)}
    return checker, metrics, record


def traced_run(cli, workload, args, root, outdir) -> tuple:
    checker = Checker(workload)
    warm_up(cli, args, outdir)
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    deadline = perf_counter() + args.seconds
    while _another_pass([p + t for p, t in zip(plain, traced)], deadline):
        wall, _, results = timed_pass(cli.main, workload.argvs)
        plain.append(wall)
        checker.add(results)
        first, before = len(tracer.spans), tracer.counters.copy()
        tracer.install()
        try:
            wall, _, results = timed_pass(cli.main, workload.argvs)
        finally:
            tracer.uninstall()
        traced.append(wall)
        checker.add(results)
        layer = tracing.layer_metrics(tracer.spans[first:], tracer.counters - before)
        layer["cli.bytes_out"] = float(sum(len(out.encode()) for _, out, _ in results))
        per_pass.append(layer)
    tracer.write(os.path.join(outdir, f"spans-trace{args.trace}.jsonl"))
    fail, miss = checker.fractions()
    units = {**tracing.SPAN_METRICS, "cli.bytes_out": "bytes"}
    metrics = {name: (statistics.median(p[name] for p in per_pass), unit) for name, unit in units.items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["fail_frac"] = (fail, "ratio")
    metrics["oracle_miss_frac"] = (miss, "ratio")
    record = {"wall_s_untraced": _summary(plain), "wall_s_traced": _summary(traced),
              "fail_frac": fail, "oracle_miss_frac": miss, "output_sha256": output_hashes(results)}
    return checker, metrics, record


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes, for the self-check only; figures are not comparable")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    cli = harness.load_cli(root)
    outdir = os.path.join(root, OUT_DIR, f"{args.workload}-s{args.seed}{'-small' if args.small else ''}")
    workload = workloads.build(args.workload, args.seed, outdir, small=args.small)
    run = traced_run if args.trace else plain_run
    checker, metrics, record = run(cli, workload, args, root, outdir)

    total = checker.total
    errors = sorted(set(checker.errors + total.malformed))
    record.update({
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "small": args.small,
        "environment": environment(), "commands": workload.argvs,
        "attempted": total.attempted, "failed": total.failed, "checked": total.checked,
        "oracles": sorted(total.oracles), "misses": sorted(set(total.misses)),
        "command_errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    with open(os.path.join(outdir, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    err = sys.stderr
    err.write(f"{args.workload} seed={args.seed} trace={args.trace}: "
              f"{total.attempted} operations, {total.failed} failed; "
              f"{total.checked} checks, {len(total.misses)} misses\n")
    for key in ("wall_s", "cpu_s", "ref_cpu_s", "setup_raw_s", "wall_s_untraced", "wall_s_traced"):
        if key in record:
            s = record[key]
            err.write(f"  {key:18s} median {s['median']:.4f} s  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}\n")
    for key in ("fail_frac", "oracle_miss_frac"):
        err.write(f"  {key:18s} {record[key]:.6g} ratio\n")
    for name, (value, unit) in metrics.items():
        err.write(f"  {name:32s} {value:.6g} {unit}\n")
    for miss in record["misses"]:
        err.write(f"  miss: {miss}\n")
    for error in errors:
        err.write(f"  error: {error}\n")

    print(json.dumps({
        "correct": checker.correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
