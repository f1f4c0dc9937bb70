"""Run one pass of a workload's commands in a fresh process; print peak RSS.

    python3 bench/one_pass.py .bench_out/<workload>-s<seed>/commands.json

Run from the repository root.  The last stdout line is ``{"maxrss_kb": N}``.
"""

import json
import os
import resource
import sys

import harness

harness.pin_blas_threads()


def main() -> int:
    cli = harness.load_cli(os.getcwd())
    with open(sys.argv[1], encoding="utf-8") as fh:
        argvs = json.load(fh)
    harness.run_pass(cli.main, argvs)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
