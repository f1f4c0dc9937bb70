"""Loading the program from the checkout and running one pass of commands.

Shared by ``run.py`` (timed passes, in-process) and ``one_pass.py`` (the
fresh process whose peak RSS is reported).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import traceback

# Dense eigensolves give different output bytes at different BLAS thread
# counts, so the benchmark pins one count for itself and every child.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set the BLAS thread variables; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def load_cli(root: str):
    """Import ``nhtopo.cli`` from ``<root>/src`` and nowhere else.

    Raises SystemExit(2) when the checkout has no program source, so a
    directory holding only the benchmark never prints a result.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nhtopo", "cli.py")):
        sys.stderr.write(f"error: no program source under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, src)
    import nhtopo.cli

    where = os.path.realpath(nhtopo.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"error: nhtopo imported from {where}, not from {src}\n")
        raise SystemExit(2)
    return nhtopo.cli


def run_pass(cli_main, commands):
    """Run every argv in ``commands`` through ``cli_main`` in this process.

    Returns one (exit_code, stdout, stderr) triple per command.  Output is
    captured in memory; nothing is parsed here, so the caller can time
    exactly the program's work plus its formatting.  An exception that
    escapes the CLI is a failed command (exit code None, traceback as
    stderr), not the end of the benchmark.
    """
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(list(argv))
            except Exception:
                code = None
                err.write(traceback.format_exc())
        results.append((code, out.getvalue(), err.getvalue()))
    return results
