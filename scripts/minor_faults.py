"""Minor page faults, wall time and CPU time of one command-line call.

Usage (from the repository root)::

    python3 scripts/minor_faults.py distance --data FILE --metric esov \\
        --out-dir OUT

The arguments are passed to one ``simplexclf.cli.main`` call in this
process, with ``src/`` of this checkout first on the import path.  The
counts come from ``getrusage`` just before and just after that call, so
they leave out starting the interpreter and importing the package.  A
minor fault is a page the process touches for the first time since it
was mapped: a large array freed and made again costs one per 4 KB page
every time, so the count shows allocation work and, unlike a time,
repeats exactly from run to run of the same input.  To measure another
checkout, copy this file into its ``scripts/``.
"""

import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simplexclf.cli import main as cli_main  # noqa: E402


def measure(argv):
    """``(exit status, minor faults, wall s, cpu s)`` of ``main(argv)``."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    wall, cpu = time.perf_counter(), time.process_time()
    status = cli_main(list(argv))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    after = resource.getrusage(resource.RUSAGE_SELF)
    return status, after.ru_minflt - before.ru_minflt, wall, cpu


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.devnull, "w") as quiet:  # the command's own report line
        stdout, sys.stdout = sys.stdout, quiet
        try:
            status, faults, wall, cpu = measure(argv)
        finally:
            sys.stdout = stdout
    print(f"minor_faults {faults}\nwall_s {wall:.4f}\ncpu_s {cpu:.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
