"""Records the projection digests that ``checks.py`` compares against.

Run once at a commit whose outputs are trusted, from the repository
root::

    python3 perfbench/record_golden.py

It runs one untraced pass of every workload at the default seed and
rewrites ``golden.json``.  A later run at the default seed flags any
invocation whose projected outputs differ.
"""

import json
import shutil
import sys

import run
from checks import Checker
from workloads import WORKLOADS


def main():
    sys.path.insert(0, str(run.SRC))
    golden = {}
    for name, workload in sorted(WORKLOADS.items()):
        where = run.WORK / name
        inputs = where / "inputs"
        if where.exists():
            shutil.rmtree(where)
        inputs.mkdir(parents=True)
        files, _ = workload.make_inputs(run.DEFAULT_SEED, inputs)
        checker = Checker(files, run.DEFAULT_SEED)
        p = run.run_pass(workload, files, run.DEFAULT_SEED, checker, "plain",
                         where / "out")
        if p.problems:
            sys.exit(f"{name}: {p.problems}")
        golden[name] = {k: v for k, v in checker.digests.items()
                        if v is not None}
        shutil.rmtree(where)
        print(name, golden[name])
    (run.HERE / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
