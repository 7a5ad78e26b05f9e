"""Runs one ``simplex-clf`` invocation in a fresh interpreter and records
how long it took to get ready and to run.

Usage: ``python3 child.py SPEC_JSON`` where the spec carries ``src`` (the
directory holding the ``simplexclf`` package), ``argv``, ``trace`` and
``result`` (where to write the measurement record).  The process exits
with the CLI's own exit code; the parent reads the record only when the
code is 0.
"""

import importlib
import json
import os
import resource
import sys
import time


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import simplexclf.cli as cli

    # the monotonic clock is system-wide on Linux, so the parent can
    # subtract its own spawn timestamp from this one
    import_done = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"simplexclf imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from tracer import BINDINGS, ROOT, Tracer

        modules = {}
        for name in {b.module for b in BINDINGS}:
            try:
                modules[name] = importlib.import_module(f"simplexclf.{name}")
            except ImportError:
                pass
        tracer = Tracer()
        tracer.install(modules)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    root = tracer.open(ROOT) if tracer else None
    try:
        code = cli.main(list(spec["argv"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    if root is not None:
        tracer.close(root)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    from tracer import peak_rss_mb

    record = {
        "import_done": import_done,
        "wall_s": wall,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "maxrss_mb": peak_rss_mb(),
        "exit": code,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
