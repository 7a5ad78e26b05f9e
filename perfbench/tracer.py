"""Pass-through wrappers that time the program's cross-module calls.

The wrappers go on a name *as bound in the calling module*: ``from .x
import y`` copies the binding, so ``simplexclf.evaluation._vote`` is
wrapped rather than ``simplexclf.classifiers._vote``.  They are installed
inside the child process before ``cli.main`` runs and never change an
argument's value or a result.

Each ordinary call becomes a span (name, start, end, parent).  Hot leaf
calls (votes, scores, assembles, group fits) are instead folded into
their parent span as a call count plus busy time, so memory stays
bounded however many there are.  A span's self time is its duration
minus the time of its child spans and folded leaves; the self times of
all spans add up to the root span's duration.
"""

import resource
import time
from dataclasses import dataclass, field

ROOT = "cli.main"


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) > 1 else 1


def peak_rss_mb():
    """Peak resident set of this process's memory image, in MB.

    ``ru_maxrss`` is no use here: it survives ``execve``, so a child
    spawned from a larger parent reports the parent's peak.  ``VmHWM`` of
    the image after ``execve`` is the child's own.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    ident: int
    parent: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    leaves: dict = field(default_factory=dict)  # name -> [calls, busy_s]


@dataclass(frozen=True)
class Binding:
    """Where to wrap (``module.attr``), the span name it records under,
    whether it is a hot leaf, and how to count its work."""

    module: str
    attr: str
    name: str
    hot: bool = False
    count: object = None  # fn(tracer, args, kwargs, result) -> None
    adapt: object = None  # fn(tracer, args, kwargs) -> (args, kwargs)
    skip_under: str = None  # pass straight through inside this span


def _count_points(tr, args, kwargs, result):
    tr.add("classifiers.score.points", _rows(args[1]))


def _count_cells(tr, args, kwargs, result):
    tr.add("metrics.pairwise_distances.cells", _rows(args[0]) * _rows(args[1]))


def _count_rows(metric, arg):
    def count(tr, args, kwargs, result):
        tr.add(metric, _rows(args[arg]))
    return count


def _count_dataset_rows(metric):
    def count(tr, args, kwargs, result):
        tr.add(metric, args[0].n)
    return count


def _count_load(tr, args, kwargs, result):
    tr.add("dataio.load_dataset.rows", result.n)
    with open(args[0], "rb") as fh:
        tr.add("dataio.load_dataset.bytes", fh.seek(0, 2))


def _count_table(tr, args, kwargs, result):
    with open(result, "rb") as fh:
        tr.add("cli.write_table.bytes", fh.seek(0, 2))


def _count_report(tr, args, kwargs, result):
    tr.add("cli.write_report.bytes", len(args[1].encode()))


def _count_ties(tr, args, kwargs):
    labels, factory = args

    def counted():
        tr.add("classifiers.vote.tie_draws", 1)
        return factory()
    return (labels, counted), kwargs


BINDINGS = (
    Binding("evaluation", "_assemble_rda", "classifiers.assemble", hot=True),
    Binding("evaluation", "_scores_z", "classifiers.score", hot=True,
            count=_count_points),
    Binding("evaluation", "fit_gaussian_groups",
            "classifiers.fit_gaussian_groups", hot=True),
    Binding("evaluation", "_vote", "classifiers.vote", hot=True,
            adapt=_count_ties),
    Binding("evaluation", "_build_report", "evaluation.aggregate"),
    Binding("evaluation", "stratified_split", "evaluation.split"),
    Binding("cli", "grid_search", "evaluation.grid_search"),
    Binding("evaluation", "pairwise_distances", "metrics.pairwise_distances",
            count=_count_cells),
    Binding("cli", "pairwise_distances", "metrics.pairwise_distances",
            count=_count_cells),
    Binding("classifiers", "pairwise_distances", "metrics.pairwise_distances",
            count=_count_cells),
    Binding("evaluation", "alpha_transform", "core.alpha_transform",
            count=_count_rows("core.alpha_transform.rows", 0)),
    Binding("classifiers", "alpha_transform", "core.alpha_transform",
            count=_count_rows("core.alpha_transform.rows", 0)),
    Binding("cli", "fit_rda", "classifiers.fit_rda",
            count=_count_dataset_rows("classifiers.fit_rda.rows")),
    Binding("cli", "rda_predict", "classifiers.rda_predict",
            count=_count_rows("classifiers.rda_predict.rows", 1)),
    Binding("cli", "fit_knn", "classifiers.fit_knn",
            count=_count_dataset_rows("classifiers.fit_knn.rows")),
    Binding("cli", "knn_predict_batch", "classifiers.knn_predict_batch",
            count=_count_rows("classifiers.knn_predict_batch.rows", 1)),
    Binding("cli", "load_dataset", "dataio.load_dataset", count=_count_load),
    Binding("cli", "_write_table", "cli.write_table", count=_count_table),
    Binding("cli", "_dumps", "cli.write_report",
            skip_under="cli.write_table"),
    Binding("cli", "_write_text", "cli.write_report", count=_count_report,
            skip_under="cli.write_table"),
    Binding("cli", "_load_model", "cli.load_model"),
)


class Tracer:
    """Spans and counters of one child process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.absent = []
        self.in_leaf = False
        self.clock = time.perf_counter

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self, modules, bindings=BINDINGS):
        """Wrap every binding present in ``modules`` (a name -> module
        map); a missing module attribute is recorded as absent."""
        for b in bindings:
            module = modules.get(b.module)
            fn = getattr(module, b.attr, None)
            if fn is None:
                self.absent.append(f"{b.module}.{b.attr}")
                continue
            setattr(module, b.attr, self._wrap(fn, b))

    def _wrap(self, fn, b):
        def wrapper(*args, **kwargs):
            if self.in_leaf or (b.skip_under and self.stack
                                and self.stack[-1].name == b.skip_under):
                return fn(*args, **kwargs)
            if b.adapt is not None:
                args, kwargs = b.adapt(self, args, kwargs)
            if b.hot:
                return self._leaf(fn, b, args, kwargs)
            return self._span(fn, b, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, b, args, kwargs):
        parent = self.stack[-1]
        self.in_leaf = True
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "IllConditionedError":
                self.add(b.name + ".ill_conditioned", 1)
            raise
        finally:
            busy = self.clock() - t0
            self.in_leaf = False
            slot = parent.leaves.setdefault(b.name, [0, 0.0])
            slot[0] += 1
            slot[1] += busy
            parent.child_s += busy
        if b.count is not None:
            b.count(self, args, kwargs, result)
        return result

    def _span(self, fn, b, args, kwargs):
        track_rss = b.name == "metrics.pairwise_distances"
        rss0 = peak_rss_mb() if track_rss else 0.0
        span = self.open(b.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if track_rss:
            growth = peak_rss_mb() - rss0
            key = "metrics.pairwise_distances.rss_growth_mb"
            self.counters[key] = max(self.counters.get(key, 0.0), growth)
        if b.count is not None:
            b.count(self, args, kwargs, result)
        return result

    def open(self, name):
        parent = self.stack[-1].ident if self.stack else -1
        span = Span(name, len(self.spans), parent, self.clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start

    def summary(self):
        """Per-name calls, busy and self time; counters; span records."""
        names = {}

        def slot(name):
            return names.setdefault(name, {"calls": 0, "s": 0.0,
                                           "self_s": 0.0})

        for span in self.spans:
            s = slot(span.name)
            dur = span.end - span.start
            s["calls"] += 1
            s["s"] += dur
            s["self_s"] += dur - span.child_s
            for leaf, (calls, busy) in span.leaves.items():
                ls = slot(leaf)
                ls["calls"] += calls
                ls["s"] += busy
                ls["self_s"] += busy
        return {
            "names": names,
            "counters": self.counters,
            "absent": self.absent,
            "spans": [[s.name, s.ident, s.parent, s.start, s.end]
                      for s in self.spans],
        }
