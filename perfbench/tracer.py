"""Outside-in span tracer for the relfair CLI.

Run as ``python3 perfbench/tracer.py <relfair arguments>`` with relfair on
``PYTHONPATH`` and ``PERFBENCH_TRACE_DIR`` naming an empty directory.  It
imports relfair, replaces every function in TARGETS with a wrapper that
records a span (name, start, end, parent span, rows), runs
``relfair.cli.main`` and writes the spans to that directory.  The library is
not edited; the spans sit at the boundaries of its public functions.

A wrapper is installed at every relfair module that binds the function:
``from relfair.data import encode`` copies the name into ``relfair.training``,
so patching ``relfair.data.encode`` alone would miss the calls that matter.
Pool workers inherit the wrappers by fork but leave through ``os._exit``
without running ``atexit``, so each worker writes its spans after every job.

What the outside view cannot see: stages inside one function (the theta
phase, lambda refresh and bookkeeping of ``train_fairrf``), helpers that are
not in TARGETS (their time is their caller's self time), and time outside
``cli.main`` such as interpreter start-up and imports.
"""

import collections
import dataclasses
import functools
import glob
import os
import pickle
import sys
import time

# module -> public functions (Class.method for methods) that get a span
TARGETS = {
    "data": (
        "builtin_config", "load_dataset_config", "load_from_config",
        "load_csv", "split", "encode", "drop_features", "resolve_related",
    ),
    "training": (
        "run_single", "train_variant", "pretrain", "train_fairrf",
        "Adam.step", "TrainTrace.write", "TrainResult.test_metrics",
    ),
    "models": (
        "init_params", "forward", "loss_and_grad", "save_checkpoint",
        "load_checkpoint",
    ),
    "objective": ("related_penalty", "penalty_grad_yhat", "total_objective"),
    "weights": ("solve_lambda",),
    "metrics": (
        "accuracy", "delta_eo", "delta_dp", "aggregate",
        "format_comparison_table",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)


def _rows_of(position):
    return lambda args, result: len(args[position])


def _input_rows(args, result):
    return args[0].n


# span name -> rows the call processed, read from its arguments or result
ROWS = {
    "data.load_csv": lambda args, result: result.n,
    "data.split": _input_rows,
    "data.drop_features": _input_rows,
    "data.encode": lambda args, result: sum(e.n for e in result),
    "models.forward": _rows_of(2),
    "models.loss_and_grad": _rows_of(2),
    "objective.related_penalty": _rows_of(3),
    "objective.penalty_grad_yhat": _rows_of(3),
}


def _encode_key(train):
    """Identifies a training split and schema at the cost of five lookups."""
    rows = train.rows
    names = tuple(f.name for f in train.schema)
    return names, len(rows), rows[0], rows[len(rows) // 2], rows[-1]


class Tracer:
    """Per-process span store; forked children start with an empty one."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.origin_pid = os.getpid()
        self.dataset = None  # what cli loaded, for the payload size
        self.flushes = 0
        self._clear()
        os.register_at_fork(after_in_child=self._clear)

    def _clear(self):
        self.spans = []  # (name, start, end, parent index or -1, rows)
        self.stack = []
        self.encode_keys = []
        self.grad_rows = 0  # rows of the last loss_and_grad, until a step

    def install(self):
        """Wrap every target at every relfair module that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "relfair" or n.startswith("relfair.")]
        for layer, names in TARGETS.items():
            module = sys.modules[f"relfair.{layer}"]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        cli = sys.modules["relfair.cli"]
        cli._seed_job = self._flush_after(cli._seed_job)

    def _wrap(self, name, fn):
        rows_of = ROWS.get(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent, 0)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            rows = rows_of(args, result) if rows_of else 0
            spans[index] = (name, start, end, parent,
                            self._account(name, args, result, rows))
            return result

        return wrapper

    def _account(self, name, args, result, rows):
        """Per-call counts that need state across calls; returns span rows."""
        if name == "models.loss_and_grad":
            self.grad_rows = rows
        elif name == "training.Adam.step":
            rows, self.grad_rows = self.grad_rows, 0
        elif name == "data.encode":
            self.encode_keys.append(_encode_key(args[0]))
        elif name == "data.load_from_config":
            self.dataset = result
        return rows

    def _flush_after(self, seed_job):
        @functools.wraps(seed_job)
        def wrapper(payload):
            try:
                return seed_job(payload)
            finally:
                if os.getpid() != self.origin_pid:
                    self.write(f"{self.flushes}")
                    self.flushes += 1
                    self._clear()

        return wrapper

    def write(self, tag, **extra):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}-{tag}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(
                {"spans": self.spans, "encode_keys": self.encode_keys, **extra},
                fh, protocol=pickle.HIGHEST_PROTOCOL,
            )


@dataclasses.dataclass
class CommandTrace:
    """Span totals of one traced command, over all of its processes."""

    self_s: dict
    span_s: dict
    calls: dict
    rows: dict
    encode_keys: list
    payload_bytes: int

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    @property
    def traced_s(self):
        return sum(self.self_s.values())


def read_trace(trace_dir):
    """Sum the span files one traced command left in trace_dir."""
    self_s = collections.defaultdict(float)
    span_s = collections.defaultdict(float)
    calls = collections.Counter()
    rows = collections.Counter()
    encode_keys = []
    payload_bytes = 0
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.pkl"))):
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, n), child in zip(spans, covered):
            self_s[name] += end - start - child
            span_s[name] += end - start
            calls[name] += 1
            rows[name] += n
        encode_keys += doc["encode_keys"]
        payload_bytes = max(payload_bytes, doc.get("payload_bytes", 0))
    return CommandTrace(dict(self_s), dict(span_s), dict(calls), dict(rows),
                        encode_keys, payload_bytes)


def main(argv):
    import relfair.cli
    from multiprocessing.reduction import ForkingPickler

    tracer = Tracer(os.environ["PERFBENCH_TRACE_DIR"])
    tracer.install()
    code = relfair.cli.main(argv)
    # outside every span: the bytes a pool ships per job for the dataset
    payload = 0
    workers = relfair.cli.build_parser().parse_args(argv).workers
    if workers > 1 and tracer.dataset is not None:
        payload = len(ForkingPickler.dumps(tracer.dataset))
    tracer.write("main", payload_bytes=payload)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
