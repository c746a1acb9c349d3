"""relfair benchmark: short CLI commands in fresh processes, timed from outside.

    python3 perfbench/run.py --workload compare_adult --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
--seed under .perfbench_work/.  For --seconds the harness runs one command at
a time (a closed loop of one client), reaping each with wait4 so that wall
time, CPU time and peak RSS of the whole process tree come from the kernel
without a polling thread.

--trace 0 interleaves set-up samples with untraced commands and reports the
end-to-end metrics.  --trace 1 alternates untraced and traced commands
(perfbench/tracer.py) and reports the per-layer metrics, including the
tracing overhead.  Both modes also run a fixed reference program between the
commands and report times in reference seconds (see REFERENCE_CODE).  Every
sample is printed; the last line of standard output is one JSON object with
the result.  See perfbench/README.md.
"""

import argparse
import dataclasses
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("compare_adult", "train_mlp_synth", "sweep_adult_w2")
COMMAND_TIMEOUT_S = 60
MIN_SETUPS = 5
MIN_COMMANDS = 3
MIN_TRACED = 2
MIN_REFERENCES = 4

# span -> the per-layer figures reported for it
SPAN_METRICS = {
    "data.load_csv": ("self_s", "rows"),
    "data.split": ("calls", "self_s"),
    "data.encode": ("calls", "rows", "self_s"),
    "data.drop_features": ("self_s",),
    "training.run_single": ("calls",),
    "training.pretrain": ("self_s",),
    "training.train_fairrf": ("self_s",),
    "training.Adam.step": ("calls", "self_s"),
    "models.forward": ("calls", "rows", "self_s"),
    "models.loss_and_grad": ("calls", "rows", "self_s"),
    "objective.penalty_grad_yhat": ("calls", "self_s"),
    "objective.related_penalty": ("rows", "self_s"),
    "weights.solve_lambda": ("calls", "self_s"),
    "metrics.accuracy": ("self_s",),
    "metrics.delta_eo": ("self_s",),
    "metrics.delta_dp": ("self_s",),
    "models.save_checkpoint": ("self_s",),
    "training.TrainTrace.write": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"self_s": "s", "calls": "calls", "rows": "rows"}

# BLAS is pinned to one thread in every process the benchmark starts.  At
# OpenBLAS's default of one thread per core, a train_mlp_synth command took
# 3.0-4.2 s on an idle 2-core machine and 18 s while the other core was
# busy, its threads spinning for a core they could not get; on one thread it
# took 3.3-3.8 s and 3.6 s.  On a shared machine neighbours take cores away
# at random, so the default made every timing hostage to them.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fixed program outside relfair, run in its own processes before and after
# every command and in the same environment: Python strings split and
# encoded through a dict, then small dense layers in numpy.  On the shared
# 2-core machine the benchmark was sized on, this probe took 0.28 s at a
# quiet moment and 0.45-0.5 s for many minutes at a time, and the commands
# slowed down with it, sample by sample.  So each command or set-up time is
# scaled by REFERENCE_S / (the mean time of the probe just before and just
# after it): seconds on a machine where the probe takes REFERENCE_S.  Over
# ten runs, the spread of the median wall time fell from 12 % to 7 % on
# compare_adult and from 9 % to 3 % on train_mlp_synth.  Raw medians are
# printed too.
REFERENCE_CODE = r"""
import numpy as np
rows = [f"{i % 90},{'abcdefgh'[i % 8]}x,{i % 16},{i * 7 % 1000}" for i in range(60000)]
vocab = {}
codes = [[vocab.setdefault(cell, len(vocab)) for cell in row.split(",")] for row in rows]
rng = np.random.default_rng(0)
x, w = rng.normal(size=(128, 64)), rng.normal(size=(64, 64)) / 8
for _ in range(3000):
    x = np.tanh(x @ w)
"""
REFERENCE_S = 0.3

ENV_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


@dataclasses.dataclass
class Sample:
    kind: str  # "reference", "setup", "command" or "traced"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_process(argv, env, log_path):
    """Run to exit; time it and read the tree's rusage from wait4.

    The child leads its own process group so a hung command can be killed
    with its pool workers.  wait4 reports the child plus every descendant
    it reaped, which covers ProcessPoolExecutor workers.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)

    def on_timeout(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_timeout)
    signal.alarm(COMMAND_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: take the command's tree down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def median(label, values):
    """Print the median, quartiles and count of values; return the median."""
    if not values:
        return 0.0
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    print(f"{label}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(values)}")
    return med


class Bench:
    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.env = dict(os.environ, **dict.fromkeys(BLAS_ENV, "1"))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        self.samples = []
        self.traces = []  # (tracer.CommandTrace, index in samples) per traced command
        self.outcome = None  # workloads.Outcome of the first good command
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.count = 0

    def _paths(self, kind):
        self.count += 1
        base = os.path.join(self.work_dir, f"{kind}-{self.count}")
        return base, base + ".log"

    def setup(self):
        self._snippet("setup", self.workload.setup_code)

    def reference(self):
        self._snippet("reference", REFERENCE_CODE)

    def _snippet(self, kind, code):
        _, log = self._paths(kind)
        wall, cpu, rss, exit_code = run_process(
            [sys.executable, "-c", code], self.env, log)
        self._record(Sample(kind, wall, cpu, rss, exit_code), log)

    def command(self, traced):
        out_dir, log = self._paths("traced" if traced else "command")
        args = [*self.workload.relfair_args, "--output-dir", out_dir]
        env = self.env
        if traced:
            trace_dir = out_dir + "-spans"
            os.makedirs(trace_dir)
            env = dict(env, PERFBENCH_TRACE_DIR=trace_dir)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), *args]
        else:
            argv = [sys.executable, "-m", "relfair.cli", *args]
        wall, cpu, rss, code = run_process(argv, env, log)
        sample = Sample("traced" if traced else "command", wall, cpu, rss, code)
        self._record(sample, log)
        self.attempted += self.workload.jobs
        if code == 0:
            self._check(out_dir)
        else:
            self.failed += self.workload.jobs
        if traced:
            self.traces.append((tracer.read_trace(trace_dir), len(self.samples) - 1))
            shutil.rmtree(trace_dir)
        shutil.rmtree(out_dir, ignore_errors=True)

    def _record(self, sample, log):
        self.samples.append(sample)
        print(f"sample {sample.kind} wall_s={sample.wall_s:.4f} "
              f"cpu_s={sample.cpu_s:.4f} peak_rss_mb={sample.peak_rss_mb:.1f} "
              f"exit={sample.exit_code}", flush=True)
        if sample.exit_code != 0:
            with open(log, errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.problems.append(f"{sample.kind} exited {sample.exit_code}")
            print(f"{sample.kind} failed, output tail:\n{tail}", file=sys.stderr)
        os.remove(log)

    def _check(self, out_dir):
        try:
            outcome = self.workload.check(out_dir)
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failed += self.workload.jobs
            self.problems.append(f"check failed: {exc!r}")
            return
        if self.outcome is None:
            self.outcome = outcome
            return
        changed = sorted(
            path for path in set(outcome.digests) | set(self.outcome.digests)
            if outcome.digests.get(path) != self.outcome.digests.get(path))
        if changed:
            self.problems.append(f"artifacts differ from the first command: {changed}")

    def values(self, kind, field):
        return [getattr(s, field) for s in self.samples
                if s.kind == kind and s.exit_code == 0]

    def factor_at(self, index):
        """Reference seconds per measured second around sample `index`."""
        refs = [(i, s.wall_s) for i, s in enumerate(self.samples)
                if s.kind == "reference" and s.exit_code == 0]
        near = [w for i, w in refs if i < index][-1:] + [w for i, w in refs if i > index][:1]
        return REFERENCE_S / statistics.mean(near) if near else 1.0

    def scaled(self, kind, field):
        return [getattr(s, field) * self.factor_at(i)
                for i, s in enumerate(self.samples)
                if s.kind == kind and s.exit_code == 0]

    def end_to_end(self):
        for kind in ("reference", "setup", "command"):
            median(f"raw {kind}.wall_s", self.values(kind, "wall_s"))
        walls = self.scaled("command", "wall_s")
        metrics = {
            "wall_s": (median("wall_s", walls), "s"),
            "jobs_per_s": (median(
                "jobs_per_s", [self.workload.jobs / w for w in walls]), "1/s"),
            "cpu_s": (median("cpu_s", self.scaled("command", "cpu_s")), "s"),
            "setup_s": (median("setup_s", self.scaled("setup", "wall_s")), "s"),
            "peak_rss_mb": (median(
                "peak_rss_mb", self.values("command", "peak_rss_mb")), "MB"),
        }
        outcome = self.outcome
        metrics["accuracy"] = (outcome.accuracy if outcome else 0.0, "fraction")
        metrics["delta_dp"] = (outcome.delta_dp if outcome else 0.0, "fraction")
        return metrics

    def per_layer(self):
        workers = self.workload.workers
        per_command = []
        for trace, index in self.traces:
            scale, wall = self.factor_at(index), self.samples[index].wall_s
            m = {}
            for span, kinds in SPAN_METRICS.items():
                for kind in kinds:
                    value = getattr(trace, kind).get(span, 0)
                    m[f"{span}.{kind}"] = value * scale if kind == "self_s" else value
            keys = trace.encode_keys
            m["data.encode.unique_share"] = len(set(keys)) / len(keys) if keys else 0.0
            through = trace.rows.get("models.forward", 0) + trace.rows.get(
                "models.loss_and_grad", 0)
            m["models.grad_row_share"] = (
                trace.rows.get("training.Adam.step", 0) / through if through else 0.0)
            m["cli.job_payload_bytes"] = trace.payload_bytes
            m["cli.worker_busy_share"] = trace.span_s.get(
                "training.run_single", 0.0) / (workers * wall)
            traced = trace.traced_s
            for layer in tracer.LAYERS:
                m[f"{layer}.self_share"] = (
                    trace.layer_self_s(layer) / traced if traced else 0.0)
            per_command.append(m)
        metrics = {}
        for name in per_command[0]:
            values = [m[name] for m in per_command]
            metrics[name] = (statistics.median(values), _unit(name))
        metrics["training.epochs"] = (
            self.outcome.epochs if self.outcome else 0, "epochs")
        # each traced command against the untraced one just before it
        pairs = zip(self.values("command", "wall_s"), self.values("traced", "wall_s"))
        metrics["trace.overhead_share"] = (
            statistics.median(traced / plain - 1 for plain, traced in pairs),
            "fraction")
        return metrics


def _unit(name):
    kind = name.rsplit(".", 1)[1]
    if kind in UNITS:
        return UNITS[kind]
    return "bytes" if kind.endswith("bytes") else "fraction"


def measure(bench, seconds, trace):
    """Cycle through the plan until the deadline, then top up to the minimums."""
    if trace:
        plan = ("reference", "command", "traced")
        minimums = {"reference": MIN_REFERENCES, "command": MIN_TRACED,
                    "traced": MIN_TRACED}
    else:
        plan = ("reference", "setup", "command", "reference", "command")
        minimums = {"reference": MIN_REFERENCES, "setup": MIN_SETUPS,
                    "command": MIN_COMMANDS}
    counts = dict.fromkeys(minimums, 0)
    deadline = time.perf_counter() + seconds
    for kind in itertools.cycle(plan):
        if time.perf_counter() >= deadline:
            if all(counts[k] >= n for k, n in minimums.items()):
                break
            if counts[kind] >= minimums[kind]:
                continue
        counts[kind] += 1
        if kind == "reference":
            bench.reference()
        elif kind == "setup":
            bench.setup()
        else:
            bench.command(traced=kind == "traced")
    bench.reference()  # so that the last command has one after it too


def probe_env(bench):
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=bench.env,
                         capture_output=True, text=True, check=True).stdout
    env = json.loads(out)
    env.update(nproc=os.cpu_count(), workers=bench.workload.workers,
               machine=platform.machine())
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated harness unwinds, so it kills its command and cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "relfair", "cli.py")):
        print(f"perfbench: no relfair sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        bench = Bench(workloads.prepare(args.workload, work_dir, args.seed), work_dir)
        env = probe_env(bench)
        env["loadavg_before"] = os.getloadavg()
        print("env " + json.dumps(env), flush=True)
        measure(bench, args.seconds, args.trace)
        print("env " + json.dumps({"loadavg_after": os.getloadavg()}))
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in bench.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
