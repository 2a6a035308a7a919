"""homdom benchmark: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports homdom from its
``src``. It attempts whole rounds of the workload until ``--seconds`` have
passed. With ``--trace 0`` it prints the end-to-end metrics. With
``--trace 1`` it then runs one more round with every public homdom
function wrapped, and prints the per-layer split and the tracing overhead.
The line before the last holds the run's record (machine, commit, seed,
output digest, round times); the last line is the result. The record's
digest covers the exact outputs of one round; ``--seconds 0`` runs the
fewest rounds and gives it quickest, so two commits can be shown to give the
same exact outputs.

Every time in the result line is scaled to a reference speed of the
machine, measured by a fixed piece of pure-Python work timed every tenth of
a second between operations (see ``Speedometer``). The record holds the
unscaled times too.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
REFERENCE_SECONDS = 2.5e-3   # reference_work() at the reference speed
SPEED_EVERY_S = 0.1          # how often the speed is sampled between operations
SPEED_WINDOW_S = 1.0         # samples this close to an operation set its speed
BLAS_THREADS = 1
MODULES = ("graphs", "homcount", "constructions", "formulas", "ratlp", "cones",
           "verifier", "cli")


def metric_units(root):
    """{name: unit} of the end-to-end and of the per-layer metrics.

    BENCHMARK.json names the metrics the result line carries. Per layer
    these are every module and the functions an optimisation is most likely
    to move; the record line and the saved trace hold every wrapped one.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def pin_blas_threads():
    """One BLAS thread (never more than nproc); must run before numpy loads.

    On a small shared machine a second BLAS thread makes a dense product
    take anywhere from 0.6x to 1.5x its one-thread time, run to run.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def reference_work():
    """Fixed pure-Python work of about 2.5 ms, with no homdom code in it.

    Integer arithmetic, then tuples, sets and Fractions made and dropped the
    way graph code makes them: an integer loop alone missed part of the
    slowdown of allocation-heavy code when the host was busy.
    """
    s = 0
    for i in range(10000):
        s += i * i % 7
    adj = {v: {(v + d) % 60 for d in (1, 7, 13)} | {(v - d) % 60 for d in (1, 7, 13)}
           for v in range(60)}
    paths = [(v,) for v in range(60)]
    for _ in range(2):
        paths = [p + (w,) for p in paths for w in adj[p[-1]] if w not in p]
    f = sum((Fraction(len(p), i % 12 + 1) for i, p in enumerate(paths[:300])), Fraction(0))
    return s, len(paths), f


class Speedometer:
    """Samples how fast the machine runs Python, and scales times to one speed.

    On a few cores of a shared host the same work takes up to 1.5x longer in
    one ten-second stretch than in the next, with no steal time and with CPU
    time moving alike: other tenants slow the cores themselves. Timing
    reference_work() every SPEED_EVERY_S between operations tracks that. An
    operation's time is scaled by REFERENCE_SECONDS over the median sample
    within SPEED_WINDOW_S of it, so the figures read as seconds on a machine
    where reference_work() takes REFERENCE_SECONDS. homdom code never runs
    inside a sample, so a change to homdom moves only the operations' times.
    """

    def __init__(self):
        self.at = []
        self.took = []
        for _ in range(3):
            reference_work()
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def tick(self):
        if time.perf_counter() - self.at[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """Factor from a time measured over [start, end] to the reference speed.

        Uses the samples within SPEED_WINDOW_S of the interval, and always
        the nearest one before it and after it.
        """
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.at, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.at, end) + 1, len(self.at)))
        return REFERENCE_SECONDS / statistics.median(self.took[lo:hi])


def import_homdom(root):
    src = root / "src"
    if not (src / "homdom" / "__init__.py").is_file():
        raise SystemExit(f"error: no homdom package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import homdom
    if Path(homdom.__file__).resolve().parent != (src / "homdom").resolve():
        raise SystemExit(f"error: imported homdom from {homdom.__file__}, not {src}")
    return homdom


def setup_probe(wl, seed, src, speed):
    """One set-up: import homdom in a fresh interpreter, then make the inputs.

    Returns (seconds at the reference speed, seconds as measured, inputs).
    The import is timed in a child process, since this one has homdom
    loaded already. The speed is sampled just before and after.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import homdom, homdom.cli; print(time.perf_counter() - t)")
    speed.sample()
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60)
    t0 = time.perf_counter()
    inputs = wl.prepare(seed)
    end = time.perf_counter()
    speed.sample()
    seconds = float(out.stdout) + end - t0
    return seconds * speed.scale(start, end), seconds, inputs


def machine(nproc, threads, root):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # look for the repository in the checkout only, and read no git config
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, text=True,
                                capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": threads, "commit": commit}


def nearest_rank(sorted_values, pct):
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[k - 1]


def tail_percentile(samples):
    """The highest whole percentile with at least ten of `samples` beyond it."""
    return max(p for p in range(1, 100) if samples - -(-samples * p // 100) >= 10)


def digest(texts):
    """SHA-256 over the exact text of every output of one round."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


class Runner:
    """Runs whole rounds of a workload and keeps what the metrics need."""

    def __init__(self, workload, inputs, speed):
        self.workload = workload
        self.inputs = inputs
        self.speed = speed
        self.round_seconds = []
        self.round_spans = []   # per round, the (start, end) of each operation
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_outputs = None
        self.peak_rss_mb = None

    def one_round(self):
        """Runs one round; returns its wall time and its operations' spans."""
        wl = self.workload
        outputs = []
        texts = []
        spans = []
        t_round = time.perf_counter()
        for name, thunk in wl.round(self.inputs):
            self.speed.tick()
            t0 = time.perf_counter()
            try:
                result = thunk()
            except Exception as exc:  # an operation that raises is a failed one
                spans.append((t0, time.perf_counter()))
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                texts.append(f"{name} raised {type(exc).__name__}")
                continue
            spans.append((t0, time.perf_counter()))
            self.attempted += 1
            if wl.failed(name, result):
                self.failed += 1
            outputs.append((name, result))
            texts.append(wl.render(name, result))
        self.speed.sample()
        wall = time.perf_counter() - t_round
        self.digests.append(digest(texts))
        if self.first_outputs is None:
            self.first_outputs = outputs
        return wall, spans

    def run_for(self, seconds, between):
        """Whole rounds until `seconds` have passed, at least min_rounds.

        Peak RSS is read after min_rounds rounds, so that it covers the same
        work in every run: later rounds only add allocator noise. From then
        on, `between()` runs after each round, untimed.
        """
        t0 = time.perf_counter()
        while len(self.round_seconds) < self.workload.min_rounds or \
                time.perf_counter() - t0 < seconds:
            wall, spans = self.one_round()
            self.round_seconds.append(wall)
            self.round_spans.append(spans)
            if len(self.round_seconds) == self.workload.min_rounds:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.peak_rss_mb is not None:
                between()

    def scaled(self, spans):
        """The operations' times, scaled to the reference speed."""
        return [(end - start) * self.speed.scale(start, end) for start, end in spans]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = HERE.parent
    end_to_end_units, per_layer_units = metric_units(root)
    nproc, threads = pin_blas_threads()
    homdom = import_homdom(root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    # Set-up is timed several times, before the rounds and between them,
    # so that its median spans the whole run.
    speed = Speedometer()
    setup, setup_raw = [], []

    def probe():
        scaled, raw, inputs = setup_probe(wl, args.seed, root / "src", speed)
        setup.append(scaled)
        setup_raw.append(raw)
        return inputs

    for _ in range(SETUP_PROBES):
        inputs = probe()

    # fixed per workload from the fewest samples a run can have
    tail_pct = tail_percentile(wl.min_rounds * sum(1 for _ in wl.round(inputs)))
    runner = Runner(wl, inputs, speed)
    runner.run_for(args.seconds, probe)
    scaled_rounds = [runner.scaled(spans) for spans in runner.round_spans]
    round_ops = [sum(times) for times in scaled_rounds]

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine(nproc, threads, root), "rounds": len(runner.round_seconds),
              "ops_per_round": runner.attempted // len(runner.round_seconds),
              "tail_percentile": tail_pct, "digest": runner.digests[0]}

    traced = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(homdom, MODULES)
        tracer.install()
        try:
            _, traced_spans = runner.one_round()
        finally:
            tracer.uninstall()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{wl.name}.npz")
        traced = tracer.summary()
        traced["trace.overhead_pct"] = 100.0 * (
            sum(runner.scaled(traced_spans)) / statistics.median(round_ops) - 1.0)
        record["per_layer"] = {k: v for k, v in traced.items() if v}

    t_check = time.perf_counter()
    problems = list(runner.errors) or wl.check(runner.inputs, runner.first_outputs)
    record["check_s"] = time.perf_counter() - t_check
    if len(set(runner.digests)) != 1:
        problems.append(f"outputs differ between rounds: {sorted(set(runner.digests))}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record["problems"] = problems
    record["round_seconds"] = runner.round_seconds
    record["round_op_seconds_scaled"] = round_ops
    record["setup_seconds"] = setup_raw
    record["setup_seconds_scaled"] = setup
    record["speed_samples_ms"] = [1000.0 * q for q in statistics.quantiles(speed.took, n=4)]

    if traced is None:
        # each operation's latency is its median over the rounds, so that the
        # percentiles rank the same operations whatever the number of rounds
        per_op = sorted(statistics.median(times) for times in zip(*scaled_rounds))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(round_ops),
            "op_p50_ms": 1000.0 * statistics.median(per_op),
            "op_tail_ms": 1000.0 * nearest_rank(per_op, tail_pct),
            "peak_rss_mb": runner.peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": end_to_end_units[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": traced[k], "unit": u} for k, u in per_layer_units.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
