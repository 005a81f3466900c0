"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload counts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  The workload has a single client: one operation at a time
(closed loop) for ``--seconds``, ending on a cycle boundary, in worker
processes started one after the other (one traced process with
``--trace 1``); every result is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the machine header,
sample counts, the tail percentile used and the error rate.
"""

import os

# One BLAS/OpenMP thread in this process and every process it starts, set
# before numpy loads: the machine has few cores, and a threaded BLAS would
# measure the scheduler, not the library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7  # fresh processes timed per run; one more warms the bytecode cache
SETUP_REFERENCE_RUNS = 30  # reference work each set-up probe times after setting up
# Seconds per ``ref`` that setup_s is given at: the reference work's median
# time on a quiet 2-core VM (Python 3.11.7, numpy 2.4.6).
NOMINAL_REF_S = 0.55e-3
REFERENCE_SHARE = 0.05  # time spent on reference work, as a share of the operations' time


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                   help="internal: set up, print the monotonic clock and the reference time")
    p.add_argument("--worker", action="store_true",
                   help="internal: run the timed loop, print the tally as JSON")
    p.add_argument("--state", default="null",
                   help="internal: JSON state a worker takes over from the one before")
    p.add_argument("--final", action="store_true",
                   help="internal: this worker is the run's last; run the end-of-run checks")
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_header(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
    }


def make_workload(name: str, seed: int, tracer):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, tracer, ROOT)


def measure_setup(workload: str, seed: int) -> tuple:
    """Set-up times of SETUP_PROBES fresh processes, each from spawning the
    interpreter until it has imported the library and generated the
    workload's inputs: in seconds at the nominal reference speed (divided
    by the probe's own reference time, times NOMINAL_REF_S), and in plain
    seconds.

    The child reports CLOCK_MONOTONIC, which all processes share, and then
    the median time of SETUP_REFERENCE_RUNS runs of the reference work.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    scaled, wall = [], []
    for i in range(SETUP_PROBES + 1):
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready, ref_ms = map(float, out.stdout.split()[-2:])
        if i:
            wall.append(ready - start)
            scaled.append(wall[-1] * NOMINAL_REF_S / (ref_ms * 1e-3))
    return scaled, wall


def _reference_add(a: int, b: int) -> int:
    return a + b


def reference_work() -> float:
    """A fixed mix of interpreter and numpy work, about 0.5 ms on a 2-core VM.

    Its time is the benchmark's unit of speed, ``ref``.  It mixes integer
    and float loops, calls, dicts, sorting and small numpy array
    operations, so that no single code path's luck with memory layout in
    one process sets the unit.
    """
    total = 0
    for i in range(1500):
        total += i * i
    acc = 0.0
    for i in range(1, 601):
        x = i * 1e-3
        acc += math.log1p(x) * math.exp(-x) / (1.0 + x * x)
    table: dict = {}
    for i in range(400):
        table[i % 37] = _reference_add(table.get(i % 37, 0), i)
    words = sorted((str(i % 17), i) for i in range(300))
    x = np.linspace(0.1, 1.0, 512)
    for _ in range(20):
        acc += float(np.cumsum(np.log1p(x) * np.exp(-x))[-1])
    return acc + total + len(table) + len(words)


class Tally:
    """Latencies, work units and verdicts of the operations run, and the
    times of the reference work run between them."""

    FIELDS = ("latencies_ms", "reference_ms", "units", "busy_s", "attempted", "failed",
              "peak_rss_mb")

    def __init__(self):
        self.latencies_ms: list = []
        self.reference_ms: list = []
        self.reference_s = 0.0
        self.units = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_json(cls, data: dict) -> "Tally":
        tally = cls()
        for name in cls.FIELDS:
            setattr(tally, name, data[name])
        return tally

    def ref_ms(self) -> float:
        return statistics.median(self.reference_ms)

    def run_reference(self) -> None:
        """Reference work after an operation, until it has taken
        REFERENCE_SHARE of the operations' time so far: its samples are
        spread over the run as the operations' time is."""
        while not self.reference_ms or self.reference_s < REFERENCE_SHARE * self.busy_s:
            start = time.perf_counter()
            reference_work()
            elapsed = time.perf_counter() - start
            self.reference_ms.append(elapsed * 1e3)
            self.reference_s += elapsed


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_cycle(cycle, tracer, tally: Tally, op_ids) -> None:
    """Run each group's operations one by one, then its check (untimed)."""
    for group in cycle:
        results = []
        raised = False
        for op in group.ops:
            tracer.op_id = next(op_ids)
            start = time.perf_counter()
            try:
                with tracer.span("op"):
                    with tracer.span(op.span):
                        result = op.call(results)
            except Exception:
                _report_exception(op.span)
                result, raised = None, True
            elapsed = time.perf_counter() - start
            results.append(result)
            tally.latencies_ms.append(elapsed * 1e3)
            tally.busy_s += elapsed
            tally.units += op.weight
            tally.run_reference()
        tracer.op_id = None
        verdicts = [False] * len(group.ops)
        if not raised:
            try:
                verdicts = list(group.check(results))
            except Exception:
                _report_exception("check")
        if not all(verdicts):
            print(f"perfbench: check failed on {group.inputs}: "
                  f"{[op.span for op, ok in zip(group.ops, verdicts) if not ok]}", file=sys.stderr)
        tally.attempted += len(group.ops)
        tally.failed += sum(not ok for ok in verdicts)


def run_loop(workload, seconds: float, tracer, tally: Tally, op_ids, max_cycles=None,
             final=True) -> None:
    """Whole cycles until ``seconds`` have passed (or ``max_cycles`` ran),
    then, if ``final``, the workload's end-of-run checks."""
    deadline = time.perf_counter() + seconds
    for done, cycle in enumerate(workload.cycles(), start=1):
        run_cycle(cycle, tracer, tally, op_ids)
        if time.perf_counter() >= deadline or done == max_cycles:
            break
    if not final:
        return
    failed = workload.finish()
    if failed:
        print(f"perfbench: {workload.name}: {failed} operations failed the end-of-run checks",
              file=sys.stderr)
    tally.failed += failed


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def beyond(values: list, pct: float) -> int:
    return len(values) - int(max(1, -(-len(values) * pct // 100)))


def run_workers(args, processes: int) -> list:
    """The timed loop, split over ``processes`` fresh worker processes run
    one after the other (one client throughout); returns their tallies.

    Each process has its own luck with memory layout, which moves some
    code paths by 10-20% for the life of the process; pooling several
    evens it out.  Worker k draws its inputs from seed 16 * seed + k; the
    workload's state (census call counts and pooled replicates) passes
    from each worker to the next, and the last runs the end-of-run checks.
    """
    deadline = time.perf_counter() + args.seconds
    parts, state = [], None
    for k in range(processes):
        seconds = max(deadline - time.perf_counter(), 0.0) / (processes - k)
        cmd = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", args.workload, "--seed", str(16 * args.seed + k),
               "--seconds", repr(seconds), "--state", json.dumps(state)]
        if k == processes - 1:
            cmd.append("--final")
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        if out.returncode != 0:
            raise SystemExit(f"perfbench: worker {k} of {args.workload} exited with "
                             f"{out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        parts.append(Tally.from_json(result["tally"]))
        state = result["state"]
    return parts


def pooled_times(parts: list) -> tuple:
    """Latencies in ms and in ``ref`` (each worker's own reference time),
    and the operation time in ``ref``, over all worker tallies."""
    lat_ms, lat_ref, busy_ref = [], [], 0.0
    for part in parts:
        ref_ms = part.ref_ms()
        lat_ms += part.latencies_ms
        lat_ref += [value / ref_ms for value in part.latencies_ms]
        busy_ref += part.busy_s * 1e3 / ref_ms
    return lat_ms, lat_ref, busy_ref


def end_to_end(workload, parts: list, setup_times: list) -> dict:
    """Operation times in ``ref``: each divided by the median time of the
    reference work in the process that ran it."""
    _, lat, busy_ref = pooled_times(parts)
    units = sum(part.units for part in parts)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_ref.p50": (statistics.median(lat), "ref", len(lat)),
        "op_ref.tail": (percentile(lat, workload.tail_pct), "ref", len(lat)),
        "throughput": (units / busy_ref, "1/ref", units),
        "peak_rss_mb": (max(part.peak_rss_mb for part in parts), "MB", len(parts)),
    }


def traced_layers(args, tracer, tally: Tally, op_ids, loop_seconds: float) -> tuple:
    """One fixed cycle of every workload, the layer probes, then the metrics
    and the known-defect group's (splits run, splits raised)."""
    from layers import layer_metrics, run_probes
    from workloads import WORKLOADS

    loop_spans = len(tracer.spans)
    census = None
    for name in WORKLOADS:
        other = make_workload(name, args.seed, tracer)
        other.prepare()
        run_loop(other, 0.0, tracer, tally, op_ids, max_cycles=1)
        if name == "census":
            census = other
    values, attempted, failed, known = run_probes(tracer, args.seed, ROOT)
    tally.attempted += attempted
    tally.failed += failed
    return layer_metrics(tracer, values, census, loop_spans, loop_seconds), known


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "spherefacets", "__init__.py")):
        print(f"perfbench: no library source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, tuple(WORKLOADS))

    if args.setup_probe:
        make_workload(args.workload, args.seed, NullTracer())
        ready = time.monotonic()
        ref_ms = []
        for _ in range(SETUP_REFERENCE_RUNS):
            start = time.perf_counter()
            reference_work()
            ref_ms.append((time.perf_counter() - start) * 1e3)
        print(ready, statistics.median(ref_ms))
        return 0

    if args.worker:
        workload = make_workload(args.workload, args.seed, NullTracer())
        workload.prepare()
        workload.resume(json.loads(args.state))
        tally = Tally()
        run_loop(workload, args.seconds, NullTracer(), tally, iter(range(1 << 62)),
                 final=args.final)
        tally.peak_rss_mb = workload.peak_rss_mb()
        print(json.dumps({"tally": tally.to_json(), "state": workload.state()}))
        return 0

    header = machine_header(args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    workload = make_workload(args.workload, args.seed, tracer)
    start = time.perf_counter()
    if args.trace:
        workload.prepare()
        tally = Tally()
        op_ids = iter(range(1 << 62))
        run_loop(workload, args.seconds, tracer, tally, op_ids)
        parts = [tally]
    else:
        setup_times, setup_wall = measure_setup(args.workload, args.seed)
        start = time.perf_counter()
        parts = run_workers(args, workload.processes)
    loop_seconds = time.perf_counter() - start
    lat, _, _ = pooled_times(parts)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "processes": len(parts),
        "ops": len(lat),
        "op_unit": workload.op_unit,
        "loop_s": loop_seconds,
        "tail_pct": workload.tail_pct,
        "beyond_tail": beyond(lat, workload.tail_pct),
        "op_ms.p50": statistics.median(lat),
        "op_ms.tail": percentile(lat, workload.tail_pct),
        "throughput_per_s": sum(p.units for p in parts) / sum(p.busy_s for p in parts),
        "ref_ms": [part.ref_ms() for part in parts],
        "reference_samples": sum(len(part.reference_ms) for part in parts),
    }
    if args.trace:
        metrics, (splits, raised) = traced_layers(args, tracer, tally, op_ids, loop_seconds)
        # reported apart from attempted/failed: see layers.huge_n_mode_probe
        detail["known_defect"] = {"huge_n_mode_splits": splits, "raised": raised}
        print(f"perfbench: known defect: {raised} of {splits} huge-n splits near the mode "
              "raised QuadratureError", file=sys.stderr)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(workload, parts, setup_times)
        detail["setup_wall_s"] = statistics.median(setup_wall)
    attempted = sum(part.attempted for part in parts)
    failed = sum(part.failed for part in parts)
    detail["samples"] = {name: samples for name, (_, _, samples) in metrics.items()}
    detail["attempted"] = attempted
    detail["failed"] = failed
    detail["error_rate"] = failed / attempted

    print("# machine " + json.dumps(header))
    print("# detail " + json.dumps(detail))
    print(f"# {'metric':<48} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:<48} {value:>14.6g} {unit:<6} {samples}")
    print(f"# error_rate {detail['error_rate']:.6g} ({failed}/{attempted}); "
          f"tail = p{workload.tail_pct:g} with {detail['beyond_tail']} samples beyond")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
