"""photonbox benchmark: one client, closed loop, timed end to end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): sweep_dense, run_batch, verify_oracle.
Each op starts when the previous one has ended.  With ``--trace 0`` the ops
run untraced for about ``--seconds`` and the end-to-end metrics are reported.
sweep_dense and verify_oracle run a fixed number of ops for a given
``--seconds``, run_batch runs until ``--seconds`` have passed.  With
``--trace 1`` a fixed number of ops runs twice, untraced and then traced, and
the per-layer metrics are reported.  Every op's output is checked; a wrong or
refused output counts as a failed op, and makes the run incorrect, since the
timed inputs avoid the known defects.  run_batch also runs an untimed probe
of those defects and reports its count.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One process; no BLAS or OpenMP thread pool beyond the caller's.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 10  # fresh interpreters for setup_s, before and again after the timed loop
IMPORTTIME_REPEATS = 5  # fresh interpreters per traced run for the setup layer
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
# Runs of at least two windows take op_tail_ms per window and report the
# median over windows, so a single burst of interference does not set it.
TAIL_WINDOW = 1000
WARMUP_OPS = {"sweep_dense": 1, "run_batch": 200, "verify_oracle": 1}
# Workloads with few ops per run run a fixed number of ops: whole cycles at
# this nominal rate (ops per second of --seconds, about the rate when the
# benchmark was added).  Their op count then does not depend on speed, so
# op_tail_ms is read at the same percentile before and after a change.
# RUN_CAP stops such a run at a whole cycle after RUN_CAP x --seconds, so a
# very slow program still ends in time; the detail line records that.
NOMINAL_OPS_PER_S = {"sweep_dense": 2.7, "verify_oracle": 0.9}
RUN_CAP = 3
TRACED_OPS = {"sweep_dense": 8, "run_batch": 3000, "verify_oracle": 8}  # whole cycles

IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import photonbox; print(time.perf_counter() - t0)"
)


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
    )


def setup_samples() -> list[float]:
    """Times for fresh interpreters to import photonbox."""
    return [float(_child(["-I", "-c", IMPORT_SNIPPET, str(SRC)]).stdout) for _ in range(SETUP_REPEATS)]


def setup_layer() -> dict[str, tuple[float, str]]:
    """numpy's cumulative and photonbox's own import time, from -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = _child(["-I", "-X", "importtime", "-c", IMPORT_SNIPPET, str(SRC)]).stderr
        numpy_us = own_us = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if not self_us.strip().isdigit():
                continue  # the column header
            if name == "numpy":
                numpy_us = int(cumulative_us)
            elif name == "photonbox" or name.startswith("photonbox."):
                own_us += int(self_us)
        numpy_s.append(numpy_us / 1e6)
        own_s.append(own_us / 1e6)
    return {
        "setup.import_numpy_s": (statistics.median(numpy_s), "s"),
        "setup.import_photonbox_self_s": (statistics.median(own_s), "s"),
    }


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Failures:
    """Failures counted by input class and defect, with a few examples."""

    def __init__(self) -> None:
        self.by_key: Counter = Counter()
        self.defects: set[str] = set()
        self.examples: list[str] = []
        self.unexpected: list[str] = []
        self.total = 0

    def add(self, failure) -> None:
        self.total += 1
        self.by_key[failure.key] += 1
        example = f"{failure.key}: {failure.detail}"
        if len(self.examples) < 5:
            self.examples.append(example)
        if failure.defect is not None:
            self.defects.add(failure.defect)
        elif len(self.unexpected) < 5:
            self.unexpected.append(example)


@dataclass
class Run:
    latencies: array = field(default_factory=lambda: array("d"))
    failures: Failures = field(default_factory=Failures)
    out_bytes: int = 0


def fixed_count(seconds: float, rate: float, cycle: int) -> int:
    """Whole cycles of ops for ``seconds`` at ``rate``, at least MIN_OPS ops."""
    return cycle * max(math.ceil(seconds * rate / cycle), math.ceil(MIN_OPS / cycle))


def run_ops(ops, count: int | None, seconds: float | None, cycle: int = 1, tracer=None) -> Run:
    """Closed loop over ops.

    Runs until ``count`` ops have run, or until ``seconds`` have passed, at
    least MIN_OPS ops have run and the last cycle of ``cycle`` ops is whole,
    whichever comes first.
    """
    run = Run()
    latencies = run.latencies
    perf = time.perf_counter
    deadline = perf() + seconds if seconds is not None else None
    while True:
        n = len(latencies)
        if count is not None and n >= count:
            break
        if deadline is not None and n >= MIN_OPS and n % cycle == 0 and perf() >= deadline:
            break
        op = next(ops)
        if tracer is not None:
            tracer.op_id = n
        t0 = perf()
        result = op.run()
        t1 = perf()
        latencies.append(t1 - t0)
        failure = op.check(result)
        if failure is not None:
            run.failures.add(failure)
        run.out_bytes += op.out_bytes(result)
    return run


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    latencies = run.latencies
    n = len(latencies)
    size = n if n < 2 * TAIL_WINDOW else TAIL_WINDOW
    # In each window, exactly ten samples lie beyond the tail sample.
    tails = [sorted(latencies[i : i + size])[size - 11] for i in range(0, n - size + 1, size)]
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * statistics.median(tails), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "op_samples": n,
        "op_tail_percentile": 100.0 * (size - 10) / size,
        "op_tail_window": size,
        "op_tail_windows": len(tails),
        "setup_samples": len(setup),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "photonbox" / "__init__.py").is_file():
        print(f"perfbench: no photonbox sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import photonbox

    if Path(photonbox.__file__).resolve().parent != (SRC / "photonbox").resolve():
        print(f"perfbench: imported photonbox from {photonbox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make_ops, cycle = workloads.WORKLOADS[args.workload]

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        golden_ok = workloads.check_golden(ROOT, work)
        probe = Failures()
        probe_fn = workloads.PROBES.get(args.workload)
        outcomes = probe_fn(args.seed) if probe_fn is not None else []
        for failure in outcomes:
            if failure is not None:
                probe.add(failure)
        warmup = make_ops(args.seed + 1_000_003, work)
        for op in itertools.islice(warmup, WARMUP_OPS[args.workload]):
            op.check(op.run())

        detail: dict = {"env": environment(args), "golden_csv_byte_exact": golden_ok}
        if args.trace == 0:
            setup = setup_samples()
            rate = NOMINAL_OPS_PER_S.get(args.workload)
            if rate is None:
                count, seconds = None, args.seconds
            else:
                count, seconds = fixed_count(args.seconds, rate, cycle), RUN_CAP * args.seconds
            run = run_ops(make_ops(args.seed, work), count, seconds, cycle)
            setup += setup_samples()
            metrics, extra = end_to_end(run, setup)
            detail.update(extra)
            detail["op_count_fixed"] = count
            detail["op_count_capped"] = count is not None and len(run.latencies) < count
        else:
            count = TRACED_OPS[args.workload]
            metrics = setup_layer()
            plain = run_ops(make_ops(args.seed, work), count, None)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run = run_ops(make_ops(args.seed, work), count, None, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics.update(tracer.layer_metrics())
            metrics["cli.out_bytes"] = (run.out_bytes, "B")
            metrics["fail_ratio"] = (run.failures.total / len(run.latencies), "ratio")
            metrics["known_defect.failed"] = (probe.total, "count")
            metrics["trace.overhead_ratio"] = (sum(run.latencies) / sum(plain.latencies), "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # left in place while another run is using it

    failures = run.failures
    detail["failures"] = dict(sorted(failures.by_key.items()))
    detail["failed_examples"] = failures.examples
    detail["defect_probe"] = {
        "inputs": len(outcomes),
        "failed": dict(sorted(probe.by_key.items())),
        "known_defects": {d: workloads.KNOWN_DEFECTS[d] for d in sorted(probe.defects)},
        "unexpected_examples": probe.unexpected,
    }
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": golden_ok and failures.total == 0 and not probe.unexpected,
                "attempted": len(run.latencies),
                "failed": failures.total,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
