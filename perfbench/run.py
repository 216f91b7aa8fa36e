"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fanout-inproc --seed 1 --seconds 10 --trace 0

The run serves sessions back to back for ``--seconds`` seconds (at least two
of them), checks everything every trainer received, and prints one JSON
object as the last line of standard output: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` prints the end-to-end metrics
measured with no wrappers installed, each the median over blocks of
consecutive sessions.  ``--trace 1`` alternates plain and
traced sessions and prints the per-layer metrics of the traced ones, plus the
tracing overhead: the traced sessions' CPU per delivery over the plain ones'.

The full record, stamped with the commit, machine and versions, goes to
``perfbench/results/``; a traced run also writes its spans there as JSONL.
The exit code is 1 when any check failed and 2 when the program's sources
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="'tiny' shrinks the workload for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def git_sha(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


#: A block of consecutive sessions holds about this many measured step waits
#: (when the run has them), so its p99 has ten samples beyond it.
BLOCK_WAITS = 1000
MAX_BLOCKS = 8


def blocks(cycles) -> list:
    """The sessions cut into consecutive blocks of about equal size.

    As many blocks as the run's step waits fill at ``BLOCK_WAITS`` each, at
    most ``MAX_BLOCKS`` and at least one.  Each timed metric is computed per
    block and the run reports the median over blocks, so a burst of load
    from outside the process during a few seconds of the run moves one block,
    not the result.
    """
    waits = sum(len(c.step_waits_s) for c in cycles)
    count = max(1, min(MAX_BLOCKS, len(cycles), waits // BLOCK_WAITS))
    return [cycles[i * len(cycles) // count:(i + 1) * len(cycles) // count]
            for i in range(count)]


def _timed(cycles) -> dict:
    """The timed end-to-end metrics of one block of sessions."""
    from perfbench.tracing import quantile, tail_quantile

    waits = [w for c in cycles for w in c.step_waits_s]
    firsts = [f for c in cycles for f in c.first_batch_s]
    deliveries = sum(c.measured_deliveries for c in cycles)
    wall = sum(c.window_s for c in cycles)
    cpu = sum(c.window_cpu_s for c in cycles)
    return {
        "setup_s": quantile([c.setup_s for c in cycles], 0.5),
        "first_batch_s": quantile(firsts, 0.5),
        "deliveries_per_s": deliveries / wall if wall else 0.0,
        "step_wait_p50_ms": quantile(waits, 0.5) * 1e3,
        "step_wait_p99_ms": quantile(waits, tail_quantile(len(waits))) * 1e3,
        "cpu_us_per_delivery": cpu / deliveries * 1e6 if deliveries else 0.0,
    }


UNITS = {"setup_s": "s", "first_batch_s": "s", "deliveries_per_s": "1/s",
         "step_wait_p50_ms": "ms", "step_wait_p99_ms": "ms", "cpu_us_per_delivery": "us",
         "teardown_tail_s": "s", "peak_shm_mb": "MB"}


def end_to_end(cycles) -> dict:
    """The end-to-end metrics of the given (plain) cycles."""
    import statistics

    from perfbench.tracing import quantile, tail_quantile

    per_block = [_timed(block) for block in blocks(cycles)]
    values = {name: statistics.median(b[name] for b in per_block) for name in per_block[0]}
    # A session's teardown waits out the describe service's 0.2 s poll, then
    # the metrics service's when that poll ends just after the describe's:
    # about 0.15 s or 0.35 s.  Which of the two a session gets is a race
    # whose odds move with the machine's load, so the mean and the median
    # over a run move with them; the tail, over the whole run, reads the
    # slow mode as long as more than ten of the run's sessions have it.
    teardowns = [c.teardown_s for c in cycles]
    values["teardown_tail_s"] = quantile(teardowns, tail_quantile(len(teardowns)))
    values["peak_shm_mb"] = max(c.peak_shm_bytes for c in cycles) / 2**20
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in UNITS.items()}


def per_layer(plain, traced, tracer, checker) -> dict:
    """The per-layer metrics of the traced cycles, with the tracing overhead."""
    from perfbench.tracing import layer_metrics

    deliveries = sum(c.deliveries for c in traced)
    figures = layer_metrics(tracer.spans, deliveries)
    hits = sum(c.segment_reuse_hits for c in traced)
    misses = sum(c.segment_reuse_misses for c in traced)
    attach_hits = sum(c.attach_cache_hits for c in traced)
    attach_opens = sum(c.attach_opens for c in traced)
    trainers = sum(c.trainers for c in plain + traced)

    def cpu_per_delivery(cycles):
        count = sum(c.measured_deliveries for c in cycles)
        return sum(c.window_cpu_s for c in cycles) / count if count else 0.0

    plain_cpu = cpu_per_delivery(plain)
    teardowns = [c.teardown_s for c in plain]
    figures.update({
        "session.teardown_mean_us": sum(teardowns) / len(teardowns) * 1e6,
        # Peak memory comes in steps of a batch (which buffers happen to be
        # alive together), so on loadbound-inproc it moves by a fifth from
        # run to run; it is reported here rather than bounded.  It includes
        # the spans the traced sessions keep in memory.
        "process.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tensor.segment_reuse_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tensor.attach_cache_hit_ratio":
            attach_hits / (attach_hits + attach_opens) if attach_hits + attach_opens else 0.0,
        "session.threads_peak": max(c.threads_peak for c in traced),
        "session.late_admission_share":
            sum(c.late_trainers for c in plain + traced) / trainers if trainers else 0.0,
        "check.failed_share": checker.failed / max(1, checker.attempted),
        "trace.spans_per_delivery": len(tracer.spans) / max(1, deliveries),
        "trace.overhead_cpu_share":
            cpu_per_delivery(traced) / plain_cpu - 1.0 if plain_cpu else 0.0,
    })
    return {name: {"value": float(value), "unit": _unit(name)} for name, value in figures.items()}


def _unit(name: str) -> str:
    if name.endswith("_us") or "_us_per_" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def run(args) -> int:
    from perfbench.checks import Checker
    from perfbench.driver import run_cycle
    from perfbench.tracing import Tracer, tail_quantile
    from perfbench.workloads import WORKLOADS, make_inputs, tiny

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = tiny(workload)
    inputs = make_inputs(workload, args.seed)
    checker = Checker(inputs.expected_labels, workload.batches_per_epoch)
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    cycle = 0
    while cycle < 2 or time.perf_counter() < deadline:
        # A traced run alternates plain and traced sessions so both see the
        # same machine state; the difference is the tracing overhead.
        trace_this = tracer is not None and cycle % 2 == 1
        if trace_this:
            tracer.cycle = cycle
            tracer.install()
        try:
            stats = run_cycle(inputs, cycle, checker, tracer if trace_this else None)
        except Exception as exc:  # one broken session ends the run, reported
            checker.fail(f"session {cycle}: {type(exc).__name__}: {exc}")
            break
        finally:
            if trace_this:
                tracer.remove()
        (traced if trace_this else plain).append(stats)
        cycle += 1
        if not checker.correct:
            break  # report the failure now rather than repeat it

    record = {"stamp": stamp(args.workload, args.seed, args.trace), "size": args.size,
              "sessions": len(plain) + len(traced)}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics = per_layer(plain, traced, tracer, checker)
        else:
            metrics = end_to_end(plain)
    else:
        metrics = {}
    waits = sum(len(c.step_waits_s) for c in plain)
    block_count = len(blocks(plain)) if plain else 1
    stalls = sum(w > 0.03 for c in plain for w in c.step_waits_s)
    late = sum(c.late_trainers for c in plain + traced)
    trainers = sum(c.trainers for c in plain + traced)
    record.update({
        # Sample counts behind the medians, and the tail quantile each "p99"
        # or tail metric actually reports (ten samples must lie beyond it).
        "samples": {"step_waits": waits, "sessions": len(plain), "blocks": block_count},
        "step_waits_over_30ms": stalls,
        "tail_quantiles": {"step_wait_p99_ms": tail_quantile(waits // block_count),
                           "teardown_tail_s": tail_quantile(len(plain))},
        "teardowns_s": [c.teardown_s for c in plain],
        "late_admissions": [late, trainers],
        "problems": checker.problems,
        "metrics": metrics,
    })
    RESULTS.mkdir(exist_ok=True)
    base = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(RESULTS / f"{base}.spans.jsonl")
    (RESULTS / f"{base}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {json.dumps(record['stamp'])}")
    print(f"# sessions={record['sessions']} step_waits={waits} over_30ms={stalls} "
          f"tail_quantiles={json.dumps(record['tail_quantiles'])} "
          f"late_admissions={late}/{trainers} failed={checker.failed}/{checker.attempted}")
    for problem in checker.problems:
        print(f"# problem: {problem}")
    result = {
        "correct": checker.correct and bool(metrics),
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it to end.

    Creating a posix shared-memory segment (the tcp workloads do) starts that
    helper process; left alone it outlives this one by a moment, until it
    notices its pipe closed.  Collecting garbage first lets any segment still
    unreferenced unregister while the tracker can hear it.
    """
    import gc
    from multiprocessing import resource_tracker

    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are not in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        return run(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
