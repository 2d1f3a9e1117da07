"""Traced run of one workload: per-layer metrics from in-process passes.

Started by ``run.py --trace 1`` in the workload's environment (source path
and BLAS threads).  It runs the workload's command lines in this process
through ``ratioreg.cli.main``:

1. one pass under a memory-tracking tracer, for the ``peak_mb`` metrics,
   with a pool width of 1;
2. then pairs of an untraced and a traced pass while the window lasts.

Times are medians over the traced passes; the tracing overhead is the
median traced wall minus the median untraced wall.  The spans of the last
traced pass are written to ``.bench_work/spans-<workload>.json``.
"""

import time

_import_start = time.perf_counter()
import ratioreg.cli as cli  # noqa: E402  (timed: the import every command pays)

IMPORT_S = time.perf_counter() - _import_start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import (LAYERS, Tracer, busy_time_off_thread, summarize,  # noqa: E402
                   thread_self_time, to_records)
from workloads import WORKLOADS, Tally, nproc  # noqa: E402

# Per-layer metrics: name -> unit, as BENCHMARK.json lists them.
# "<module>.<function>.<stat>" reads the span summary of that function;
# "<module>.self_s" sums the module's self time; the rest are derived below.
PER_LAYER = {metric["name"]: metric["unit"] for metric in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]}

STATS = {"calls": "calls", "self_s": "self_s", "total_s": "total_s",
         "flops": "work", "pairs": "work"}


def pass_metrics(spans, thread: int, pool_width: int) -> dict:
    """Span-derived metrics of one traced pass (all but memory and overhead)."""
    stats = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}

    def stat(function: str, key: str):
        return stats.get(function, empty)[key]

    grams = stat("kernel.assemble_gram", "calls") + stat("kernel.reference_gram", "calls")
    study_wall = stat("experiment.run_study", "total_s")
    metrics = {
        "estimator.factorizations_per_gram":
            stat("estimator.cho_factor", "calls") / grams if grams else 0.0,
        "capacity.decompositions_per_gram":
            (stat("capacity.eigvalsh", "calls") + stat("capacity.eigh", "calls")) / grams
            if grams else 0.0,
        "experiment.pool_busy_frac":
            busy_time_off_thread(spans, thread) / (study_wall * pool_width)
            if study_wall else 0.0,
    }
    for name in PER_LAYER:
        key, _, last = name.rpartition(".")
        if name in metrics or key == "trace" or last not in STATS:
            continue
        if key in LAYERS:
            metrics[name] = sum(entry["self_s"] for function, entry in stats.items()
                                if function.startswith(key + "."))
        else:
            metrics[name] = stat(key, STATS[last])
    return metrics


def run_pass(tally: Tally, case: int, inputs: Path, out: Path, cpus: int,
             tracer: Tracer | None) -> float:
    """Run the workload's command lines once in this process; return their summed wall."""
    out.mkdir()
    wall, stdouts = 0.0, []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for argv in tally.workload.argvs(case, inputs, out, cpus):
            buffer = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a benchmark error
                code = "exception: " + traceback.format_exc(limit=5)
            wall += time.perf_counter() - start
            stdouts.append(buffer.getvalue())
            if not tally.command(argv, code, stdouts[-1]):
                shutil.rmtree(out)
                return wall
    tally.outputs(out, stdouts)
    shutil.rmtree(out)
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--case", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tally = Tally(workload, args.case)
    cpus = nproc()
    pool_width = workload.pool_width(cpus)
    thread = threading.get_ident()
    out = args.work / "pass"  # each pass removes it again
    begin = time.perf_counter()

    # tracemalloc's peak is process-wide, so the memory pass runs the command
    # lines as on one core, with a pool width of 1: with more workers, one
    # worker's span would reset or take in the peak of another's.
    memory = Tracer(track_memory=True)
    tracemalloc.start()
    try:
        run_pass(tally, args.case, args.inputs, out, 1, memory)
    finally:
        tracemalloc.stop()
    peaks = summarize(memory.spans)

    untraced, traced, per_pass = [], [], []
    while True:
        untraced.append(run_pass(tally, args.case, args.inputs, out, cpus, None))
        tracer = Tracer()
        traced.append(run_pass(tally, args.case, args.inputs, out, cpus, tracer))
        per_pass.append(pass_metrics(tracer.spans, thread, pool_width))
        pair = untraced[-1] + traced[-1]
        if tally.problems or time.perf_counter() - begin + pair > args.seconds:
            break

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for function in ("estimator.evaluate_batch", "kernel.kernel_matrix"):
        metrics[f"{function}.peak_mb"] = peaks.get(function, {"peak_bytes": 0})["peak_bytes"] / 1e6
    metrics["cli.import_s"] = IMPORT_S
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    tally.finish()
    own_self = thread_self_time(tracer.spans, thread)
    spans_path = args.work.parent / f"spans-{workload.name}.json"
    spans_path.write_text(json.dumps(to_records(tracer.spans)))
    notes = [f"traced passes: {len(traced)} (plus {len(untraced)} untraced, "
             "1 memory pass with a pool width of 1)",
             f"tracing overhead: {metrics['trace.overhead_s']:.4f} s on an untraced "
             f"median of {statistics.median(untraced):.4f} s",
             f"calling-thread self time of the last traced pass: {own_self:.6f} s; "
             f"its traced wall: {traced[-1]:.6f} s",
             f"spans of the last traced pass: {spans_path}"]
    notes += [f"check failed: {p}" for p in tally.problems]
    notes += [f"layer {name} = {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "notes": notes,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
