"""Benchmark entry point: one workload, one seed, one measurement window.

    python3 bench/run.py --workload study --seed 3 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's ``python -m ratioreg`` command
lines as fresh processes, again and again for ``--seconds`` seconds, and
reports the end-to-end metrics.  With ``--trace 1`` it runs the workload
in-process under the span tracer (``traced.py``) and reports the per-layer
metrics.  The program is run from ``src/`` of the checkout this file sits
in; nothing is installed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
describe the environment and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

from workloads import CASES, WORKLOADS, Tally, nproc  # noqa: E402

SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150


def child_env(blas_threads: int) -> dict:
    """Environment of every program process: absolute src path, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["OMP_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(argv: list[str], env: dict, cwd: Path, log: Path):
    """Run one process to completion; return (exit code, wall s, max RSS MB).

    The wall time covers process start to reaped exit.  The peak RSS is
    ``ru_maxrss`` of that process from ``os.wait4``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


_VERSIONS_SCRIPT = """
import json, platform, numpy, scipy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": blas.get("name", "?") + " " + blas.get("version", "?")}))
"""


def environment(workload, cpus: int, env: dict) -> dict:
    """What a result depends on besides the code: versions, cores, threads."""
    versions = subprocess.run([sys.executable, "-c", _VERSIONS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        **json.loads(versions.stdout),
        "cpu": _cpu_model(),
        "nproc": cpus,
        "blas_threads": workload.blas_threads(cpus),
        "pool_width": workload.pool_width(cpus),
    }


def measure_setup(env: dict, cwd: Path) -> list[float]:
    """Wall times of fresh ``python -m ratioreg --help`` processes."""
    walls = []
    for i in range(SETUP_REPEATS):
        code, wall, _ = spawn([sys.executable, "-m", "ratioreg", "--help"], env, cwd,
                              cwd / f"help-{i}.log")
        if code != 0:
            raise RuntimeError(f"ratioreg --help exited with {code}: "
                               + (cwd / f"help-{i}.log").read_text()[-2000:])
        walls.append(wall)
    return walls


def run_untraced(workload, case: int, seconds: float, inputs: Path, work: Path,
                 env: dict, cpus: int):
    """Repeat the workload's commands for ``seconds``; time and check each repeat.

    A repeat is started only while the time used so far plus the last
    repeat's wall fits the window, so the run ends near ``seconds``.
    Returns the wall of each repeat, the peak RSS of each process and the
    run's tally.
    """
    tally = Tally(workload, case)
    walls, rss = [], []
    begin = time.perf_counter()
    while True:
        out = work / f"rep-{len(walls)}"
        out.mkdir()
        rep_wall, stdouts, ok = 0.0, [], True
        for index, argv in enumerate(workload.argvs(case, inputs, out, cpus)):
            log = out / f"cmd-{index}.log"
            code, wall, peak = spawn([sys.executable, "-m", "ratioreg", *argv],
                                     env, work, log)
            rep_wall += wall
            rss.append(peak)
            stdouts.append(log.read_text())
            ok = tally.command(argv, code, stdouts[-1])
            if not ok:
                break
        if ok:
            tally.outputs(out, stdouts)
        walls.append(rep_wall)
        shutil.rmtree(out)
        elapsed = time.perf_counter() - begin
        if not ok or elapsed + walls[-1] > seconds:
            break
    tally.finish()
    return walls, rss, tally


def report_digest(workload, case: int, blas_threads: int, digests: set) -> str:
    known = workload.reference()["cases"][str(case)]["sha256"].get(str(blas_threads))
    if known is None:
        return f"no reference digest for {blas_threads} BLAS thread(s)"
    return ("byte-identical to the reference" if digests == {known}
            else "differs from the reference bytes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratioreg" / "__init__.py").is_file():
        print(f"ratioreg sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    case = args.seed % CASES
    cpus = nproc()
    env = child_env(workload.blas_threads(cpus))
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        info = environment(workload, cpus, env)
        print("env " + json.dumps(info, sort_keys=True))
        workload.generate(case, inputs)
        print(f"workload {workload.name}: seed {args.seed} -> input case {case}")
        if args.trace:
            result = run_traced(workload, case, args.seconds, inputs, work, env)
        else:
            result = run_timed(workload, case, args.seconds, inputs, work, env, cpus)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


def run_timed(workload, case, seconds, inputs, work, env, cpus) -> dict:
    setup = measure_setup(env, work)
    walls, rss, tally = run_untraced(workload, case, seconds, inputs, work, env, cpus)
    for problem in tally.problems:
        print(f"check failed: {problem}")
    if tally.digests:
        print("digest: " + report_digest(workload, case, workload.blas_threads(cpus),
                                         tally.digests))
    attempted, failed = tally.attempted, tally.failed
    # wall_s is the fastest repeat: contention from other tenants of a
    # shared machine only adds time, so the minimum is the repeat statistic
    # it moves least.
    lines = [
        ("wall_s", min(walls), "s", len(walls), "min"),
        ("setup_s", statistics.median(setup), "s", len(setup), "median"),
        ("peak_rss_mb", max(rss), "MB", len(rss), "max"),
    ]
    for name, value, unit, count, stat in lines:
        print(f"metric {name} = {value:.6g} {unit} ({stat} of {count} samples)")
    print("samples wall_s: " + " ".join(f"{w:.3f}" for w in walls)
          + f" (median {statistics.median(walls):.3f})")
    print("samples setup_s: " + " ".join(f"{w:.3f}" for w in setup))
    print(f"metric failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return {
        "correct": not tally.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _, _ in lines},
    }


def run_traced(workload, case, seconds, inputs, work, env) -> dict:
    """Run ``traced.py`` in a child with the workload's environment."""
    out = work / "traced.json"
    log = work / "traced.log"
    code, _, _ = spawn([sys.executable, str(BENCH_DIR / "traced.py"),
                        "--workload", workload.name, "--case", str(case),
                        "--seconds", str(seconds), "--inputs", str(inputs),
                        "--work", str(work), "--out", str(out)], env, work, log)
    if code != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise RuntimeError(f"traced run exited with {code}")
    result = json.loads(out.read_text())
    for line in result.pop("notes"):
        print(line)
    return result


if __name__ == "__main__":
    sys.exit(main())
