"""Compute the reference outputs the benchmark checks each run against.

    python3 bench/make_reference.py [--blas-threads N]

For every workload and every input case this runs the workload's command
lines once, as ``run.py`` does, and stores the extracted values and the
sha256 of the main output file in ``bench/reference/<workload>.json``.  Digests
are keyed by the BLAS thread count, because the last digits of the outputs
depend on it.  With ``--blas-threads`` the run uses that count instead of
the workload's own; the values of an existing reference are then kept, the
new values must match them within the benchmark's tolerance, and only the
digest for that count is added.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import WORK_ROOT, child_env, spawn
from workloads import CASES, REFERENCE_DIR, WORKLOADS, compare, nproc


def reference_case(workload, case: int, blas_threads: int, cpus: int):
    work = WORK_ROOT / f"reference-{workload.name}-{case}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    try:
        workload.generate(case, inputs)
        env = child_env(blas_threads)
        stdouts = []
        for index, argv in enumerate(workload.argvs(case, inputs, out, cpus)):
            log = work / f"cmd-{index}.log"
            code, _, _ = spawn([sys.executable, "-m", "ratioreg", *argv], env, work, log)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with {code}: {log.read_text()}")
            stdouts.append(log.read_text())
        return workload.extract(out, stdouts), workload.digest(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--blas-threads", type=int)
    args = parser.parse_args(argv)
    cpus = nproc()
    for name, workload in sorted(WORKLOADS.items()):
        path = REFERENCE_DIR / f"{name}.json"
        blas = args.blas_threads or workload.blas_threads(cpus)
        if args.blas_threads:
            reference = workload.reference()
        else:
            reference = {"cases": {}}
        for case in range(CASES):
            extracted, digest = reference_case(workload, case, blas, cpus)
            entry = reference["cases"].setdefault(
                str(case), {"expected": extracted, "sha256": {}})
            problems = compare(extracted, entry["expected"])
            if problems:
                raise SystemExit(f"{name} case {case} with {blas} BLAS threads: {problems}")
            entry["sha256"][str(blas)] = digest
            print(f"{name} case {case}: {blas} BLAS thread(s), sha256 {digest[:16]}")
        # One case per line keeps the file diffable.
        cases = sorted(reference["cases"].items(), key=lambda item: int(item[0]))
        path.write_text('{"cases": {\n' + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}" for key, entry in cases)
            + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
