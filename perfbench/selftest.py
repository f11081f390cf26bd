"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Run from the repository root. Generates two brats_diffuse cases, truncates
one ensemble member file of the second, drives both through the worker as
run.py does, and checks that exactly the planted case's three operations
(fuse, postprocess, evaluate) count as failed, so failed_ratio is 3/6. The
CLI's own report would not show this case at all: a case that fails to
load is missing from both its ``cases`` and its ``summary``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "glioseg" / "cli.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    workload = run.WORKLOADS["brats_diffuse"]
    work = run.HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = None
    try:
        worker = run.Worker(root, netkit=False, log_path=work / "worker.log")
        operations = []
        for index in range(2):
            case_dir = work / f"case{index}"
            files = run.cohort.generate_case(workload.kind, 7, index, case_dir)
            if index == 1:
                member = files.member_dirs[2] / (files.case + run.cohort.LABEL_SUFFIX)
                data = member.read_bytes()
                member.write_bytes(data[: len(data) // 2])
                planted = files.case
            case_run = run.run_case(worker, workload, files.case, files, case_dir / "out", False)
            operations += case_run.operations
        worker.request({"quit": None})
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in operations if not op.ok]
    failed_ratio = len(failed) / len(operations)
    for op in failed:
        print(f"failed: {op.case} {op.stage}: {op.reason}")
    expected = {(planted, stage) for stage in workload.stages}
    ok = {(op.case, op.stage) for op in failed} == expected and failed_ratio == 0.5
    print(f"failed_ratio {failed_ratio} over {len(operations)} operations: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
