"""Self-test of the output checks: each must fail on a corrupted real output.

    python3 perfbench/selftest.py

Runs one round of every workload with seed 1, confirms that the checks
pass on its real output, then corrupts a copy of that output in each of
four ways and confirms that the checks fail on every copy: one V raised above c, one
response-derived value perturbed (a response xstar in a flow trajectory,
a tracking error in a TTSA trajectory), one row dropped from a trajectory
CSV, and one verify check marked failed. Exits 1 if a real output fails
its checks or a corruption goes unnoticed.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

from workloads import WORKLOADS, RoundResult, check_round, execute  # noqa: E402

SEED = 1   # one of the benchmark's seeds

# Per workload: the trajectory to corrupt, the response column, and the row
# whose response the checks recompute (the sweep checks the final sample).
TARGETS = {
    "ttsa-aggregative-5": ("ttsa-ne/ttsa_run_000.csv", "tracking_error", 50),
    "sweep-oscillator-2": ("sweep/ttsa_run_003.csv", "tracking_error", -1),
    "scale-aggregative-6": ("flow/flow_run_000.csv", "xstar_1", 50),
}


def edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def corruptions(csv_name: str, column: str, row: int):
    def raise_v(out):
        def edit(header, rows):
            rows[row][header.index("V")] = "100"   # every level c here is below 2
        edit_csv(out / csv_name, edit)

    def perturb_response(out):
        def edit(header, rows):
            i = header.index(column)
            value = float(rows[row][i])
            rows[row][i] = repr(value + 1e-6 * (1.0 + abs(value)))
        edit_csv(out / csv_name, edit)

    def drop_row(out):
        def edit(header, rows):
            del rows[len(rows) // 2]
        edit_csv(out / csv_name, edit)

    def fail_verify_check(out):
        path = out / "verify" / "verify_report.json"
        report = json.loads(path.read_text())
        report["report"][-1]["passed"] = False
        path.write_text(json.dumps(report))

    return {f"V raised above c in {csv_name}": raise_v,
            f"{column} perturbed by 1e-6 in {csv_name}": perturb_response,
            f"row dropped from {csv_name}": drop_row,
            "verify check marked failed": fail_verify_check}


def check_copy(workload, real: RoundResult, round_dir: Path) -> list:
    fresh = RoundResult(seconds=real.seconds, codes=real.codes)
    return check_round(workload, fresh, round_dir).problems


def main() -> int:
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    failures = 0
    try:
        for name, workload in WORKLOADS.items():
            real_dir = work / name / "real"
            real = execute(workload, SEED, real_dir)
            problems = check_copy(workload, real, real_dir)
            print(f"{name}: real output: {'FAIL ' + problems[0] if problems else 'pass'}")
            failures += bool(problems)
            for i, (label, corrupt) in enumerate(corruptions(*TARGETS[name]).items()):
                copy_dir = work / name / f"copy-{i}"
                shutil.copytree(real_dir, copy_dir)
                corrupt(copy_dir / "out")
                problems = check_copy(workload, real, copy_dir)
                verdict = f"caught: {problems[0]}" if problems else "NOT CAUGHT"
                print(f"{name}: {label}: {verdict}")
                failures += not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # a benchmark run still uses it
    print("selftest " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
