"""Benchmark of socialgrad: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload ttsa-aggregative-5 --seed 1 \\
        --seconds 20 --trace 0

Imports socialgrad from ``src/`` beside this directory, then runs whole
rounds of the workload (its ``verify`` command, then its experiment
commands) as long as they fit in ``--seconds``, and checks every round's
outputs. Before each untraced round, one cold set-up is timed in a fresh
interpreter. Outputs go to a scratch directory under ``.perfbench-work/``
that is removed on exit. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of traced rounds, which alternate with untraced ones. See
README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# Every workload runs with jobs = 1 in one process; one BLAS thread keeps a
# small shared machine from timing its scheduler. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(SRC))
try:
    import socialgrad  # noqa: E402
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import socialgrad from {SRC}: {exc}")
if Path(socialgrad.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"perfbench: socialgrad was imported from {socialgrad.__file__}, "
                     f"not from {SRC}")

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_round, execute  # noqa: E402

# Metric names and units, as BENCHMARK.json declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

# One set-up in a fresh interpreter: the imports are not timed, the first
# call of set_up is. Each set-up is cold, so a cache that a later version
# keeps between calls cannot hide its cost.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
from workloads import WORKLOADS, set_up
workload = WORKLOADS[{name!r}]
start = time.perf_counter()
set_up(workload, {seed})
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_round(workload, seed, work, index, tracer=None):
    """Execute and check one round, then delete its outputs."""
    round_dir = work / f"round-{index:03d}"
    try:
        if tracer is None:
            result = execute(workload, seed, round_dir)
        else:
            with tracer:
                result = execute(workload, seed, round_dir)
        return check_round(workload, result, round_dir)
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)


def cold_setup_s(workload, seed):
    """Seconds of one set-up in a fresh interpreter (see SETUP_CHILD)."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=workload.name, seed=seed)
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True)
    return float(child.stdout.split()[-1])


def run_rounds(workload, seed, seconds, work, trace):
    """As many whole rounds as fit in ``seconds``, at least one.

    A new round starts only if one more round as long as the last one ends
    within ``seconds``. Without tracing, each round is preceded by one cold
    set-up. With tracing, each untraced round is followed by a traced one,
    so both kinds see the same state of the machine.
    """
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if not trace:
            setups.append(cold_setup_s(workload, seed))
        plain.append(run_round(workload, seed, work, len(plain) + len(traced)))
        if trace:
            tracer = Tracer()
            result = run_round(workload, seed, work, len(plain) + len(traced), tracer)
            traced.append((result, tracer))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return plain, traced, setups


def fastest(rounds):
    """Fastest call of each command over the rounds.

    On a shared host the CPU runs at two speeds, about 1.5x apart, for
    stretches of seconds to minutes; a slow stretch only ever adds time.
    Each command's fastest call is the steadiest estimate of its cost: see
    README.md for the spreads measured with medians and with minima.
    """
    return {label: min(r.seconds[label] for r in rounds) for label in rounds[0].seconds}


def end_to_end(plain, setups):
    best = fastest(plain)
    experiment_s = sum(s for label, s in best.items() if label != "verify")
    steps = statistics.median(r.ttsa_steps + r.flow_steps for r in plain)
    return {
        "wall_s": best["verify"] + experiment_s,
        "setup_s": min(setups),   # fastest, for the reason fastest() gives
        "verify_s": best["verify"],
        "steps_per_s": steps / experiment_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced):
    figures = [layer_metrics(tracer, result) for result, tracer in traced]
    metrics = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    metrics["trace.overhead_s"] = (sum(fastest([r for r, _ in traced]).values())
                                   - sum(fastest(plain).values()))
    return metrics


def describe(workload, seed, plain, traced, setups):
    """Human-readable lines: sample counts, medians and fastest calls."""
    best = fastest(plain)
    lines = [f"perfbench: {workload.name} seed {seed}: {len(plain)} untraced and "
             f"{len(traced)} traced rounds; per command, median and fastest of "
             f"{len(plain)} untraced calls:"]
    if setups:
        lines.append(f"  cold set-up: {statistics.median(setups):.4f} s, "
                     f"{min(setups):.4f} s")
    for label in plain[0].seconds:
        median = statistics.median(r.seconds[label] for r in plain)
        text = f"  {label}: {median:.3f} s, {best[label]:.3f} s"
        steps = plain[0].steps.get(label)
        if steps:
            text += (f"; {steps} steps, {1e6 * median / steps:.1f} and "
                     f"{1e6 * best[label] / steps:.1f} us/step")
        lines.append(text)
    not_traced = sorted({name for _, t in traced for name in t.not_traced})
    if not_traced:
        lines.append(f"  not traced: {', '.join(not_traced)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        plain, traced, setups = run_rounds(workload, args.seed, args.seconds, work,
                                           args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass   # another run still uses it
    rounds = plain + [r for r, _ in traced]
    problems = [p for r in rounds for p in r.problems]
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(describe(workload, args.seed, plain, traced, setups))
    if args.trace:
        values, units = per_layer(plain, traced), LAYER_UNITS
    else:
        values, units = end_to_end(plain, setups), END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
