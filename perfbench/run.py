"""ogrlab benchmark: times one workload end to end, or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in
a fresh process (perfbench/workloads.py), so every timed part starts with
empty lru_caches and its set-up covers the interpreter and `import ogrlab`,
as a CLI call does.  Repetitions run one after another (a closed loop with
one caller) until the next one would end after S seconds; the first always
runs, and an end-to-end run makes at least two.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, its times in seconds at reference speed (speedprobe.py);
with --trace 1 each repetition runs untraced and then traced on the same
inputs, without the probe, and the run reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedprobe import NOMINAL_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
NOMINAL_MS = NOMINAL_NS / 1e6
HARD_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUPS = 5  # set-up samples per run; set-up-only processes fill the gap
MIN_REPS = 2  # repetitions per end-to-end run: item latencies combine two
# one thread per process: the workloads are single-caller closed loops
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def git_sha():
    """HEAD's commit read from .git in the checkout, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, **CHILD_ENV)

    def spawn(self, rep: int, trace: bool = False, probe: bool = False,
              setup_only: bool = False) -> dict:
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"run exceeded {HARD_LIMIT_S} s")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--rep", str(rep)]
        if trace:
            cmd.append("--trace")
        if probe:
            cmd.append("--probe")
        if setup_only:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition {rep} did not end within the {HARD_LIMIT_S} s limit")
        if proc.returncode != 0:
            raise BenchError(f"repetition {rep} exited with {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, seconds: float, one, at_least: int = 1):
        """Call one(rep) at least `at_least` times, then until the next call
        would end after `seconds`."""
        results, durations = [], []
        while True:
            start = time.monotonic()
            results.append(one(len(results)))
            durations.append(time.monotonic() - start)
            if (len(results) >= at_least and
                    time.monotonic() - self.started + statistics.median(durations) > seconds):
                return results


def tail_rank(items: int):
    """The highest percentile that leaves at least ten items of one
    repetition beyond it."""
    if items <= 10:
        raise BenchError(f"{items} items per repetition leave no tail percentile")
    return 100.0 * (items - 10) / items


def percentile(values, q: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_latencies(reps, items):
    """The item latencies the tail is taken on, and how they were formed.

    Where the seed changes nothing, every repetition does the same items in
    the same order, and an item's latency is the lower of its two latencies
    in the first two repetitions: a burst of host noise slows the items it
    lands on in one repetition only, so it does not reach the tail.  Always
    two, because the least of more repetitions would make the latencies
    depend on how many repetitions fit in the run.  Otherwise they are the
    run's `items`, all repetitions pooled."""
    if reps[0]["seed_changes_inputs"]:
        return items, f"all {len(items)} items of the run"
    pairs = zip(reps[0]["latencies_ns"], reps[1]["latencies_ns"], strict=True)
    return [min(pair) for pair in pairs], "each item's lower latency of the first two repetitions"


def end_to_end(runner: Runner, seconds: float, notes: list):
    reps = runner.repeat(seconds, lambda i: runner.spawn(i, probe=True), MIN_REPS)
    setups = reps + [runner.spawn(i, probe=True, setup_only=True)
                     for i in range(len(reps), MIN_SETUPS)]
    per_rep = len(reps[0]["latencies_ns"])
    q = tail_rank(per_rep)
    items = [ns for r in reps for ns in r["latencies_ns"]]
    tail_items, how = tail_latencies(reps, items)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(len(r["latencies_ns"]) / r["wall_s"] for r in reps),
        "item_p50_ms": percentile(items, 50) / 1e6,
        "item_tail_ms": percentile(tail_items, q) / 1e6,
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes.append(f"wall_s, items_per_s, peak_rss_mb: median of {len(reps)} repetitions of "
                 f"{per_rep} items; item_p50_ms: median of all {len(items)} items of the "
                 f"run; item_tail_ms: p{q:.2f}, the highest percentile with at least ten "
                 f"items of a repetition beyond it, of {how}")
    notes.append(f"setup_s: median of {len(setups)} process starts")
    notes.append(
        f"times are at reference speed; raw medians: wall "
        f"{statistics.median(r['raw_wall_s'] for r in reps):.4g} s, set-up "
        f"{statistics.median(r['raw_setup_s'] for r in setups):.4g} s; "
        f"reference probe median {statistics.median(r['probe_ms'] for r in reps):.4g} ms, "
        f"nominal {NOMINAL_MS:g} ms")
    return reps, metrics


def per_layer(runner: Runner, seconds: float, units: dict, notes: list):
    pairs = runner.repeat(seconds, lambda i: (runner.spawn(i), runner.spawn(i, trace=True)))
    traced = [t for _, t in pairs]
    metrics = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        if unit == "s":
            metrics[name] = statistics.median(t["trace"][name] for t in traced)
        else:  # counts, ratios and sizes of repetition 0 repeat exactly
            metrics[name] = traced[0]["trace"][name]
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    metrics["trace.unattributed_s"] = statistics.median(
        t["wall_s"] - t["trace_self_s"] for t in traced)
    notes.append(f"{len(pairs)} untraced/traced pairs on the same inputs; times are "
                 f"medians over the traced runs, counts come from repetition 0")
    return [r for pair in pairs for r in pair], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="checked by workloads.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ogrlab" / "__init__.py").is_file():
        print(f"no ogrlab source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    runner = Runner(args.workload, args.seed)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(), "cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }
    notes = []
    try:
        if args.trace:
            reps, metrics = per_layer(runner, args.seconds, units, notes)
        else:
            reps, metrics = end_to_end(runner, args.seconds, notes)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    meta["seed_changes_inputs"] = reps[0]["seed_changes_inputs"]
    meta["versions"] = reps[0]["versions"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    verdicts = {json.dumps(r["verdict"], sort_keys=True) for r in reps}
    print("meta " + json.dumps(meta))
    print("verdicts " + " | ".join(sorted(verdicts)))
    for name, value in metrics.items():
        print(f"{name:48s} {value:>14.6g} {units[name]}")
    print(f"{'fail_ratio':48s} {failed / attempted:>14.6g} ({failed} of {attempted} checks failed)")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
