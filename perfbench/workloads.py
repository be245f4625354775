"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --rep R \
        [--probe | --trace] [--setup-only]

Set-up (interpreter start, `import ogrlab`, input generation) runs from
the start of the process to the start of the timed part.  The timed part is
one closed loop on one thread.  All times are that thread's CPU time
(speedprobe.clock); with --probe, they are converted to seconds at
reference speed (speedprobe.py).  The last line of
standard output is a JSON object with the set-up and wall time, per-item
latencies, peak memory, the count of correctness checks attempted and
failed, a verdict summary and, with --trace, the per-layer metrics of
tracer.py.

The workload seed changes the inputs of vanish-3-7 (the sample-point
seeds) and cell-dims-2-6 (the numeric start seed) only; span-3-10 and
ortho-enum-3-7 are fixed computations.  Repetition R of a run gets its own
inputs derived from (seed, R), so one run averages over several inputs.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path

import speedprobe

# started before the heavy imports, so that set-up is probed too
PROBE = speedprobe.Probe() if __name__ == "__main__" and "--probe" in sys.argv[1:] else None
if PROBE is not None:
    PROBE.start()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import ogrlab  # noqa: E402
from ogrlab import (  # noqa: E402
    acceptance, exact_core, forms_points, ideal_gens, orthopositroids, weyl,
)
from ogrlab.forms_points import QuadraticForm  # noqa: E402

from tracer import Tracer  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())

# lru_caches a CLI call starts without; every timed part starts with them empty
CACHES = [
    orthopositroids.enumerate_positroids,
    orthopositroids.enumerate_orthopositroids,
    ideal_gens.plucker_relations,
    ideal_gens._relation_span,
    exact_core.ksubsets,
    weyl._root_data,
]

# criterion 2's pinned parameters (acceptance.criterion_02_dimension_histogram)
CELL_DIMS = dict(tol=1e-8, cutoff=1e-4, starts=32, retry_starts=128, workers=1)

VANISH_POINTS = 40  # sample points per vanish-3-7 repetition

clock = speedprobe.clock  # the main thread's CPU time, as the probe's


class Checks:
    """Correctness checks of one repetition: attempted, failed, summary."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdict = {}

    def expect(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


def fixed_inputs(seed: int, rep: int):
    """Inputs of a fixed computation: the seed changes nothing."""
    return None


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    # a string seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{rep}")


def _time_each(owner, name: str, sink: list):
    """Record (first argument, start, end) of every call of owner.name;
    returns the function that restores the original."""
    func = getattr(owner, name)

    def timed(*args, **kwargs):
        start = clock()
        try:
            return func(*args, **kwargs)
        finally:
            sink.append((args[0] if args else None, start, clock()))

    setattr(owner, name, timed)
    return lambda: setattr(owner, name, func)


# -- vanish-3-7: criterion 9's loop -----------------------------------------

def vanish_inputs(seed: int, rep: int):
    rng = _rng("vanish-3-7", seed, rep)
    return [rng.randrange(2 ** 32) for _ in range(VANISH_POINTS)]


def vanish_run(point_seeds, items: list):
    k, n = 3, 7
    std, alt = QuadraticForm.standard(n), QuadraticForm.alternating(n)
    gens = list(ideal_gens.plucker_relations(k, n))
    gens += ideal_gens.orthogonality_relations(k, n, std)
    gens += [poly for _, _, poly in ideal_gens.all_straightening_mu(k, n)]
    gens += [poly for _, _, poly in ideal_gens.all_straightening_lambda(k, n)]
    alt_gens = ideal_gens.orthogonality_relations(k, n, alt)
    alt_gens += ideal_gens.plucker_relations(k, n)
    bad = 0
    for point_seed in point_seeds:
        start = clock()
        for form, field, polys in ((std, "gaussian", gens), (alt, "rational", alt_gens)):
            try:
                p = forms_points.sample_isotropic(k, n, form, point_seed,
                                                  field=field).plucker()
            except Exception:
                bad += len(polys)
                continue
            for g in polys:
                try:
                    bad += g.evaluate(p) != 0
                except Exception:
                    bad += 1
        items.append([(start, clock())])
    return {"points": len(point_seeds), "evaluations": len(gens) + len(alt_gens), "bad": bad}


def vanish_check(out) -> Checks:
    checks = Checks()
    total = out["points"] * out["evaluations"]
    checks.attempted += total
    checks.failed += out["bad"]
    checks.verdict = {"generators": out["evaluations"], "nonzero_or_raised": out["bad"]}
    return checks


# -- span-3-10: degree-2 span writes, then membership reads -----------------

def span_run(_, items: list):
    k, n = 3, 10
    writes = []
    restore = _time_each(ideal_gens.Degree2Span, "add", writes)
    try:
        report = ideal_gens.groebner_degree2_check(k, n)
    finally:
        restore()
    items.extend([(start, end)] for _, start, end in writes)
    laws = [poly for _, _, poly in ideal_gens.all_straightening_mu(k, n)]
    laws += [poly for _, _, poly in ideal_gens.all_straightening_lambda(k, n)]
    members = []
    for law in laws:
        start = clock()
        members.append(bool(ideal_gens.degree2_membership(law, k, n)))
        items.append([(start, clock())])
    return {"report": report, "members": members}


def span_check(out) -> Checks:
    want = GOLDEN["span-3-10"]
    report, members = out["report"], out["members"]
    checks = Checks()
    for flag in ("ok", "leading_monomials_match", "rank_matches", "standard_matches_weyl"):
        checks.expect(report[flag] is True)
    checks.expect(report["span_rank"] == want["span_rank"])
    checks.expect(report["standard_count"] == want["standard_count"])
    checks.expect(len(members) == want["laws"])
    for member in members:
        checks.expect(member)
    checks.verdict = {"report_ok": report["ok"], "span_rank": report["span_rank"],
                      "laws_in_span": sum(members)}
    return checks


# -- ortho-enum-3-7: positroid enumeration and the pair test ----------------

def _dperm_key(dperm_json) -> tuple:
    return tuple(dperm_json["word"]), tuple(dperm_json["coloops"])


def ortho_run(_, items: list):
    verdicts = []
    positroids = list(orthopositroids.enumerate_positroids(3, 7))
    # the slowest tests sit together in enumeration order; a fixed shuffle
    # spreads them over the run, so a brief stall of the machine cannot
    # make the whole tail
    random.Random("ortho-enum-3-7").shuffle(positroids)
    for positroid in positroids:
        start = clock()
        verdict = orthopositroids.is_orthopositroid(positroid).verdict
        items.append([(start, clock())])
        verdicts.append((positroid, verdict))
    return {"verdicts": verdicts}


def ortho_check(out) -> Checks:
    want = GOLDEN["ortho-enum-3-7"]
    golden = {_dperm_key(d) for d in want["orthopositroids"]}
    checks = Checks()
    checks.expect(len(out["verdicts"]) == want["positroids"])
    passing = set()
    for positroid, verdict in out["verdicts"]:
        key = _dperm_key(positroid.dperm.to_json())
        checks.expect(verdict == (key in golden))
        if verdict:
            passing.add(key)
    checks.verdict = {"positroids": len(out["verdicts"]), "orthopositroids": len(passing),
                      "matches_golden": passing == golden}
    return checks


# -- cell-dims-2-6: criterion 2's numeric dimension sweep -------------------

def cells_inputs(seed: int, rep: int):
    return _rng("cell-dims-2-6", seed, rep).randrange(2 ** 31)


def cells_run(dims_seed, items: list):
    calls = []
    restore = _time_each(orthopositroids, "cell_dim_in_ogr_numeric", calls)
    try:
        report = orthopositroids.dims_report(2, 6, seed=dims_seed, **CELL_DIMS)
    finally:
        restore()
    # a retry solves the same cell again: one item per cell
    previous = None
    for positroid, start, end in calls:
        if positroid is previous:
            items[-1].append((start, end))
        else:
            items.append([(start, end)])
        previous = positroid
    return {"total": report["total"], "resolved": report["resolved"],
            "histogram": report["histogram"]}


def cells_check(out) -> Checks:
    checks = Checks()
    checks.attempted += out["total"]
    checks.failed += out["total"] - out["resolved"]
    checks.expect(out["histogram"] == acceptance.EXPECTED_DIM_HISTOGRAM)
    checks.verdict = {"cells": out["total"], "resolved": out["resolved"],
                      "histogram": out["histogram"]}
    return checks


WORKLOADS = {
    "vanish-3-7": (vanish_inputs, vanish_run, vanish_check),
    "span-3-10": (fixed_inputs, span_run, span_check),
    "ortho-enum-3-7": (fixed_inputs, ortho_run, ortho_check),
    "cell-dims-2-6": (cells_inputs, cells_run, cells_check),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--probe", action="store_true", help="report reference-speed times")
    group.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if Path(ogrlab.__file__).resolve().parent != (SRC / "ogrlab").resolve():
        raise SystemExit(f"imported ogrlab from {ogrlab.__file__}, not from {SRC}")
    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.rep)
    for cache in CACHES:
        cache.cache_clear()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    if any(cache.cache_info().currsize for cache in CACHES):
        raise SystemExit("an lru_cache is not empty at the start of the timed part")
    items = []
    start = clock()
    if not args.setup_only:
        out = run(inputs, items)
    end = clock()
    timeline = PROBE.stop() if PROBE is not None else speedprobe.RawTimeline
    setup_s = timeline.span(0, start) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": start / 1e9}))
        return 0
    if tracer is not None:
        tracer.uninstall()
    checks = check(out)
    result = {
        "setup_s": setup_s,
        "raw_setup_s": start / 1e9,
        "wall_s": timeline.span(start, end) / 1e9,
        "raw_wall_s": (end - start) / 1e9,
        "probe_ms": timeline.probe_ms(),
        "latencies_ns": [sum(timeline.span(a, b) for a, b in item) for item in items],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "verdict": checks.verdict,
        "seed_changes_inputs": make_inputs is not fixed_inputs,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_self_s"] = tracer.self_seconds()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
