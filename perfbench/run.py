#!/usr/bin/env python3
"""Benchmark of the devrating rating engine.

    python3 perfbench/run.py --workload leaderboard --seed 1 --seconds 30 --trace 0

Runs whole rounds over the fixed inputs of one workload (see
workloads.py and README.md) until ``--seconds`` have passed, checks every
rating as it returns against checker.py (and, on ``discrete``, against
stored oracle ratings), and prints one JSON object as its last line of
output.  ``--trace 0`` reports the end-to-end metrics with no tracing
installed; ``--trace 1`` runs every operation untraced and again under
``tracing.Tracer`` and reports the per-layer metrics.  Details and spans
go to ``perfbench/out/``.
"""
import os

# One BLAS thread keeps timings steady next to other work on a small
# machine; HiGHS runs serially under linprog.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_STARTS = 7
ORACLE_TOL = 1e-6
MAX_PROBLEMS = 20

# Measure the sources of this checkout, never an installed copy.
if not (SRC / "devrating" / "__init__.py").is_file():
    sys.exit(f"devrating sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import devrating as dr  # noqa: E402

if Path(dr.__file__).resolve().parent != SRC / "devrating":
    sys.exit(f"imported devrating from {dr.__file__}, not from {SRC}")

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def cold_starts(workload: str) -> list[dict]:
    runs = []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


class Tally:
    """Counts, step times and problems of the operations checked so far.

    Each operation is checked as soon as it returns and then dropped, so
    the process's memory does not grow with the number of operations.
    """

    def __init__(self, workload, refs):
        self.workload, self.refs = workload, refs
        self.attempted = self.failed = self.ratings = self.operations = 0
        self.seconds = 0.0
        self.steps: list[float] = []
        self.problems: list[str] = []  # the first MAX_PROBLEMS
        self.problem_count = 0
        self.failed_refs: set[int] = set()

    def add(self, op: workloads.Operation) -> None:
        self.operations += 1
        self.attempted += op.attempted
        self.ratings += len(op.rated)
        self.seconds += op.seconds
        self.steps += op.step_seconds
        if op.error is not None:
            self.failed += 1
            self.failed_refs.add(op.ref)
        for r in op.rated:
            ratings = r.result.ratings
            if self.workload == "discrete":
                flat, ref = np.concatenate(ratings), self.refs[op.ref]
                if flat.shape != ref.shape or np.max(np.abs(flat - ref)) > ORACLE_TOL:
                    self.failed += 1
                    self.failed_refs.add(op.ref)
                    continue
            found = checker.check_rating(r.game.payoffs, ratings, r.result.equilibrium.probs)
            if r.certificate is not None and not r.certificate.ok():
                found.append(f"certificate fails: {r.certificate.to_dict()}")
            if self.workload == "leaderboard":
                found += checker.check_leaderboard(ratings, workloads.TABLE_COPIES)
            self.problem_count += len(found)
            self.problems += [f"input {op.ref}: {p}" for p in found][: MAX_PROBLEMS - len(self.problems)]


def fingerprint(op: workloads.Operation) -> bytes:
    """Every bit of an operation's ratings and equilibria, and its error."""
    h = hashlib.sha256(repr((op.attempted, op.error)).encode())
    for r in op.rated:
        h.update(r.result.equilibrium.probs.tobytes())
        for x in r.result.ratings:
            h.update(x.tobytes())
    return h.digest()


def measure(workload, seed, inputs, refs, seconds, tracer=None):
    """Whole rounds over ``inputs`` until ``seconds`` have passed.

    With a tracer, each operation runs untraced and then traced, back to
    back; the counts come from the untraced runs, and each traced twin
    must match its untraced run bitwise.  Returns the tally of the
    untraced runs, the traced-to-untraced time ratios, the traced wall
    time and the number of twins that differ.
    """
    tally = Tally(workload, refs)
    ratios, traced_s, differ = [], 0.0, 0
    start = time.perf_counter()
    round_index = 0
    while round_index == 0 or time.perf_counter() - start < seconds:
        for k in workloads.round_order(seed, round_index, len(inputs)):
            op = workloads.run_operation(workload, k, inputs[k])
            tally.add(op)
            if tracer is not None:
                tracer.op = tally.operations - 1
                with tracer:
                    twin = workloads.run_operation(workload, k, inputs[k])
                ratios.append(twin.seconds / op.seconds)
                traced_s += twin.seconds
                differ += fingerprint(twin) != fingerprint(op)
        round_index += 1
    return tally, ratios, traced_s, differ


def p95(values):
    """The 95th percentile, if at least ten samples lie beyond it."""
    return float(np.percentile(values, 95)) if len(values) >= 200 else None


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    starts = cold_starts(args.workload)
    inputs, refs = workloads.setup_inputs(args.workload)

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "cold_starts": starts, "nproc": os.cpu_count()}
    tracer = tracing.Tracer() if args.trace else None
    tally, ratios, traced_s, differ = measure(args.workload, args.seed, inputs, refs, args.seconds, tracer)
    details.update(operations=tally.operations, ratings=tally.ratings, steps=len(tally.steps),
                   rating_p95_s=p95(tally.steps))
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(s["setup_s"] for s in starts), "s"),
            "ratings_per_s": metric(tally.ratings / tally.seconds, "1/s"),
            "rating_p50_s": metric(statistics.median(tally.steps), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        totals = tracer.totals()
        n = max(totals["ratings"], 1)
        layer_s = {layer: totals[f"{layer}_s"] for layer in tracing.LAYER_NAMES}
        metrics = {
            "setup.import_s": metric(statistics.median(s["import_s"] for s in starts), "s"),
            "trace.wall_s": metric(traced_s / n, "s/rating"),
            "trace.overhead": metric(statistics.median(ratios), "ratio"),
            "trace.coverage": metric(sum(layer_s.values()) / traced_s, "ratio"),
            **{f"{layer}_s": metric(seconds / n, "s/rating") for layer, seconds in layer_s.items()},
            "cce.matrix_mb": metric(totals["matrix_mb"], "MB"),
            "rating.lp_calls": metric(totals["lp_calls"] / n, "1/rating"),
            "rating.stages": metric(totals["stages"] / n, "1/rating"),
            "rating.retries": metric((totals["lp_calls"] - totals["stages"]) / n, "1/rating"),
            "rating.rows_per_stage": metric(totals["rows_frozen"] / max(totals["stages"], 1), "rows/stage"),
            "rating.simplex_iters": metric(totals["simplex_iters"] / n, "1/rating"),
            "rating.lp_nnz": metric(totals["lp_nnz"] / n, "1/rating"),
        }
        details.update(traced_wall_s=traced_s, layer_seconds=layer_s, totals=totals)

    problems = tally.problems
    if differ:
        problems.append(f"{differ} traced operations differ bitwise from their untraced runs")
    result = {"correct": not (tally.problem_count or differ), "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}

    details.update(problem_count=tally.problem_count, problems=problems, failed_inputs=sorted(tally.failed_refs), result=result)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:.6g} {m['unit']}")
    for p in problems[:5]:
        print(f"problem: {p}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
