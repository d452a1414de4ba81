"""Wall-clock serving benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 wallbench/run.py --workload chat_window_shared --seed 1 --seconds 30 --trace 0

``--trace 0`` replays the workload untraced and reports the end-to-end
metrics; ``--trace 1`` replays half as much work twice, untraced and then
with every layer wrapped, and reports the per-layer metrics, writing the
spans as Chrome trace-event JSON under ``wallbench/out/``.  Outputs are
checked after the timed phase; the last line of standard output is the
JSON result.  ``wallbench/all.sh SEED`` runs every workload both ways.
See ``wallbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before NumPy loads: the box has two cores and the
# benchmark's single thread of control must not race a BLAS pool for them.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _result_names(trace: int) -> list[str]:
    """Metric names the result line carries, as ``BENCHMARK.json`` declares
    them.  Printed-only metrics stay out: ``ttft_p90_s`` exists only where a
    run has ten samples beyond p90, and ``failed_frac`` is the result line's
    ``failed / attempted``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")


def _print_layer_table(tracer, wall: float) -> None:
    rows = tracer.by_name()
    print("== per-layer spans (traced run)")
    print(f"  {'span':24s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} {'self%':>7s}")
    total_self = 0.0
    for name in sorted(rows):
        row = rows[name]
        total_self += row["self_s"]
        print(
            f"  {name:24s} {row['calls']:8d} {row['busy_s']:10.4f} "
            f"{row['self_s']:10.4f} {100 * row['self_s'] / wall:6.2f}%"
        )
    gaps = wall - tracer.root_time()
    print(
        f"  self total {total_self:.4f} s + untraced gaps {gaps:.4f} s = "
        f"{total_self + gaps:.4f} s; wall {wall:.4f} s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "repro", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from wallbench.check import check_outputs, check_parity
    from wallbench.probes import Probes
    from wallbench.replay import build_engine, end_to_end, failed_count, replay, timed_setup
    from wallbench.spans import Tracer
    from wallbench.workloads import make_workload

    # A traced run replays twice (untraced, then traced), each over half the
    # work, so it costs about as much as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = make_workload(args.workload, args.seed, seconds)
    print(
        f"workload {workload.name} seed {args.seed} sized for {seconds:g} s: "
        f"{len(workload.requests)} requests, {workload.arrival} loop, BLAS threads {BLAS_THREADS}"
    )
    model, engine, setup_s = timed_setup(workload)
    untraced = replay(engine, workload)
    e2e, samples = end_to_end(untraced)
    e2e["setup_s"] = (setup_s, "s")
    problems, notes = check_outputs(model, untraced, args.seed)

    metrics = e2e
    if args.trace:
        model, engine = build_engine(workload)
        tracer = Tracer()
        probes = Probes(engine, tracer)
        try:
            origin = tracer.clock()
            traced = replay(engine, workload)
            wall = tracer.clock() - origin
        finally:
            probes.remove()
        problems += check_parity(traced, untraced)
        metrics = probes.metrics(traced, untraced)
        _print_layer_table(tracer, wall)
        out_dir = ROOT / "wallbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{workload.name}-seed{args.seed}.trace.json"
        tracer.write_chrome(path, origin)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    for note in notes:
        print(f"check: {note}")
    print(f"samples: {samples}")
    _print_metrics("end-to-end (untraced)", e2e)
    if args.trace:
        _print_metrics("per-layer (traced)", metrics)
    result = {
        "correct": not problems,
        "attempted": len(untraced.states),
        "failed": failed_count(untraced),
        "metrics": {},
    }
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        result["metrics"] = {
            name: {"value": float(metrics[name][0]), "unit": metrics[name][1]}
            for name in _result_names(args.trace)
        }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
