"""One bench process: runs passes of a workload for a time budget and writes
its measurements as JSON.  Started by run.py, one fresh process per run, so
peak RSS is this workload's own.

    python3 perfbench/work.py --workload cdma_scene --seed 1 --budget 20 \
        --workdir DIR --result DIR/result.json [--trace] [--sizes small]
    python3 perfbench/work.py --setup-only --workload cdma_scene --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_PASSES = 200


def import_program():
    """Import synthrf from this checkout's source tree, and only from there."""
    sys.path.insert(0, str(SRC))
    import synthrf
    if Path(synthrf.__file__).resolve().parent != SRC / "synthrf":
        raise ImportError(f"synthrf resolved to {synthrf.__file__}, not {SRC}")
    return synthrf


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when fewer than eleven samples exist."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def host_fft_ms(np) -> float:
    """Median time of one fixed 38192-point FFT: a yardstick of host speed
    that no change to the program can move."""
    x = np.exp(0.1j * np.arange(38192))
    out = np.empty_like(x)  # no allocation, so no page faults, in the loop
    times = []
    for _ in range(50):
        t0 = time.perf_counter()
        np.fft.fft(x, out=out)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_passes(workload, budget_s: float) -> None:
    """Run whole passes while the next one is expected to end within budget."""
    t0 = time.perf_counter()
    for index in range(MAX_PASSES):
        workload.run_pass(index)
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / (index + 1)
        if workload.outcome.failed or elapsed + per_pass > budget_s:
            break


def summarize(workload) -> dict:
    """End-to-end timings add up the fastest time of each step of a trial
    over the run.  Other tenants of the host slow this process by up to half
    for a second or so at a time, and the share of a run they take changes
    from run to run; a median moves with that share, while the minimum of a
    short step over many trials stays put.  The median and the tail of the
    whole trials are kept as per-layer figures."""
    trials = workload.trials
    if not workload.pass_walls:  # the first pass failed
        return {}
    fastest = {step: min(t["steps"][step] for t in trials) for step in trials[0]["steps"]}
    ms = [t["ms"] for t in trials]
    pct, tail_ms = tail(ms)
    workload.info.update(passes=len(workload.pass_walls), trials=len(ms),
                         tail_percentile=round(pct, 1),
                         fastest_step_s={k: round(v, 4) for k, v in fastest.items()})
    return {
        "wall_s": sum(fastest.values()),
        "synth_samples_per_s": trials[0]["samples"] / sum(
            fastest[step] for step in workload.SYNTH_STEPS),
        "rx_s": sum(fastest[step] for step in workload.RX_STEPS),
        "trials_per_s": len(ms) / (sum(ms) / 1e3),
        "trial_ms.p50": statistics.median(ms),
        "trial_ms.tail": tail_ms,
        **workload.fidelity(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--sizes", default="full")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import tracer as tracing
    import workloads
    import numpy
    import scipy

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](
        args.workdir, args.seed, workloads.SIZES[args.sizes], tracer)
    workload.write_inputs()
    if args.setup_only:
        return 0

    fft_before = host_fft_ms(numpy)
    tracer.start(memory=False)
    run_passes(workload, args.budget)
    spans = tracer.stop()
    workload.info["host_fft_ms"] = [round(fft_before, 4), round(host_fft_ms(numpy), 4)]
    result = {"metrics": summarize(workload), "pass_walls": list(workload.pass_walls)}
    if args.trace:
        result["layers"] = tracing.aggregate(spans)
        # the synthesize command timed from the bench, and its span subtree
        result["synthesize"] = [sum(t["steps"].get("synthesize", 0.0)
                                    for t in workload.trials),
                                *tracing.subtree_self_sum(spans, "cli.main.synthesize")]
        # one more pass under tracemalloc, for allocation peaks only
        tracer.start(memory=True)
        workload.run_pass(len(workload.pass_walls))
        peaks = tracing.aggregate(tracer.stop())
        for name, agg in result["layers"].items():
            agg["peak_alloc_mib"] = peaks.get(name, agg)["peak_alloc_mib"]

    result.update({
        "attempted": workload.outcome.attempted,
        "failed": workload.outcome.failed,
        "failures": workload.outcome.notes[:20],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info": workload.info,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "sizes": workloads.SIZES[args.sizes],
    })
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
