"""synthrf benchmark entry point.

    python3 perfbench/run.py --workload cdma_scene --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory.  With ``--trace 0`` it prints every end-to-end metric named in
BENCHMARK.json, with ``--trace 1`` every per-layer metric.  Lines starting
with ``#`` describe the machine and the run; the last line of standard
output is the result object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class Runner:
    """Starts the bench's child processes under one deadline, in one work dir."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **THREAD_ENV)

    def _run(self, extra: list[str]) -> None:
        cmd = [sys.executable, str(HERE / "work.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--workdir", str(self.workdir),
               "--sizes", self.args.sizes, *extra]
        subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))

    def setup_s(self) -> float:
        """Median time to start an interpreter, import, and write the inputs."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self._run(["--setup-only"])
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def work(self, budget_s: float, trace: bool) -> dict:
        result = self.workdir / ("traced.json" if trace else "untraced.json")
        self._run(["--budget", str(budget_s), "--result", str(result)]
                  + (["--trace"] if trace else []))
        return json.loads(result.read_text())


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    setup = runner.setup_s()
    res = runner.work(seconds, trace=False)
    values = dict(res["metrics"], setup_s=setup, peak_rss_mib=res["peak_rss_mib"])
    return values, [res]


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    # the traced process adds one pass under tracemalloc after its timed passes
    plain = runner.work(seconds / 3, trace=False)
    traced = runner.work(seconds / 3, trace=True)
    if not (plain["pass_walls"] and traced["pass_walls"]):  # the first pass failed
        return {}, [plain, traced]
    n = len(traced["pass_walls"])
    values = {}
    for name, agg in traced["layers"].items():
        for quantity, value in agg.items():
            values[f"{name}.{quantity}"] = value if quantity == "peak_alloc_mib" else value / n
    epochs = values.get("receiver.track.epochs", 0)
    values["receiver.track.us_per_epoch"] = (
        values["receiver.track.s"] / epochs * 1e6 if epochs else 0.0)
    # fidelity and the trial-time distribution come from the untraced run,
    # which tracing cannot touch
    values.update((k, v) for k, v in plain["metrics"].items()
                  if k.startswith(("fidelity.", "trial_ms.", "trials_per_s")))
    traced_wall = min(traced["pass_walls"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - min(plain["pass_walls"])
    bench_s, span_s, self_sum_s = traced["synthesize"]
    if span_s:
        traced["info"].update(synthesize_wall_s=bench_s / n, synthesize_span_s=span_s / n,
                              synthesize_self_sum_s=self_sum_s / n)
    return values, [plain, traced]


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = []
    for idx in caches:
        try:
            levels.append((int((idx / "level").read_text()), (idx / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        info["llc"] = "L{} {}".format(*max(levels))
    return info


def _terminate(signum, frame):
    # raising here makes subprocess.run kill and reap the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="synthrf benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=("full", "small"), default="full",
                    help="'small' shrinks every scene, for the self-test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "synthrf" / "__init__.py").is_file():
        print(f"error: no synthrf source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir)
        measure = per_layer if args.trace else end_to_end
        values, results = measure(runner, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: bench process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and attempted > 0
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            if correct:
                print(f"error: metric {m['name']} was not measured", file=sys.stderr)
                return 1
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    env = dict(machine_info(), **THREAD_ENV, **results[0]["versions"],
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, setup_repeats=SETUP_REPEATS, sizes=results[0]["sizes"])
    print("# env " + json.dumps(env))
    for r in results:
        print("# info " + json.dumps(r["info"]))
        for note in r["failures"]:
            print("# failure " + note)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
