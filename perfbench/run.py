#!/usr/bin/env python3
"""topicsim benchmark: end-to-end and per-layer figures for one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload tracking --seed 1 --seconds 55 --trace 0

Each round of the workload runs in a fresh process (workloads.py) that
builds its world from `--seed`, runs the attack and checks the outputs.
A new round starts only while it is expected to end within `--seconds`
(judged by the longest round so far), and every figure is the median
of the run's samples. With `--trace 1`, untraced and traced rounds alternate: the
traced ones give the per-layer metrics, both give `trace.overhead_s`. The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--smoke` runs the same steps and checks at tiny sizes, in seconds.
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
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RUNS_DIR = REPO / ".perfbench_runs"
THREADS = min(2, os.cpu_count() or 1)  # BLAS threads and CLI --workers
TIME_LIMIT_S = 170.0  # a run stops starting rounds that would end after this
SIM_SEED_OFFSET = 100  # simulation seed = world seed + this

sys.path.insert(0, str(BENCH_DIR))
from tracer import now  # noqa: E402
from workloads import PROBES, WORKLOADS, operations  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(REPO / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": str(THREADS),
        "OMP_NUM_THREADS": str(THREADS),
        "MKL_NUM_THREADS": str(THREADS),
    })
    return env


def run_round(args, workdir: Path, traced: bool, timeout: float) -> dict:
    """One round in a fresh process; a crash or timeout fails all its operations."""
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", args.workload,
            "--world-seed", str(args.seed), "--sim-seed", str(args.seed + SIM_SEED_OFFSET),
            "--size", "smoke" if args.smoke else "full", "--workers", str(THREADS),
            "--workdir", str(workdir)]
    if traced:
        argv.append("--trace")
    start = now()
    proc = subprocess.Popen(argv + ["--launched", repr(start)], env=child_env(), cwd=REPO,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    wall = now() - start
    sys.stderr.write(err.decode(errors="replace"))
    # Chain artifacts are large; keep only the result and span files.
    for big in ("chain", "probe"):
        shutil.rmtree(workdir / big, ignore_errors=True)
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"round in {workdir} ended with exit {proc.returncode}", file=sys.stderr)
        return {"crashed": True, "wall": wall, "traced": traced}
    res = json.loads(result_path.read_text(encoding="utf-8"))
    res.update(crashed=False, wall=wall, traced=traced)
    return res


def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    """Median of each metric over rounds, skipping rounds where a failed stage left it unmeasured."""
    out = {}
    for name, values in samples.items():
        finite = [v for v in values if math.isfinite(v)]
        if finite:
            out[name] = statistics.median(finite)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"world seed; the simulation seed is seed + {SIM_SEED_OFFSET} (cli_chain: master seed)")
    parser.add_argument("--seconds", type=float, required=True, help="time for the rounds of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same steps and checks")
    args = parser.parse_args()

    if not (REPO / "src" / "topicsim" / "cli.py").is_file():
        print(f"error: no topicsim sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    start = now()
    rounds: list[dict] = []
    min_rounds = 2 if args.trace else 1
    while True:
        elapsed = now() - start
        longest = max((r["wall"] for r in rounds), default=0.0)
        if (len(rounds) >= min_rounds and elapsed + longest > args.seconds) or elapsed + longest > TIME_LIMIT_S:
            break
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, run_dir / f"round{len(rounds):02d}", traced,
                                timeout=TIME_LIMIT_S - elapsed))

    ops = operations(args.workload)
    attempted = failed = 0
    correct = True
    for r in rounds:
        attempted += len(ops)
        if r["crashed"]:
            failed += len(ops)
            correct = False
            continue
        failed += len(r["failures"])
        correct &= set(r["failures"]) <= set(PROBES)

    plain = [r for r in rounds if not r["crashed"] and not r["traced"]]
    traced = [r for r in rounds if not r["crashed"] and r["traced"]]
    values: dict[str, float] = {}
    if plain and not args.trace:
        values = medians({m: [r[m] for r in plain] for m in ("setup_s", "study_s", "peak_rss_mb")})
    elif plain and traced:
        values = medians({m: [r["layers"][m] for r in traced] for m in traced[0]["layers"]})
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in plain))
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print(f"absent layer targets (their metrics read 0): {absent}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        correct = False
    (run_dir / "rounds.json").write_text(json.dumps(rounds), encoding="utf-8")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
