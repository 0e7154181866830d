#!/usr/bin/env python3
"""Cross-site tracking experiment: two colluding advertisers.

For each population size, simulates both advertisers' views across the
requested epochs, recovers per-user genuine sets on each side, matches
users by maximal topic overlap, and reports the proportion uniquely
re-identified and matched better than random. Emits one CSV per
population size plus a sweep summary.

Usage:
    python scripts/run_cross_site_tracking.py [--sizes 1000 10000]
        [--epochs 30] [--seed 1] [--sim-seed 101] [--out-dir tracking_out]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topicsim.cli import REPORTED_EPOCHS
from topicsim.denoiser import DenoiserConfig
from topicsim.reidentify import run_reidentification
from topicsim.simulator import SimConfig, run_scenario
from topicsim.worlds import build_world, wide_pool_config


def _peak_rss_mib() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[1_000, 10_000])
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="world seed")
    parser.add_argument("--sim-seed", type=int, default=101)
    parser.add_argument("--out-dir", default="tracking_out")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = [e for e in REPORTED_EPOCHS if e <= args.epochs] or [args.epochs]

    summary = ["n_users,epoch,unique_rate,better_than_random_rate"]
    for n in args.sizes:
        t0 = time.perf_counter()
        world = build_world(wide_pool_config(n, seed=args.seed))
        world_s = time.perf_counter() - t0
        cfg = SimConfig(epochs=args.epochs, sites=("wa.example", "wb.example"), seed=args.sim_seed)
        log = run_scenario(world.population, cfg, world.taxonomy)
        rep = run_reidentification(
            log, "wa.example", "wb.example", world.prevalence, DenoiserConfig(),
            report_epochs=epochs,
        )
        (out_dir / f"reid_{n}.csv").write_text("\n".join(rep.csv_lines()) + "\n", encoding="utf-8")
        for e in rep.epochs:
            lines = rep.k_cdf_csv_lines(e)
            (out_dir / f"kcdf_{n}_epoch_{e:02d}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            summary.append(
                f"{n},{e},{rep.unique_rate_at(e):.6f},{rep.better_than_random_at(e):.6f}"
            )
        last = rep.epochs[-1]
        print(
            f"n={n}: epoch 1 unique={rep.unique_rate_at(epochs[0]):.3f}, "
            f"epoch {last} unique={rep.unique_rate_at(last):.3f} "
            f"(+{rep.better_than_random_at(last):.3f} better than random) "
            f"[{time.perf_counter() - t0:.1f}s, world {world_s:.1f}s, peak RSS {_peak_rss_mib():.0f} MiB]"
        )
    (out_dir / "sweep_summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    print(f"wrote {out_dir}/sweep_summary.csv")


if __name__ == "__main__":
    main()
