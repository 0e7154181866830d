#!/usr/bin/env python3
"""Noise-removal experiment: one advertiser watching one site.

Simulates a stable population against an aggressively skewed synthetic
classification, then runs the on-the-fly multi-shot denoiser and writes
the per-epoch metric series (accuracy, precision, TPR, FPR, recovered
profile sizes) as CSV.

Usage:
    python scripts/run_noise_removal.py [--users 10000] [--epochs 30]
        [--seed 1] [--sim-seed 101] [--out noise_removal.csv]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topicsim.denoiser import DenoiserConfig, denoise_site_trajectory
from topicsim.simulator import SimConfig, run_scenario
from topicsim.worlds import aggressive_skew_config, build_world


def _peak_rss_mib() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=10_000)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="world seed")
    parser.add_argument("--sim-seed", type=int, default=101)
    parser.add_argument("--threshold", type=int, default=10)
    parser.add_argument("--out", default="noise_removal.csv")
    args = parser.parse_args()

    t0 = time.perf_counter()
    world = build_world(aggressive_skew_config(args.users, seed=args.seed))
    print(
        f"world: {args.users} users, {world.prevalence.total_domains} domains, "
        f"{world.prevalence.zero_count_topics()} never-observed topics, "
        f"top topic on {world.prevalence.max_count() / world.prevalence.total_domains:.1%} of domains"
    )

    cfg = SimConfig(epochs=args.epochs, sites=("observer.example",), seed=args.sim_seed)
    log = run_scenario(world.population, cfg, world.taxonomy)
    returned = len(log.sites) * len(log.user_ids) * log.epochs * cfg.tau
    print(f"simulated {returned} returned topics "
          f"({log.noisy_slot_fraction():.2%} noisy)")

    traj = denoise_site_trajectory(
        log.site_view("observer.example"),
        world.prevalence,
        DenoiserConfig(threshold=args.threshold),
        world.population,
    )
    Path(args.out).write_text("\n".join(traj.csv_lines()) + "\n", encoding="utf-8")

    for pt in traj.points:
        if pt.epoch in (1, 5, 10, 15, 20, 25, 30):
            m = pt.metrics
            print(
                f"epoch {pt.epoch:>2}: accuracy={m.accuracy:.4f} precision={m.precision:.4f} "
                f"tpr={m.tpr:.4f} fpr={m.fpr:.4f} "
                f"recovered(min/med/max)={pt.min_recovered}/{pt.median_recovered:g}/{pt.max_recovered}"
            )
    print(f"wrote {args.out} ({time.perf_counter() - t0:.1f}s, peak RSS {_peak_rss_mib():.0f} MiB)")


if __name__ == "__main__":
    main()
