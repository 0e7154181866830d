"""One run of one workload, in a fresh process: build, attack, check, report.

`run.py` starts this file once per round with the launch time on the
monotonic clock, so set-up time counts interpreter start and imports.
The round's figures and the outcome of each operation go to
`result.json` in `--workdir`. With `--trace`, calls into topicsim's layers
are traced (see tracer.py) and the per-layer metrics join the result.

Operations per round, and what makes one fail (an exception or non-zero
exit fails every operation of the round):
  tracking       16 match reports (8 epochs x 2 directions)
  noise_removal  30 trajectory points
  cli_chain      4 subcommands plus 2 refusal probes; a probe passes only
                 when the program refuses its input with exit code 2
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from tracer import CLI_STAGES, Tracer, install, layer_metrics, now

BENCH_DIR = Path(__file__).resolve().parent
EPOCHS = 30
TAU, T, P = 3, 5, 0.05
REPORT_EPOCHS = (1, 2, 5, 10, 15, 20, 25, 30)
TRACK_SITES = ("wa.example", "wb.example")
OBSERVER = "observer.example"

# Users per workload. "smoke" exercises every step and check in seconds.
SIZES = {
    "full": {"tracking": 8_000, "noise_removal": 30_000, "cli_chain": 3_000},
    "smoke": {"tracking": 2_000, "noise_removal": 10_000, "cli_chain": 300},
}
MATCH_SAMPLE = 500  # users per direction whose argmax group is recomputed
# Both matching directions score the same users, so their unique rates differ
# by sampling noise alone. Over 40 seeds the difference had a standard deviation
# of 0.77 (8k users) and 0.81 (2k users) times sqrt(p(1-p)/n); the symmetry
# check allows four such deviations (see README.md for the per-seed figures).
SYMMETRY_SD = 0.8

# Tiny fixed chain for the refusal probes; independent of --seed on purpose,
# so a probe fails or passes the same way in every round.
PROBE_CONFIG = {"n_users": 40, "n_domains": 2000, "classification": "synthetic:wide-pool",
                "sites": list(TRACK_SITES), "epochs": 6, "seed": 1}
PROBES = ("probe.denoise_seed_mismatch", "probe.reidentify_epoch_mismatch")


def operations(workload: str) -> list[str]:
    """Names of the operations one round attempts, in a fixed order."""
    if workload == "tracking":
        return [f"match.{d}.epoch{e}" for e in REPORT_EPOCHS for d in ("ab", "ba")]
    if workload == "noise_removal":
        return [f"point.epoch{e}" for e in range(1, EPOCHS + 1)]
    return [f"cli.{s}" for s in CLI_STAGES] + list(PROBES)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def binomial_ok(sample: np.ndarray, rate: float) -> bool:
    """Sample share within 4.5 binomial standard errors (plus one count) of rate."""
    s = len(sample)
    return abs(float(sample.mean()) - rate) <= 4.5 * math.sqrt(rate * (1 - rate) / s) + 1.0 / s


# --- tracking ---------------------------------------------------------------


def _sampled_groups(mine: np.ndarray, theirs: np.ndarray, sample: np.ndarray):
    """(k, contains) of the argmax-overlap group for sampled users of `mine`.

    Overlaps are counted by set intersection through an inverted index of
    `theirs` (topic -> users holding it), not by a matrix product.
    """
    n = theirs.shape[0]
    holders = {t: np.flatnonzero(theirs[:, t]) for t in range(theirs.shape[1])}
    k = np.empty(len(sample), dtype=np.int64)
    contains = np.empty(len(sample), dtype=bool)
    for j, u in enumerate(sample):
        topics = np.flatnonzero(mine[u])
        overlap = np.bincount(
            np.concatenate([holders[t] for t in topics] + [np.empty(0, np.int64)]), minlength=n
        )
        best = overlap.max()
        k[j] = int(np.count_nonzero(overlap == best))
        contains[j] = overlap[u] == best
    return k, contains


def check_tracking(log, world, rep, n: int, sim_seed: int) -> dict[str, str]:
    from topicsim.denoiser import DenoiserConfig, MultiShotEngine

    failures: dict[str, str] = {}
    if tuple(rep.epochs) != REPORT_EPOCHS:
        return {op: f"report epochs {rep.epochs}" for op in operations("tracking")}
    omega = world.taxonomy.omega
    la, lb = log.site_view(TRACK_SITES[0]), log.site_view(TRACK_SITES[1])
    engines = [MultiShotEngine(n, omega, world.prevalence, DenoiserConfig()) for _ in range(2)]
    sticky = [np.zeros((n, omega + 1), dtype=bool) for _ in range(2)]
    sample = np.sort(np.random.default_rng(sim_seed).choice(n, size=min(n, MATCH_SAMPLE), replace=False))
    for epoch in range(1, EPOCHS + 1):
        for engine, mask, view in zip(engines, sticky, (la, lb)):
            engine.observe_epoch(epoch, view.topics[:, epoch - 1, :])
            mask |= engine.genuine_matrix()
        if epoch not in REPORT_EPOCHS:
            continue
        i = REPORT_EPOCHS.index(epoch)
        fwd, rev = rep.unique_rates[i], rep.reverse_unique_rates[i]
        p = (fwd + rev) / 2
        symmetry_tol = max(0.01, 4 * SYMMETRY_SD * math.sqrt(p * (1 - p) / n))
        sizes, cdf = rep.k_cdfs[epoch]
        for d, (mine, theirs), rate in (("ab", sticky, fwd), ("ba", sticky[::-1], rev)):
            op, why = f"match.{d}.epoch{epoch}", []
            k, contains = _sampled_groups(mine, theirs, sample)
            if abs(fwd - rev) >= symmetry_tol:
                why.append(f"A->B {fwd:.4f} vs B->A {rev:.4f}, beyond {symmetry_tol:.4f}")
            unique = (k == 1) & contains
            if not binomial_ok(unique, rate):
                why.append(f"unique rate {rate:.4f}, sample {unique.mean():.4f}")
            if d == "ab":
                if not (sizes[0] >= 1 and sizes[-1] <= n and abs(cdf[-1] - 1.0) < 1e-9):
                    why.append(f"k range [{sizes[0]}, {sizes[-1]}]")
                btr = contains & (k > 1) & (k < n)
                if not binomial_ok(btr, rep.better_than_random_rates[i]):
                    why.append(f"better-than-random {rep.better_than_random_rates[i]:.4f}, "
                               f"sample {btr.mean():.4f}")
            if why:
                failures[op] = "; ".join(why)
    return failures


def run_tracking(args, tracer) -> dict:
    from topicsim.denoiser import DenoiserConfig
    from topicsim.reidentify import run_reidentification
    from topicsim.simulator import SimConfig, run_scenario
    from topicsim.worlds import build_world, wide_pool_config

    n = SIZES[args.size]["tracking"]
    world = build_world(wide_pool_config(n, seed=args.world_seed))
    built = now()
    log = run_scenario(world.population, SimConfig(epochs=EPOCHS, sites=TRACK_SITES, seed=args.sim_seed),
                       world.taxonomy)
    rep = run_reidentification(log, *TRACK_SITES, world.prevalence, DenoiserConfig(),
                               report_epochs=REPORT_EPOCHS)
    done = now()
    rss = peak_rss_mb()
    if tracer:
        tracer.recording = False
    return {"built": built, "done": done, "study_s": done - built, "peak_rss_mb": rss,
            "failures": check_tracking(log, world, rep, n, args.sim_seed)}


# --- noise removal ----------------------------------------------------------


def check_noise_removal(site_log, population, traj, n: int) -> dict[int, str]:
    """Failed checks of the trajectory points, by epoch."""
    user_ids = site_log.user_ids
    by_id = {u.user_id: u.top_profile for u in population}
    profiles = np.array([by_id[int(u)] for u in user_ids], dtype=np.int64)
    truth = site_log.truth_topics.astype(np.int64)
    in_profile = (truth[:, :, None] == profiles[:, None, :]).any(axis=2)
    effectively_noisy = site_log.truth_noisy & ~in_profile
    src0 = int(site_log.source_epochs[0])
    seen = np.zeros(truth.shape, dtype=bool)
    rows = np.repeat(np.arange(n), TAU)
    points = {pt.epoch: pt for pt in traj.points}

    failures: dict[int, str] = {}
    for epoch in range(1, EPOCHS + 1):
        returned = site_log.topics[:, epoch - 1, :].ravel() >= 0
        src = site_log.slot_sources[:, epoch - 1, :].ravel().astype(np.int64) - src0
        seen[rows[returned], src[returned]] = True
        if epoch not in points:
            failures[epoch] = "missing trajectory point"
            continue
        pt, why = points[epoch], []
        m = pt.metrics
        draws = int(seen.sum())
        if not (m.tp + m.fp + m.tn + m.fn == draws == n * (epoch + TAU - 1)):
            why.append(f"tp+fp+tn+fn={m.tp + m.fp + m.tn + m.fn}, seen draws {draws}, "
                       f"expected {n * (epoch + TAU - 1)}")
        noisy = int((seen & effectively_noisy).sum())
        if m.tp + m.fn != noisy:
            why.append(f"tp+fn={m.tp + m.fn}, effectively noisy draws {noisy}")
        if epoch == 1 and not (m.tpr >= 0.85 and m.fpr <= 0.06):
            why.append(f"one-shot tpr {m.tpr:.4f} fpr {m.fpr:.4f}")
        if epoch == 10 and not m.tpr > 0.99:
            why.append(f"tpr {m.tpr:.5f} <= 0.99")
        if epoch == 30 and not m.tpr >= 0.999:
            why.append(f"tpr {m.tpr:.5f} < 0.999")
        if epoch == 20 and not pt.median_recovered >= T:
            why.append(f"median recovered {pt.median_recovered} < {T}")
        if why:
            failures[epoch] = "; ".join(why)
    return failures


def run_noise_removal(args, tracer) -> dict:
    from topicsim.denoiser import DenoiserConfig, denoise_site_trajectory
    from topicsim.simulator import SimConfig, run_scenario
    from topicsim.worlds import aggressive_skew_config, build_world

    n = SIZES[args.size]["noise_removal"]
    world = build_world(aggressive_skew_config(n, seed=args.world_seed))
    built = now()
    log = run_scenario(world.population, SimConfig(epochs=EPOCHS, sites=(OBSERVER,), seed=args.sim_seed),
                       world.taxonomy)
    traj = denoise_site_trajectory(log.site_view(OBSERVER), world.prevalence, DenoiserConfig(),
                                   world.population)
    done = now()
    rss = peak_rss_mb()
    if tracer:
        tracer.recording = False
    failures = check_noise_removal(log.site_view(OBSERVER), world.population, traj, n)
    return {"built": built, "done": done, "study_s": done - built, "peak_rss_mb": rss,
            "failures": {f"point.epoch{e}": why for e, why in failures.items()}}


# --- CLI chain --------------------------------------------------------------


def run_cli(stage_args: list[str], workdir: Path, spans: Path | None, log_name: str):
    """One `topicsim` subcommand as a subprocess: (exit code, wall s, max RSS MiB)."""
    if spans is None:
        argv = [sys.executable, "-m", "topicsim.cli", *stage_args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *stage_args]
    with open(workdir / log_name, "wb") as out:
        start = now()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _header_hash(first_line: str) -> str | None:
    if first_line.startswith("# "):
        fields = dict(f.split("=", 1) for f in first_line[2:].split() if "=" in f)
        return fields.get("config_hash")
    try:
        return json.loads(first_line)["header"]["config_hash"]
    except (ValueError, KeyError, TypeError):
        return None


def _ndjson(path: Path) -> tuple[str | None, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        head = _header_hash(fh.readline())
        lines = [line for line in fh.read().split("\n") if line.strip()]
    return head, json.loads("[" + ",".join(lines) + "]")  # one parse is ~2x faster than one per line


def check_cli(stage: str, out: Path, n: int, seed: int, taxonomy_ids: set, state: dict) -> list[str]:
    """Output checks of one subcommand; `state` carries the population's hash."""
    why: list[str] = []
    if stage == "generate":
        head, users = _ndjson(out / "population.ndjson")
        state["hash"] = head
        if head is None:
            why.append("population has no config hash")
        if sorted(u["user_id"] for u in users) != list(range(n)):
            why.append(f"population holds {len(users)} users, expected ids 0..{n - 1}")
        bad = [u["user_id"] for u in users
               if len(set(u["top_profile"])) != T or not set(u["top_profile"]) <= taxonomy_ids]
        if bad:
            why.append(f"{len(bad)} users without {T} distinct taxonomy topics")
    elif stage == "simulate":
        head, records = _ndjson(out / "log.ndjson")
        truth_head, truth = _ndjson(out / "truth.ndjson")
        if not head == truth_head == state.get("hash"):
            why.append(f"config hashes {head}, {truth_head} vs population {state.get('hash')}")
        keys = {(r["site"], r["user"], r["epoch"]) for r in records}
        expected = len(TRACK_SITES) * n * EPOCHS
        if len(records) != expected or len(keys) != expected:
            why.append(f"log holds {len(records)} records ({len(keys)} distinct), expected {expected}")
        if any(len(r["topics"]) != TAU or not set(r["topics"]) <= taxonomy_ids for r in records):
            why.append(f"a log record without {TAU} taxonomy topics")
        draws = len(TRACK_SITES) * n * (EPOCHS + TAU - 1)
        noisy = sum(r["noisy"] for r in truth)
        if len(truth) != draws or abs(noisy / draws - P) > 4 * math.sqrt(P * (1 - P) / draws):
            why.append(f"truth: {noisy} noisy of {len(truth)} draws, expected share {P} of {draws}")
    elif stage == "denoise":
        lines = (out / "denoise_metrics.csv").read_text(encoding="utf-8").splitlines()
        if _header_hash(lines[0]) != state.get("hash"):
            why.append(f"denoise_metrics.csv hash {_header_hash(lines[0])}")
        rows = [ln.split(",") for ln in lines[2:]]
        if [int(r[0]) for r in rows] != list(range(1, EPOCHS + 1)):
            why.append("denoise_metrics.csv does not list epochs 1..30")
        elif not all(0.0 <= float(r[3]) <= 1.0 and 0.0 <= float(r[4]) <= 1.0 for r in rows):
            why.append("tpr or fpr outside [0, 1]")
    else:
        lines = (out / "reid_report.csv").read_text(encoding="utf-8").splitlines()
        hashes = {_header_hash(lines[0])}
        for e in REPORT_EPOCHS:
            kcdf = out / f"reid_kcdf_epoch_{e:02d}.csv"
            hashes.add(_header_hash(kcdf.read_text(encoding="utf-8").splitlines()[0]))
        if hashes != {state.get("hash")}:
            why.append(f"reidentify artifact hashes {sorted(map(str, hashes))}")
        expected = _in_process_report(out, seed)
        if lines[1:] != expected:
            why.append("reid_report.csv differs from run_reidentification run in-process")
    return why


def _in_process_report(out: Path, seed: int) -> list[str]:
    """The report the library gives on the chain's own population and config."""
    from topicsim.denoiser import DenoiserConfig
    from topicsim.population import read_population
    from topicsim.reidentify import run_reidentification
    from topicsim.simulator import SimConfig, run_scenario
    from topicsim.worlds import build_world, wide_pool_config

    world = build_world(wide_pool_config(1, seed=seed))  # the CLI's wide-pool classification
    population = read_population(out / "population.ndjson")
    log = run_scenario(population, SimConfig(epochs=EPOCHS, sites=TRACK_SITES, seed=seed), world.taxonomy)
    rep = run_reidentification(log, *TRACK_SITES, world.prevalence, DenoiserConfig(),
                               report_epochs=REPORT_EPOCHS)
    return rep.csv_lines()


def run_probes(workdir: Path) -> dict[str, str]:
    """Refusal probes on a tiny chain of their own; outside every timed figure."""
    workdir.mkdir()
    base = workdir / "base.json"
    longer = workdir / "epochs12.json"
    base.write_text(json.dumps(dict(PROBE_CONFIG, out="out")), encoding="utf-8")
    longer.write_text(json.dumps(dict(PROBE_CONFIG, out="out", epochs=12)), encoding="utf-8")
    failures: dict[str, str] = {}
    for stage in ("generate", "simulate"):
        code, _, _ = run_cli([stage, "--config", str(base), "--workers", "1"], workdir, None, f"{stage}.log")
        if code != 0:
            return {p: f"probe set-up `{stage}` exited {code}" for p in PROBES}
    probes = {
        PROBES[0]: ["denoise", "--config", str(base), "--seed", "2", "--workers", "1"],
        PROBES[1]: ["reidentify", "--config", str(longer), "--workers", "1"],
    }
    for name, stage_args in probes.items():
        code, _, _ = run_cli(stage_args, workdir, None, f"{name}.log")
        if code != 2:
            failures[name] = f"exit {code}, expected refusal with exit 2"
    return failures


def run_cli_chain(args, tracer) -> dict:
    from topicsim.taxonomy import bundled_taxonomy

    n = SIZES[args.size]["cli_chain"]
    workdir = Path(args.workdir)
    chain = workdir / "chain"
    chain.mkdir(parents=True)
    config = chain / "config.json"
    config.write_text(json.dumps({
        "n_users": n, "classification": "synthetic:wide-pool", "sites": list(TRACK_SITES),
        "epochs": EPOCHS, "seed": args.world_seed, "out": "out",
    }), encoding="utf-8")

    walls, rss, codes = {}, {}, {}
    for stage in CLI_STAGES:
        spans = workdir / f"spans.{stage}.json" if tracer else None
        idx = tracer.begin(f"cli.{stage}") if tracer else None
        codes[stage], walls[stage], rss[stage] = run_cli(
            [stage, "--config", str(config), "--workers", str(args.workers)], chain, spans, f"{stage}.log")
        if tracer:
            tracer.end(idx)
            tracer.spans[idx]["attrs"]["rss_mb"] = rss[stage]
            if spans.exists():
                traced = json.loads(spans.read_text(encoding="utf-8"))
                tracer.adopt(traced["spans"], idx)
                tracer.absent.extend(traced["absent"])
        if codes[stage] != 0:
            break
    done = now()

    taxonomy_ids = set(bundled_taxonomy().ids())
    failures: dict[str, str] = {}
    state: dict = {}
    # The probes' subprocesses run on the second core while this one checks.
    with ThreadPoolExecutor(max_workers=1) as pool:
        probes = pool.submit(run_probes, workdir / "probe")
        for stage in CLI_STAGES:
            if codes.get(stage) != 0:
                failures[f"cli.{stage}"] = f"exit {codes.get(stage)}" if stage in codes else "not run"
                continue
            try:
                why = check_cli(stage, chain / "out", n, args.world_seed, taxonomy_ids, state)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                why = [f"unreadable artifact: {exc!r}"]
            if why:
                failures[f"cli.{stage}"] = "; ".join(why)
        failures.update(probes.result())
    return {"built": None, "done": done, "setup_s": walls.get("generate", math.nan),
            "study_s": sum(walls.get(s, math.nan) for s in CLI_STAGES[1:]),
            "peak_rss_mb": max(rss.values()), "failures": failures}


WORKLOADS = {"tracking": run_tracking, "noise_removal": run_noise_removal, "cli_chain": run_cli_chain}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True, help="launch time, monotonic clock")
    parser.add_argument("--workdir", required=True, help="fresh directory for this round")
    parser.add_argument("--trace", action="store_true", help="record spans around layer calls")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer and args.workload != "cli_chain":
        install(tracer)
    res = WORKLOADS[args.workload](args, tracer)
    if res["built"] is not None:
        res["setup_s"] = res["built"] - args.launched
    if tracer:
        tracer.dump(workdir / "spans.json")
        res["layers"] = layer_metrics(tracer.spans, args.launched, res["done"])
        res["absent"] = tracer.absent
    ops = operations(args.workload)
    unknown = set(res["failures"]) - set(ops)
    if unknown:
        raise RuntimeError(f"failures of unknown operations {sorted(unknown)}")
    for op, why in res["failures"].items():
        print(f"{args.workload}: {op} failed: {why}", file=sys.stderr)
    (workdir / "result.json").write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
