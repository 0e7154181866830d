"""Batch pipeline: generate -> simulate -> denoise -> reidentify -> report.

Subcommands compose through files in the output directory; there is no
hidden shared state. Every output file begins with a header recording
the tool version, a hash of the resolved configuration, and the master
seed, so byte-identical reruns are checkable with `cmp`.

Config files are flat JSON. Unknown keys are rejected (catching typos in
sweep scripts), and so is a value of another JSON type than its key's
default; omitted keys take the documented defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import __version__, analytics
from .chrome_filter import FilterParams, classify_scores, load_score_vectors
from .classification import DomainClassification, PrevalenceTable, classification_lines, load_classification, prevalence
from .denoiser import DenoiserConfig, denoise_site_trajectory
from .population import (
    Profiles,
    RankedDomainList,
    build_total_order,
    generate_population,
    load_bucket_file,
    load_count_histogram,
    load_rank_file,
    read_profiles,
    summarize_population,
    top_profiles,
    write_population,
)
from .reidentify import run_reidentification
from .simulator import ObservationLog, SimConfig, run_scenario
from .taxonomy import Taxonomy, bundled_taxonomy, load_taxonomy, read_lines
from .worlds import PRESETS, TRAFFIC, WorldConfig, count_model, synthetic_classification, synthetic_prevalence

CONFIG_DEFAULTS: dict = {
    "taxonomy": "bundled",          # path to a taxonomy file, or "bundled"
    "classification": "synthetic:wide-pool",  # path, or synthetic:<aggressive-skew|wide-pool>
    "crux": None,                   # rank-bucket CSV (origin,rank_bucket)
    "tranco": None,                 # rank CSV (rank,domain)
    "radar": None,                  # optional eTLD+1 tie-breaker list, one per line
    "histogram": None,              # unique-domain-count histogram CSV
    "n_users": 1000,
    "n_domains": 50_000,
    "sites": ["site-a.example", "site-b.example"],
    "epochs": 30,
    "T": analytics.DEFAULT_T,
    "tau": analytics.DEFAULT_TAU,
    "p": analytics.DEFAULT_P,
    "threshold": 10,
    "aggressive_gap_rule": False,
    "profile_candidates": 1,        # candidate profiles per user (1..10)
    "profile_index": 0,             # which candidate the experiments use
    "seed": 0,
    "out": "out",
}

# What each key's value must be, by the type of its default. An integer
# given for a number is kept as a float, so `1` and `1.0` hash alike.
_KINDS = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    list: ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v)),
    type(None): ("a string or null", lambda v: v is None or type(v) is str),
    str: ("a string", lambda v: type(v) is str),
}


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    def __init__(self, path: Path, produced_by: str):
        super().__init__(
            f"missing {path}: run the `{produced_by}` subcommand first (outputs compose via files)"
        )


def load_config(path: Optional[str], overrides: dict) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if type(raw) is not dict:
            raise ConfigError(f"{path} must hold a JSON object, got {json.dumps(raw)}")
        unknown = set(raw) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(raw)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key, value in cfg.items():
        kind, ok = _KINDS[type(CONFIG_DEFAULTS[key])]
        if not ok(value):
            raise ConfigError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
        if type(CONFIG_DEFAULTS[key]) is float:
            cfg[key] = float(value)
    if not 1 <= cfg["profile_candidates"] <= 10:
        raise ConfigError("profile_candidates must be in 1..10")
    if not 0 <= cfg["profile_index"] < cfg["profile_candidates"]:
        raise ConfigError("profile_index must be < profile_candidates")
    return cfg


# Keys read only by the analysis stages (denoise, reidentify) or by none.
ANALYSIS_ONLY_KEYS = ("threshold", "aggressive_gap_rule", "out")


def _hash_without(cfg: dict, skipped: tuple[str, ...]) -> str:
    hashed = {k: v for k, v in cfg.items() if k not in skipped}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def config_hash(cfg: dict) -> str:
    # out does not affect results, so it is not part of the content
    # identity; equal hashes must mean byte-identical outputs.
    return _hash_without(cfg, ("out",))


def scenario_hash(cfg: dict) -> str:
    """Identity of the simulated scenario: every key that shapes `log.ndjson`."""
    return _hash_without(cfg, ANALYSIS_ONLY_KEYS)


def population_hash(cfg: dict) -> str:
    """Identity of the population: every key that shapes `population.ndjson`."""
    return _hash_without(cfg, ANALYSIS_ONLY_KEYS + ("sites", "epochs", "tau", "p"))


def file_header(cfg: dict) -> dict:
    return {"topicsim": __version__, "config_hash": config_hash(cfg), "seed": cfg["seed"]}


def csv_header_line(cfg: dict) -> str:
    h = file_header(cfg)
    return f"# topicsim={h['topicsim']} config_hash={h['config_hash']} seed={h['seed']}"


def _resolve_taxonomy(cfg: dict) -> Taxonomy:
    if cfg["taxonomy"] == "bundled":
        return bundled_taxonomy()
    return load_taxonomy(cfg["taxonomy"])


def _world_config(cfg: dict) -> WorldConfig:
    """The world a config describes: its synthetic preset, else the defaults.

    The classification and unique-domain-count models both come from
    this one config, and traffic from `worlds.TRAFFIC`, as in
    `worlds.build_world`.
    """
    spec = cfg["classification"]
    wc = WorldConfig()
    if spec.startswith("synthetic:"):
        preset = spec.split(":", 1)[1]
        if preset not in PRESETS:
            raise ConfigError(f"unknown synthetic classification preset {preset!r}")
        wc = PRESETS[preset](n_users=1)
    return replace(wc, n_users=cfg["n_users"], n_domains=cfg["n_domains"], seed=cfg["seed"], T=cfg["T"])


def _resolve_classification(cfg: dict, taxonomy: Taxonomy) -> DomainClassification:
    spec = cfg["classification"]
    if spec.startswith("synthetic:"):
        return synthetic_classification(_world_config(cfg), taxonomy)
    path = Path(spec)
    if not path.exists():
        raise MissingArtifactError(path, "filter (or supply a classification file)")
    return load_classification(path, taxonomy)


def _resolve_prevalence(cfg: dict, taxonomy: Taxonomy) -> PrevalenceTable:
    """The classification's prevalence; a synthetic preset's comes from its
    targets, without drawing its domains."""
    if cfg["classification"].startswith("synthetic:"):
        return synthetic_prevalence(_world_config(cfg), taxonomy)
    return prevalence(_resolve_classification(cfg, taxonomy), taxonomy)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_order(cfg: dict, classification: DomainClassification) -> RankedDomainList:
    if cfg["crux"] is not None:
        bins = load_bucket_file(cfg["crux"])
        ranks = load_rank_file(cfg["tranco"]) if cfg["tranco"] else {}
        radar = [ln.strip() for ln in read_lines(cfg["radar"]) if ln.strip()] if cfg["radar"] else ()
        return build_total_order(bins, ranks, radar_order=radar)
    # Synthetic classifications come out in rank order already.
    return RankedDomainList(classification.names)


def cmd_generate(cfg: dict) -> int:
    taxonomy = _resolve_taxonomy(cfg)
    classification = _resolve_classification(cfg, taxonomy)
    order = _build_order(cfg, classification)
    if cfg["histogram"] is not None:
        counts = load_count_histogram(cfg["histogram"])
    else:
        counts = count_model(_world_config(cfg))
    population = generate_population(
        cfg["n_users"], order, TRAFFIC, counts, classification,
        seed=cfg["seed"], T=cfg["T"], taxonomy=taxonomy,
    )
    out = _out_dir(cfg)
    n_candidates = cfg["profile_candidates"]
    candidates = None
    if n_candidates > 1:
        # Alternative top-profiles under distinct sub-seeds; experiments
        # pick one via profile_index, downstream files carry them all.
        candidates = [population.profiles] + [
            top_profiles(population, taxonomy, cfg["T"], cfg["seed"], candidate=c)
            for c in range(1, n_candidates)
        ]
        population = replace(population, profiles=candidates[cfg["profile_index"]])
    write_population(population, out / "population.ndjson",
                     header=dict(file_header(cfg), population_hash=population_hash(cfg)),
                     candidates=candidates)
    stats = summarize_population(population)
    for line in stats.lines():
        print(line)
    print(f"wrote {out / 'population.ndjson'}")
    return 0


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(path, produced_by)
    return path


def _simulate(cfg: dict, taxonomy: Taxonomy, population_path: Path, n_sites: int) -> tuple[Profiles, ObservationLog]:
    """The users' profiles and the simulated log of the first `n_sites` sites.

    Only the user ids and profiles are read from the population file,
    whose header must carry this config's population hash.
    """
    _check_header(population_path, "population_hash", population_hash(cfg), "generate")
    profiles = read_profiles(population_path)
    config = SimConfig(
        tau=cfg["tau"], p=cfg["p"], epochs=cfg["epochs"], sites=tuple(cfg["sites"][:n_sites]), seed=cfg["seed"],
    )
    return profiles, run_scenario(profiles, config, taxonomy)


def cmd_simulate(cfg: dict) -> int:
    taxonomy = _resolve_taxonomy(cfg)
    out = _out_dir(cfg)
    population_path = _require(out / "population.ndjson", "generate")
    profiles, log = _simulate(cfg, taxonomy, population_path, len(cfg["sites"]))
    log.write_ndjson(out / "log.ndjson", header=dict(file_header(cfg), scenario_hash=scenario_hash(cfg)))
    log.write_truth_ndjson(out / "truth.ndjson", header=file_header(cfg))
    print(f"simulated {len(profiles)} users x {len(cfg['sites'])} sites x {cfg['epochs']} epochs")
    print(f"wrote {out / 'log.ndjson'} and {out / 'truth.ndjson'}")
    return 0


def _denoiser_config(cfg: dict) -> DenoiserConfig:
    return DenoiserConfig(
        threshold=cfg["threshold"], T=cfg["T"], aggressive_gap_rule=cfg["aggressive_gap_rule"],
    )


def _check_header(path: Path, key: str, expected: str, produced_by: str) -> None:
    """Refuse an artifact whose header `key` differs from what this config gives."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    try:
        recorded = json.loads(first)["header"].get(key)
    except (ValueError, KeyError, TypeError, AttributeError):
        recorded = None
    if recorded != expected:
        raise ConfigError(
            f"{path} was made under {key} {recorded}, but this config gives "
            f"{expected}: rerun the `{produced_by}` subcommand with this config first"
        )


def _rebuild_scenario(cfg: dict, taxonomy: Taxonomy, n_sites: int) -> tuple[Profiles, ObservationLog]:
    """`_simulate` for the analysis subcommands, once `log.ndjson` is checked.

    The NDJSON artifacts are the interchange format; for analysis we
    re-derive the identical log from the recorded seed (draws are keyed
    per site, so this is byte-exact for the sites simulated) rather than
    reparsing gigabytes. The log's header must carry this config's
    scenario hash.
    """
    out = _out_dir(cfg)
    population_path = _require(out / "population.ndjson", "generate")
    _check_header(_require(out / "log.ndjson", "simulate"), "scenario_hash", scenario_hash(cfg), "simulate")
    return _simulate(cfg, taxonomy, population_path, n_sites)


def _check_analysis_keys(cfg: dict, command: str, n_sites: int) -> None:
    """Refuse `sites` and `epochs` an analysis subcommand cannot use, before any work."""
    if len(cfg["sites"]) < n_sites:
        raise ConfigError(f"{command} needs {n_sites} site(s) in `sites`, got {len(cfg['sites'])}")
    if cfg["epochs"] < 1:
        raise ConfigError(f"{command} needs `epochs` >= 1, got {cfg['epochs']}")


def cmd_denoise(cfg: dict) -> int:
    _check_analysis_keys(cfg, "denoise", 1)
    taxonomy = _resolve_taxonomy(cfg)
    prev = _resolve_prevalence(cfg, taxonomy)
    profiles, log = _rebuild_scenario(cfg, taxonomy, 1)
    out = _out_dir(cfg)
    site = cfg["sites"][0]
    traj = denoise_site_trajectory(log.site_view(site), prev, _denoiser_config(cfg), profiles)
    lines = [csv_header_line(cfg)] + traj.csv_lines()
    (out / "denoise_metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    last = traj.points[-1]
    tpr, fpr = ("n/a" if r is None else f"{r:.4f}" for r in (last.metrics.tpr, last.metrics.fpr))
    print(f"site {site}: epoch {last.epoch} tpr={tpr} fpr={fpr} median_recovered={last.median_recovered:g}")
    print(f"wrote {out / 'denoise_metrics.csv'}")
    return 0


REPORTED_EPOCHS = (1, 2, 5, 10, 15, 20, 25, 30)


def cmd_reidentify(cfg: dict) -> int:
    _check_analysis_keys(cfg, "reidentify", 2)
    taxonomy = _resolve_taxonomy(cfg)
    prev = _resolve_prevalence(cfg, taxonomy)
    _, log = _rebuild_scenario(cfg, taxonomy, 2)
    out = _out_dir(cfg)
    site_a, site_b = cfg["sites"][0], cfg["sites"][1]
    epochs = [e for e in REPORTED_EPOCHS if e <= cfg["epochs"]]
    rep = run_reidentification(log, site_a, site_b, prev, _denoiser_config(cfg), report_epochs=epochs)
    lines = [csv_header_line(cfg)] + rep.csv_lines()
    (out / "reid_report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for e in rep.epochs:
        klines = [csv_header_line(cfg)] + rep.k_cdf_csv_lines(e)
        (out / f"reid_kcdf_epoch_{e:02d}.csv").write_text("\n".join(klines) + "\n", encoding="utf-8")
    last = rep.epochs[-1]
    whole, tied, wrong = rep.miss_counts[last]
    print(f"epoch {last}: unique_rate={rep.unique_rate_at(last):.4f} "
          f"better_than_random={rep.better_than_random_at(last):.4f} "
          f"whole_population={whole} tied={tied} wrong_argmax={wrong}")
    print(f"wrote {out / 'reid_report.csv'} and per-epoch k-CDF files")
    return 0


def cmd_analytics(cfg: dict) -> int:
    model = analytics.NoiseModel(
        tau=cfg["tau"], p=cfg["p"], omega=_resolve_taxonomy(cfg).omega, T=cfg["T"],
    )
    payload = {"header": file_header(cfg), **analytics.summary(model, n=cfg["n_users"])}
    out = _out_dir(cfg)
    text = json.dumps(payload, indent=2, sort_keys=True)
    (out / "analytics.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_filter(cfg: dict, scores_path: str) -> int:
    taxonomy = _resolve_taxonomy(cfg)
    vectors = load_score_vectors(_require(Path(scores_path), "an external classifier"), taxonomy)
    classification = classify_scores(vectors, FilterParams())
    out = _out_dir(cfg)
    dest = out / "filtered_classification.tsv"
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(csv_header_line(cfg) + "\n")
        fh.writelines(classification_lines(classification))
    print(f"filtered {len(vectors)} score vectors -> {dest}")
    return 0


def cmd_report(cfg: dict) -> int:
    """Write the prevalence histogram and list it with the series files already in `out`."""
    taxonomy = _resolve_taxonomy(cfg)
    prev = _resolve_prevalence(cfg, taxonomy)
    out = _out_dir(cfg)
    lines = [csv_header_line(cfg), "topic_id,domain_count"]
    lines += [f"{tid},{int(prev.counts[tid])}" for tid in range(1, taxonomy.omega + 1)]
    (out / "prevalence_hist.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    produced = [out / "prevalence_hist.csv"]
    for name in ("denoise_metrics.csv", "reid_report.csv"):
        if (out / name).exists():
            produced.append(out / name)
    print("report data files:")
    for p in produced:
        print(f"  {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topicsim",
        description="Interest-disclosing API simulation: populations, noise removal, re-identification.",
    )
    parser.add_argument("--version", action="version", version=f"topicsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--workers", type=int,
                       help="accepted and ignored, for older scripts; no stage forks")
        p.add_argument("--out", help="output directory (overrides config)")

    for name in ("generate", "simulate", "denoise", "reidentify", "analytics", "report"):
        add_common(sub.add_parser(name))
    pf = sub.add_parser("filter")
    add_common(pf)
    pf.add_argument("--scores", required=True, help="score-vector file (domain<TAB>scores)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "out": args.out}
    try:
        cfg = load_config(args.config, overrides)
        handlers = {
            "generate": cmd_generate,
            "simulate": cmd_simulate,
            "denoise": cmd_denoise,
            "reidentify": cmd_reidentify,
            "analytics": cmd_analytics,
            "report": cmd_report,
        }
        if args.command == "filter":
            return cmd_filter(cfg, args.scores)
        return handlers[args.command](cfg)
    except (MissingArtifactError, ValueError) as exc:
        # A refused input: a config value, a missing or foreign artifact.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
