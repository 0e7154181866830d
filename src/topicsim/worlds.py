"""Ready-made synthetic worlds for experiments.

A world bundles everything an end-to-end run needs: the bundled
taxonomy, a skew-matched synthetic classification standing in for a real
top-list classification, the induced total order and traffic model, and
a generated population with stable top-T profiles.

The default shape matches the published top-1M skew statistics at desk
scale: 42 topics never observed, the most common topic on ~18.8% of
domains, a long tail of topics on only a handful of domains each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .classification import (
    DomainClassification,
    PrevalenceTable,
    SkewSpec,
    prevalence,
    synthesize_skewed_classification,
)
from .population import (
    RankedDomainList,
    TrafficModel,
    UniqueDomainCountModel,
    UserProfile,
    generate_population,
)
from .taxonomy import Taxonomy, bundled_taxonomy


# Shared by both presets: the classification's skew targets and rank
# windows, the traffic exponent and the unique-domain-count spread.
SKEW = SkewSpec(zero_topics=42, top_fraction=0.188, median=4)
HEAD_PLACEMENT = (0.0, 1.0)
TAIL_PLACEMENT = (0.4, 1.0)
TRAFFIC_EXPONENT = 1.0
COUNT_SIGMA = 0.8
COUNT_MIN = 8
COUNT_MAX = 2_000


@dataclass(frozen=True)
class WorldConfig:
    n_users: int = 10_000
    n_domains: int = 50_000
    seed: int = 0
    T: int = 5
    head_topics: int = 42
    head_floor: int = 600
    count_mu_median: float = 28.0


@dataclass(frozen=True)
class World:
    config: WorldConfig
    taxonomy: Taxonomy
    classification: DomainClassification
    prevalence: PrevalenceTable
    order: RankedDomainList
    traffic: TrafficModel
    counts: UniqueDomainCountModel
    population: tuple[UserProfile, ...]


def synthetic_classification(
    config: WorldConfig, taxonomy: Taxonomy, source_label: str = "synthetic"
) -> DomainClassification:
    """The world's skew-matched synthetic classification, deterministic in config.seed."""
    return synthesize_skewed_classification(
        taxonomy,
        config.n_domains,
        SKEW,
        seed=config.seed,
        head_topics=config.head_topics,
        head_floor=config.head_floor,
        head_placement=HEAD_PLACEMENT,
        tail_placement=TAIL_PLACEMENT,
        source_label=source_label,
    )


def traffic_model(config: WorldConfig) -> TrafficModel:
    """The world's Zipf traffic model over its ranked domain list."""
    return TrafficModel(kind="zipf", exponent=TRAFFIC_EXPONENT)


def count_model(config: WorldConfig) -> UniqueDomainCountModel:
    """The world's log-normal model of unique visited domains per user."""
    return UniqueDomainCountModel(
        mu=math.log(config.count_mu_median),
        sigma=COUNT_SIGMA,
        minimum=COUNT_MIN,
        maximum=COUNT_MAX,
    )


def build_world(config: WorldConfig = WorldConfig(), taxonomy: Optional[Taxonomy] = None) -> World:
    """Build a fully wired synthetic world, deterministic in config.seed."""
    tax = taxonomy or bundled_taxonomy()
    classification = synthetic_classification(config, tax)
    order = RankedDomainList(tuple(classification.domains()))
    traffic = traffic_model(config)
    counts = count_model(config)
    population = generate_population(
        config.n_users,
        order,
        traffic,
        counts,
        classification,
        seed=config.seed,
        T=config.T,
        taxonomy=tax,
    )
    return World(
        config=config,
        taxonomy=tax,
        classification=classification,
        prevalence=prevalence(classification, tax),
        order=order,
        traffic=traffic,
        counts=counts,
        population=tuple(population),
    )


def aggressive_skew_config(n_users: int, seed: int = 1) -> WorldConfig:
    """Noise-removal study world: very skewed prevalence.

    42 never-observed topics, the top topic on 18.8% of domains, and only
    42 topics above the threshold-10 line. Users' interests concentrate
    on the prevalent pool, making the threshold prior a strong noise
    signal (the defaults of WorldConfig).
    """
    return WorldConfig(n_users=n_users, seed=seed)


def wide_pool_config(n_users: int, seed: int = 1) -> WorldConfig:
    """Cross-site tracking study world: broad interest pool.

    ~180 topics above the threshold-10 line with gently decaying
    visibility, the shape of a real top-1M classification. Profile
    combinations are diverse enough that overlap matching separates
    users, which is what the re-identification experiments measure.
    """
    return WorldConfig(
        n_users=n_users,
        seed=seed,
        head_topics=180,
        head_floor=60,
        count_mu_median=22.0,
    )
