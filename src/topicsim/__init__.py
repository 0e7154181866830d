"""Simulation and analysis toolkit for interest-disclosing ad mechanisms.

Faithful re-implementation of the Topics API semantics (per-epoch
genuine/noisy draws, per-site result pinning, shuffled multi-topic
responses) plus the adversary side: prevalence-threshold noise removal,
multi-shot accumulation, and two-site re-identification, all over seeded
synthetic user populations.
"""

__version__ = "0.1.0"

from .analytics import NoiseModel
from .classification import DomainClassification, PrevalenceTable, SkewSpec
from .denoiser import DenoiserConfig
from .population import Population, RankedDomainList, TrafficModel, UniqueDomainCountModel, UserProfile
from .simulator import EpochDraw, ObservationLog, SimConfig
from .taxonomy import Taxonomy, Topic, bundled_taxonomy

__all__ = [
    "__version__",
    "DenoiserConfig",
    "DomainClassification",
    "EpochDraw",
    "NoiseModel",
    "ObservationLog",
    "Population",
    "PrevalenceTable",
    "RankedDomainList",
    "SimConfig",
    "SkewSpec",
    "Taxonomy",
    "Topic",
    "TrafficModel",
    "UniqueDomainCountModel",
    "UserProfile",
    "bundled_taxonomy",
]
