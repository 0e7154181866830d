"""Closed-form quantities of the noise mechanism.

These are the oracle layer for the simulator's statistical tests: every
number here has a matching Monte-Carlo estimate in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_TAU = 3
DEFAULT_P = 0.05
DEFAULT_OMEGA = 349
DEFAULT_T = 5


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the per-slot noise mechanism.

    Each returned slot is independently noisy with probability p (topic
    uniform over the omega-topic taxonomy) and genuine with probability
    q = 1 - p (topic uniform over the user's top-T profile).
    """

    tau: int = DEFAULT_TAU
    p: float = DEFAULT_P
    omega: int = DEFAULT_OMEGA
    T: int = DEFAULT_T

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.tau < 1 or self.T < 1 or self.omega < 1:
            raise ValueError("tau, T, and omega must be >= 1")

    @property
    def q(self) -> float:
        return 1.0 - self.p


def prob_genuine_at_least(model: NoiseModel, g: int) -> float:
    """P(at least g of the tau returned slots are genuine).

    Tail of Binomial(tau, q) at g. With the default parameters and g=2
    this is exactly 0.99275.
    """
    if not 0 <= g <= model.tau:
        raise ValueError(f"g must be in [0, {model.tau}], got {g}")
    q = model.q
    return sum(
        math.comb(model.tau, k) * q**k * (1.0 - q) ** (model.tau - k)
        for k in range(g, model.tau + 1)
    )


@dataclass(frozen=True)
class RepeatNoisyResult:
    """Chance that a topic repeated x times was noisy every single time."""

    all_noisy: float
    genuine_at_least_once: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "genuine_at_least_once", 1.0 - self.all_noisy)


def repeat_noisy_probability(model: NoiseModel, x: int) -> RepeatNoisyResult:
    """(p / omega)^x, plus the complement 1 - (p / omega)^x.

    A specific topic lands in a specific slot through the noise branch
    with probability p / omega; x independent repeats multiply.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return RepeatNoisyResult(all_noisy=(model.p / model.omega) ** x)


@dataclass(frozen=True)
class CollectionExpectation:
    """Expected observation effort to see all T profile topics once.

    expected_epochs is the exact coupon-collector value (T/q) * H_T;
    ceiled_epochs is its integer presentation; consecutive_api_calls is
    ceiled_epochs - tau + 1 (the first call reveals tau epochs at once,
    each later call at most one new epoch).
    """

    expected_epochs: float
    ceiled_epochs: int
    consecutive_api_calls: int


def expected_collection_epochs(model: NoiseModel) -> CollectionExpectation:
    """Expected number of per-epoch draws to collect all T stable topics.

    One topic is revealed per epoch; a genuine draw (probability q) is
    uniform over the T stable topics, so collecting topic number i after
    i-1 others is geometric with success rate q * (T - i + 1) / T.
    Summing expectations gives (T / q) * H_T. At the defaults this is
    12.018, presented as ~13 when ceiled.
    """
    if model.q <= 0.0:
        raise ValueError("q must be positive: with q = 0 no genuine topic is ever drawn")
    harmonic = sum(1.0 / i for i in range(1, model.T + 1))
    expected = (model.T / model.q) * harmonic
    ceiled = math.ceil(expected)
    return CollectionExpectation(
        expected_epochs=expected,
        ceiled_epochs=ceiled,
        consecutive_api_calls=ceiled - model.tau + 1,
    )


def noise_floor(model: NoiseModel, n: int) -> float:
    """Expected noisy appearances of each single topic across n one-call users.

    n users produce n * tau slots, each noisy with probability p and then
    uniform over omega topics: n * p * tau / omega per topic.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n * model.p * model.tau / model.omega


def profile_combinations(model: NoiseModel) -> int:
    """Number of distinct top-T profiles: C(omega, T). ~42 billion at defaults."""
    return math.comb(model.omega, model.T)


def summary(model: NoiseModel, n: int = 250_000) -> dict:
    """JSON-friendly bundle of all closed-form quantities."""
    rep2 = repeat_noisy_probability(model, 2)
    coll = expected_collection_epochs(model)
    return {
        "model": {"tau": model.tau, "p": model.p, "q": model.q, "omega": model.omega, "T": model.T},
        # A one-slot call cannot hold two genuine topics.
        "prob_at_least_2_genuine": prob_genuine_at_least(model, 2) if model.tau >= 2 else 0.0,
        "repeat_x2_all_noisy": rep2.all_noisy,
        "repeat_x2_genuine_at_least_once": rep2.genuine_at_least_once,
        "expected_collection_epochs": coll.expected_epochs,
        "expected_collection_epochs_ceiled": coll.ceiled_epochs,
        "consecutive_api_calls": coll.consecutive_api_calls,
        "noise_floor_per_topic": noise_floor(model, n),
        "noise_floor_population": n,
        "profile_combinations": profile_combinations(model),
    }
