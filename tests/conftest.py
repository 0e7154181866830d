import numpy as np
import pytest

from topicsim.taxonomy import bundled_taxonomy


@pytest.fixture(scope="session")
def taxonomy():
    return bundled_taxonomy()


def make_profile(seed: int, omega: int = 349, T: int = 5) -> tuple[int, ...]:
    rng = np.random.default_rng(seed)
    return tuple(sorted(rng.choice(np.arange(1, omega + 1), size=T, replace=False).tolist()))
