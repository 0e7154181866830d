import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st

from reference import distinct_draws_reference
from topicsim import rng

key_words = st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=5)


@given(key_words)
def test_hash_is_pure(words):
    a = rng.hash_u64(*words)
    b = rng.hash_u64(*words)
    assert a == b


@given(key_words, key_words)
def test_distinct_keys_distinct_hashes(w1, w2):
    if w1 == w2:
        assert rng.hash_u64(*w1) == rng.hash_u64(*w2)
    else:
        # Collisions are possible in principle but must not happen for
        # everyday keys hypothesis finds.
        assert rng.hash_u64(*w1) != rng.hash_u64(*w2)


def test_scalar_and_array_forms_agree():
    scalars = [float(rng.uniform(7, u, 3)) for u in range(100)]
    vector = rng.uniform(7, np.arange(100), 3)
    assert np.allclose(scalars, vector)


def test_uniform_range_and_mean():
    u = rng.counter_stream(200_000, 42)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.var(u) - 1.0 / 12.0) < 0.002


def test_uniform_chi_square_equidistribution():
    u = rng.counter_stream(1_000_000, 17)
    counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
    expected = 10_000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # df=99: far tails only; generous band to keep the test seed-robust.
    assert 40 < chi2 < 180


def test_permutation_is_a_permutation():
    perm = rng.permutation(1000, 3, 4)
    assert sorted(perm.tolist()) == list(range(1000))


def test_string_keys_stable():
    assert rng.string_key("site-a.example") == rng.string_key("site-a.example")
    assert rng.string_key("site-a.example") != rng.string_key("site-b.example")


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=50), key_words)
def test_counter_stream_extends_prefix(n, words):
    short = rng.counter_stream(n, *words)
    long = rng.counter_stream(n + 10, *words)
    assert np.array_equal(short, long[:n])


BATCH_RULES = {
    "max(2 * short, 16)": lambda short: np.maximum(2 * short, 16),
    "16": lambda short: np.full_like(short, 16),
    "short": lambda short: short,
    "1": lambda short: np.ones_like(short),
}


@st.composite
def distinct_draw_cases(draw):
    width = draw(st.integers(1, 30))
    rows = draw(st.integers(0, 8))
    taken = sorted(draw(st.sets(st.integers(0, rows * width - 1), max_size=rows * width))) if rows else []
    free = [width - sum(1 for k in taken if k // width == r) for r in range(rows)]
    need = [draw(st.integers(0, f)) for f in free]
    return dict(
        need=need,
        width=width,
        taken=taken,
        batch=draw(st.sampled_from(sorted(BATCH_RULES))),
        seed=draw(st.integers(0, 2**32)),
        # A cubed uniform piles draws onto small values, so rows redraw
        # values they hold and need further rounds.
        power=draw(st.sampled_from([1, 3])),
    )


@settings(max_examples=60, deadline=None)
@given(distinct_draw_cases())
def test_distinct_draws_match_scalar_oracle(case):
    width, seed, power = case["width"], case["seed"], case["power"]

    def values(counter, r, j):
        return (rng.uniform(seed, r, counter, j) ** power * width).astype(np.int64)

    batch = BATCH_RULES[case["batch"]]
    taken = np.array(case["taken"], dtype=np.int64)
    got = rng.distinct_draws(case["need"], batch, values, width, taken=taken)
    assert got.tolist() == distinct_draws_reference(
        case["need"], batch, values, width, taken=case["taken"]
    ).tolist()
    assert np.bincount(got // width, minlength=len(case["need"])).tolist() == case["need"]
