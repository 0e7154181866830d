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


def test_hash_and_uniform_known_answers():
    """Values recorded from the chained splitmix64 hash, which every keyed draw and golden digest rests on."""
    assert int(rng.hash_u64(1, 2, 3)) == 3715079401207273477
    assert float(rng.uniform(1, 2, 3)) == 0.20139485788725364
    assert int(rng.hash_u64(-1, 2**63 + 5)) == 12859700671047691018
    assert int(rng.hash_u64()) == 16294208416658607535

    rows, cols = np.arange(3)[:, None], np.arange(2)
    assert rng.hash_u64(7, rows, cols).tolist() == [
        [13553997398794122241, 7304712230722248651],
        [17511472776448645998, 17480248186269227510],
        [7192756806324255118, 14945651140132481497],
    ]
    assert rng.uniform(7, rows, cols).tolist() == [
        [0.7347636712817731, 0.39598924349652476],
        [0.9492988413823195, 0.9476061529569447],
        [0.3899201277788328, 0.8102053717671046],
    ]
    signed = np.array([-1, -(2**63), 5], dtype=np.int64)
    assert rng.hash_u64(signed, -7).tolist() == [4898197329974210236, 15186811368601676705, 17823050589820735897]
    unsigned = np.array([2**64 - 1, 2**63, 0], dtype=np.uint64)
    assert rng.hash_u64(unsigned, 9).tolist() == [12763892098773693625, 11420925924248422225, 17121361702972494789]
    assert rng.uniform(unsigned, 9).tolist() == [0.6919319771430501, 0.6191296349433077, 0.9281508777136447]


def test_hash_leaves_its_word_arrays_unchanged():
    """The finalizer works in place on the hash's own arrays, never on the caller's."""
    words = [np.arange(3)[:, None], np.arange(2), np.array([-1, -(2**63), 5], dtype=np.int64),
             np.array([2**64 - 1, 2**63, 0], dtype=np.uint64)]
    before = [w.copy() for w in words]
    for w in words:
        rng.hash_u64(w)
        rng.uniform(7, w)
    rng.hash_u64(*words[:2])
    for w, b in zip(words, before):
        assert w.dtype == b.dtype and np.array_equal(w, b)


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=5), st.integers(0, 5), st.booleans())
def test_key_prefix_continues_the_hash_at_every_split(words, arrays_from, unsigned):
    """`KeyPrefix(*w[:i]).hash_u64(*w[i:]) == hash_u64(*w)` for every i, and
    neither the prefix nor the caller's word arrays change."""
    # The words from `arrays_from` on are arrays, each along its own axis, so the key broadcasts.
    dtype = np.uint64 if unsigned else np.int64
    words = [w if i < arrays_from else np.array([w, -w, 3], dtype=np.int64).astype(dtype).reshape((3,) + (1,) * i)
             for i, w in enumerate(words)]
    before = [np.copy(w) for w in words]
    want, want_u = rng.hash_u64(*words), rng.uniform(*words)
    for split in range(len(words) + 1):
        prefix = rng.KeyPrefix(*words[:split])
        for _ in range(2):
            assert np.array_equal(prefix.hash_u64(*words[split:]), want)
            assert np.array_equal(prefix.uniform(*words[split:]), want_u)
    for w, b in zip(words, before):
        assert np.asarray(w).dtype == b.dtype and np.array_equal(w, b)


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
