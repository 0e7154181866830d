import io

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reference import topics_of
from topicsim.chrome_filter import (
    FilterParams,
    ScoreVector,
    SimilarityReport,
    chrome_filter,
    classify_scores,
    load_score_vectors,
    set_similarity,
)
from topicsim.classification import ClassificationError
from topicsim.taxonomy import UNKNOWN_TOPIC_ID

OMEGA = 349


def vec(mapping):
    return ScoreVector.from_mapping(mapping, OMEGA)


def test_published_default_parameters():
    params = FilterParams()
    assert params.max_topics == 5
    assert params.min_unknown_score == 0.8
    assert params.min_topic_score == 0.01
    assert params.min_normalized_score_within_top_n == 0.25


def test_golden_dominant_unknown():
    assert chrome_filter(vec({UNKNOWN_TOPIC_ID: 1.0})) == {UNKNOWN_TOPIC_ID}


def test_golden_normalized_cut():
    # top_sum = 0.9; 0.5/0.9 and 0.3/0.9 pass the 0.25 bar; 0.1/0.9 fails.
    got = chrome_filter(vec({1: 0.5, 2: 0.3, 3: 0.1}))
    assert got == {1, 2}


def test_golden_unknown_share_above_bar():
    # 0.5 / 0.6 ~ 0.833 > 0.8 -> sensitive, Unknown wins.
    got = chrome_filter(vec({UNKNOWN_TOPIC_ID: 0.5, 1: 0.1}))
    assert got == {UNKNOWN_TOPIC_ID}


def test_all_zero_vector_returns_unknown():
    got = chrome_filter(ScoreVector.from_values([0.0] * (OMEGA + 1), OMEGA))
    assert got == {UNKNOWN_TOPIC_ID}


def test_absolute_min_score_applies():
    # Normalized share passes but the absolute 0.01 bar does not.
    got = chrome_filter(vec({5: 0.009, 6: 0.008}))
    assert got == {UNKNOWN_TOPIC_ID}


def test_unknown_at_the_bar_still_yields_unknown_by_elimination():
    # Unknown holding exactly 80% of the top mass does not trigger the
    # dominance branch (strict inequality), but no other topic can reach
    # the 25% normalized bar then, so Unknown comes out anyway.
    got = chrome_filter(vec({UNKNOWN_TOPIC_ID: 0.8, 7: 0.2}))
    assert got == {UNKNOWN_TOPIC_ID}


def test_unknown_below_bar_lets_strong_topics_through():
    got = chrome_filter(vec({UNKNOWN_TOPIC_ID: 0.7, 7: 0.3}))
    assert got == {7}


scores_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=OMEGA),
    values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=12,
)


@settings(max_examples=200)
@given(scores_strategy)
def test_filter_output_invariants(mapping):
    got = chrome_filter(vec({(k if k > 0 else UNKNOWN_TOPIC_ID): v for k, v in mapping.items()}))
    assert 1 <= len(got) <= 5
    if UNKNOWN_TOPIC_ID in got:
        assert got == {UNKNOWN_TOPIC_ID}


def test_permutation_outside_top_set_is_irrelevant():
    base = {1: 0.5, 2: 0.3, 3: 0.2, 4: 0.15, 5: 0.1}
    low_a = {**base, 100: 0.01, 200: 0.005}
    low_b = {**base, 100: 0.005, 200: 0.01}
    assert chrome_filter(vec(low_a)) == chrome_filter(vec(low_b))


def test_similarity_identity():
    rep = set_similarity({1, 2}, {1, 2})
    assert rep == SimilarityReport(1.0, 1.0, 1.0, True, True)


def test_similarity_partial_overlap():
    rep = set_similarity({1, 2}, {2, 3})
    assert rep.jaccard == pytest.approx(1 / 3)
    assert rep.dice == pytest.approx(1 / 2)
    assert rep.overlap == pytest.approx(1 / 2)
    assert not rep.exact_match and rep.at_least_one


def test_similarity_empty_conventions():
    both = set_similarity(set(), set())
    assert (both.jaccard, both.dice, both.overlap) == (1.0, 1.0, 1.0)
    assert both.exact_match and both.at_least_one
    one = set_similarity({1}, set())
    assert (one.jaccard, one.dice, one.overlap) == (0.0, 0.0, 0.0)
    assert not one.exact_match and not one.at_least_one


def test_dice_jaccard_closed_form_identity():
    rep = set_similarity({1, 2}, {2, 3})
    assert rep.dice == pytest.approx(2 * rep.jaccard / (1 + rep.jaccard))


sets_strategy = st.sets(st.integers(min_value=1, max_value=60), max_size=8)


@given(sets_strategy, sets_strategy)
def test_jaccard_dice_ordering_and_identity(a, b):
    rep = set_similarity(a, b)
    assert rep.jaccard <= rep.dice + 1e-12
    if a and b:
        assert rep.dice == pytest.approx(2 * rep.jaccard / (1 + rep.jaccard))
    if a and b and (a <= b or b <= a):
        assert rep.overlap >= rep.dice - 1e-12


def test_jaccard_leq_dice_bulk_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        a = frozenset(rng.choice(60, size=rng.integers(0, 7), replace=False).tolist())
        b = frozenset(rng.choice(60, size=rng.integers(0, 7), replace=False).tolist())
        rep = set_similarity(a, b)
        assert rep.jaccard <= rep.dice + 1e-12


def test_score_vector_file_roundtrip(taxonomy):
    scores = ["0.0"] * 350
    scores[0] = "0.6"
    scores[1] = "0.4"
    body = "d1.com\t" + " ".join(scores) + "\n"
    vectors = load_score_vectors(io.StringIO(body), taxonomy)
    assert vectors["d1.com"].scores[0] == 0.6
    cls = classify_scores(vectors)
    assert topics_of(cls, "d1.com") == {1, 2}


def test_score_vector_wrong_arity(taxonomy):
    with pytest.raises(ClassificationError, match="expected 350"):
        load_score_vectors(io.StringIO("d1.com\t0.5 0.5\n"), taxonomy)


def test_score_vector_validation():
    with pytest.raises(ValueError):
        ScoreVector.from_values([1.5] + [0.0] * OMEGA, OMEGA)
    with pytest.raises(ValueError):
        ScoreVector.from_values([float("nan")] + [0.0] * OMEGA, OMEGA)
