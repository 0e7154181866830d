import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra.numpy import arrays

from conftest import make_profile
from reference import argmax_match_one_way, population_from_records, reidentify_two_calls
import topicsim
from topicsim.classification import PrevalenceTable
from topicsim.denoiser import DenoiserConfig
from topicsim.population import UserProfile
from topicsim.reidentify import (
    MAX_SUBSET_TOPICS,
    MatchReport,
    _argmax_match,
    _level_keys as level_keys,
    match_users,
    reid_report,
    run_reidentification,
)
from topicsim.simulator import SimConfig, run_scenario
from topicsim.worlds import build_world, wide_pool_config


def test_singleton_population_is_unique():
    rep = match_users({0: {1, 2}}, {0: {2, 3}})
    assert rep.k.tolist() == [1]
    assert rep.unique_rate == 1.0


def test_disjoint_profiles_both_unique():
    a = {0: {1, 2, 3}, 1: {10, 11, 12}}
    b = {0: {1, 2, 3}, 1: {10, 11, 12}}
    rep = match_users(a, b)
    assert rep.unique_rate == 1.0
    assert rep.better_than_random_rate == 0.0


def test_empty_recovered_set_gets_population_group():
    a = {0: set(), 1: {5}}
    b = {0: {7}, 1: {5}}
    rep = match_users(a, b)
    assert rep.k[0] == 2  # max overlap 0 -> whole population
    assert not rep.unique_correct[0]
    assert not rep.better_than_random[0]
    assert rep.unique_correct[1]


def test_tie_set_counts_as_non_unique():
    # Users 0 and 1 share an identical profile on both sites: the argmax
    # group has k=2 and neither is uniquely re-identified.
    a = {0: {1, 2}, 1: {1, 2}, 2: {30, 31}}
    b = {0: {1, 2}, 1: {1, 2}, 2: {30, 31}}
    rep = match_users(a, b)
    assert rep.k[0] == 2 and rep.k[1] == 2
    assert not rep.unique_correct[0] and not rep.unique_correct[1]
    assert rep.better_than_random[0] and rep.better_than_random[1]
    assert rep.unique_correct[2]


def test_better_than_random_requires_truth_and_small_group():
    a = {0: {1}, 1: {2}, 2: {3}}
    b = {0: {9}, 1: {2}, 2: {3}}
    rep = match_users(a, b)
    # User 0 has zero overlap everywhere: k = n.
    assert rep.k[0] == 3
    assert rep.better_than_random_rate == 0.0
    assert rep.unique_correct[1] and rep.unique_correct[2]


def test_match_users_requires_same_universe():
    with pytest.raises(ValueError, match="universe"):
        match_users({0: {1}}, {1: {1}})


def test_match_users_default_width_is_the_largest_topic():
    rng = np.random.default_rng(4)
    a = {u: set(rng.choice(np.arange(1, 50), size=3, replace=False).tolist()) for u in range(100)}
    b = {u: set(rng.choice(np.arange(1, 50), size=3, replace=False).tolist()) for u in range(100)}
    default, wide = match_users(a, b), match_users(a, b, omega=349)
    assert np.array_equal(default.k, wide.k)
    assert np.array_equal(default.contains_truth, wide.contains_truth)
    # Ids above the bundled taxonomy's 349 need no width argument; a
    # given omega refuses them.
    assert match_users({0: {500}, 1: {2}}, {0: {500}, 1: {3}}).k.tolist() == [1, 2]
    with pytest.raises(ValueError, match="topic id 500 is above omega = 349"):
        match_users({0: {500}, 1: {2}}, {0: {500}, 1: {3}}, omega=349)


def test_match_report_invariants_random_sets():
    rng = np.random.default_rng(5)
    a = {u: set(rng.choice(50, size=3, replace=False).tolist()) for u in range(200)}
    b = {u: set(rng.choice(50, size=3, replace=False).tolist()) for u in range(200)}
    rep = match_users(a, b, omega=60)
    assert np.all(rep.k >= 1) and np.all(rep.k <= 200)
    # unique_correct implies contains_truth and k == 1
    assert np.all(~rep.unique_correct | (rep.contains_truth & (rep.k == 1)))
    # better_than_random implies contains_truth and 1 < k < n
    assert np.all(~rep.better_than_random | (rep.contains_truth & (rep.k > 1) & (rep.k < 200)))


def test_k_cdf_monotone():
    rng = np.random.default_rng(6)
    a = {u: set(rng.choice(30, size=2, replace=False).tolist()) for u in range(100)}
    rep = match_users(a, a, omega=40)
    sizes, cdf = rep.k_cdf()
    assert np.all(np.diff(sizes) > 0)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0)


def small_two_site_world(taxonomy, n=150, epochs=8, seed=3):
    users = population_from_records(
        UserProfile(i, frozenset(), frozenset(), make_profile(500 + i)) for i in range(n)
    )
    cfg = SimConfig(epochs=epochs, sites=("wa", "wb"), seed=seed)
    log = run_scenario(users, cfg, taxonomy)
    counts = np.zeros(350, dtype=np.int64)
    counts[1:200] = 40
    prev = PrevalenceTable(counts=counts, total_domains=1000)
    return users, log, prev


def test_run_reidentification_report_structure(taxonomy):
    users, log, prev = small_two_site_world(taxonomy)
    rep = run_reidentification(log, "wa", "wb", prev, DenoiserConfig(), report_epochs=[1, 4, 8])
    assert rep.epochs == (1, 4, 8)
    assert len(rep.unique_rates) == 3
    assert all(0.0 <= r <= 1.0 for r in rep.unique_rates)
    assert rep.n_users == 150
    lines = rep.csv_lines()
    assert lines[0] == "epoch,unique_rate,better_than_random_rate"
    assert len(lines) == 4
    k_lines = rep.k_cdf_csv_lines(4)
    assert k_lines[0] == "k,cdf"


def test_run_reidentification_more_epochs_help(taxonomy):
    users, log, prev = small_two_site_world(taxonomy, n=200, epochs=10)
    rep = run_reidentification(log, "wa", "wb", prev, DenoiserConfig(), report_epochs=[1, 10])
    assert rep.unique_rate_at(10) >= rep.unique_rate_at(1)
    assert rep.unique_rate_at(10) > 0.3


def test_reid_report_requires_input():
    with pytest.raises(ValueError):
        reid_report([])


def test_match_report_validates_shapes():
    with pytest.raises(ValueError):
        MatchReport(epoch=1, k=np.array([1, 2]), contains_truth=np.array([True]), n_users=2)


@st.composite
def overlap_inputs(draw):
    """Two 0/1 matrices over the same users: empty, equal, 8-10-topic and over-cap rows.

    `wide` names the sides that get rows over `MAX_SUBSET_TOPICS`, which
    the matcher compares against their dense form.
    """
    wide = draw(st.sampled_from([(), ("a",), ("b",), ("a", "b")]))
    n = draw(st.integers(min_value=1, max_value=40))
    width = draw(st.integers(min_value=MAX_SUBSET_TOPICS + 1 if wide else 0, max_value=MAX_SUBSET_TOPICS + 4))
    rows = st.integers(min_value=0, max_value=n - 1)
    out = []
    for side in ("a", "b"):
        m = draw(arrays(np.bool_, (n, width)))
        if side not in wide:
            m[np.count_nonzero(m, axis=1) > MAX_SUBSET_TOPICS] = False
        for i in draw(st.lists(rows, max_size=3)):
            m[i] = False  # zero overlap with everyone: k = n
        for i, j in draw(st.lists(st.tuples(rows, rows), max_size=4)):
            m[i] = m[j]  # equal rows tie
        # Rows of 8 to 10 topics, or over the cap on a `wide` side, each
        # also copied to a second row to tie with it.
        sizes = (MAX_SUBSET_TOPICS + 1, width) if side in wide else (8, min(width, MAX_SUBSET_TOPICS))
        if sizes[0] <= sizes[1]:
            sized = st.tuples(rows, rows, st.integers(*sizes))
            for i, j, size in draw(st.lists(sized, min_size=side in wide, max_size=3)):
                m[i] = False
                m[i, draw(st.permutations(range(width)))[:size]] = True
                m[j] = m[i]
        out.append(m)
    return tuple(out)


def topic_table(mat: np.ndarray, seed: int = 0) -> np.ndarray:
    """The topic table of a 0/1 matrix: each row's column ids and a spare -1 slot, in shuffled order."""
    mat = np.asarray(mat, dtype=bool)
    table = np.full((mat.shape[0], int(np.count_nonzero(mat, axis=1).max(initial=0)) + 1), -1, dtype=np.int64)
    rows, cols = np.nonzero(mat)
    table[rows, np.arange(rows.size) - np.searchsorted(rows, rows)] = cols
    return np.random.default_rng(seed).permuted(table, axis=1)


def rows_of(width: int, *sets) -> np.ndarray:
    """A 0/1 matrix with one row per set of column ids."""
    mat = np.zeros((len(sets), width), dtype=bool)
    for i, cols in enumerate(sets):
        mat[i, list(cols)] = True
    return mat


@pytest.mark.parametrize("first_topic", [1, 7, 1024])
@settings(max_examples=400, deadline=None)
@example(mats=(np.zeros((1, 0), bool), np.zeros((1, 0), bool)))
# Every A set is wider than every B set: at the top levels only A has rows to query.
@example(mats=(rows_of(8, range(6), range(1, 7), [0, 2, 4, 5, 6, 7]), rows_of(8, [0, 1], [2, 3], [6, 7])))
# One side all empty.
@example(mats=(np.zeros((3, 6), bool), rows_of(6, [0, 1, 2], [1], [])))
@example(mats=(rows_of(6, [0, 1, 2], [], [3, 4]), np.zeros((3, 6), bool)))
# 8-10-topic rows on A only; with first_topic 1024 they take the dense path and B's rows do not.
@example(mats=(rows_of(12, range(9), range(1, 9), [0, 5], range(10)), rows_of(12, range(7), [1, 2, 3], range(2, 9), [9, 11])))
# 4-topic rows on both sides, so level 4 runs: on int32 keys at first_topic 1, on int64 keys at 1024.
# (Levels of at most DENSE_KEY_SPACE keys are counted densely, so small ids take that path
# at every level, and first_topic 1024 takes the sorted one from level 2 on.)
@example(mats=(rows_of(4, range(4), [0, 1]), rows_of(4, range(4), [2, 3])))
@given(mats=overlap_inputs())
def test_argmax_match_both_directions_equal_one_way_oracle(first_topic, mats):
    # Drawn topics start at id `first_topic`, as taxonomy ids start at 1.
    # Past id 1000 the subset cap falls to 7, so 8-10-topic rows on
    # either side are also compared against their dense form.
    a, b = (np.pad(m, ((0, 0), (first_topic, 0))) for m in mats)
    level_dtypes = {}

    def spy(sets, live, j, binom):
        queries, count = level_keys(sets, live, j, binom)
        level_dtypes.setdefault(j, set()).update(q.dtype for q in queries.values())
        return queries, count

    with mock.patch.object(topicsim.reidentify, "_level_keys", spy):
        k_ab, c_ab, k_ba, c_ba = _argmax_match(topic_table(a), topic_table(b, seed=1))
    # A level's keys lie below C(width, j), width one past the greatest id: int32 while that fits.
    width = max(np.flatnonzero(np.any(m, axis=0)).max(initial=0) for m in (a, b)) + 1
    assert level_dtypes == {j: {np.dtype(np.int32 if math.comb(width, j) < 2**31 else np.int64)} for j in level_dtypes}
    if 4 in level_dtypes and first_topic in (1, 1024):
        assert level_dtypes[4] == {np.dtype({1: np.int32, 1024: np.int64}[first_topic])}
    fa, fb = a.astype(np.float32), b.astype(np.float32)
    ref_k_ab, ref_c_ab = argmax_match_one_way(fa, fb)
    ref_k_ba, ref_c_ba = argmax_match_one_way(fb, fa)
    assert np.array_equal(k_ab, ref_k_ab) and np.array_equal(c_ab, ref_c_ab)
    assert np.array_equal(k_ba, ref_k_ba) and np.array_equal(c_ba, ref_c_ba)


def test_argmax_match_lowers_subset_cap_for_wide_topic_spaces():
    # With ids up to 2000, 10-topic subset keys would overflow int64, so
    # 8-10-topic rows must be compared against their dense form to stay exact.
    rng = np.random.default_rng(3)
    a = rng.random((30, 2000)) < 0.003
    b = rng.random((30, 2000)) < 0.003
    a[:6, :9] = True
    b[4:10, 3:13] = True
    got = _argmax_match(topic_table(a), topic_table(b, seed=1))
    fa, fb = a.astype(np.float32), b.astype(np.float32)
    for g, want in zip(got, (*argmax_match_one_way(fa, fb), *argmax_match_one_way(fb, fa))):
        assert np.array_equal(g, want)


def test_argmax_match_needs_same_users():
    with pytest.raises(ValueError, match="same users"):
        _argmax_match(np.ones((3, 2), np.float32), np.ones((4, 2), np.float32))


def test_run_reidentification_equals_two_call_oracle():
    world = build_world(wide_pool_config(n_users=2_000, seed=1))
    log = run_scenario(world.population, SimConfig(epochs=30, sites=("wa", "wb"), seed=101), world.taxonomy)
    rep = run_reidentification(log, "wa", "wb", world.prevalence, DenoiserConfig())
    ref = reidentify_two_calls(log, "wa", "wb", world.prevalence, DenoiserConfig())
    assert rep.epochs == ref.epochs == tuple(range(1, 31))
    assert rep.unique_rates == ref.unique_rates
    assert rep.better_than_random_rates == ref.better_than_random_rates
    assert rep.reverse_unique_rates == ref.reverse_unique_rates
    for e in rep.epochs:
        for got, want in zip(rep.k_cdfs[e], ref.k_cdfs[e]):
            assert np.array_equal(got, want)
    assert rep.miss_counts == ref.miss_counts


def test_run_reidentification_does_not_depend_on_initial_slots(monkeypatch):
    """One slot to start with (the tables double many times) or the default:
    equal reports, and the matcher is fed K-wide topic tables, not omega + 1 columns."""
    import topicsim.denoiser
    import topicsim.reidentify

    world = build_world(wide_pool_config(n_users=2_000, seed=1))
    log = run_scenario(world.population, SimConfig(epochs=30, sites=("wa", "wb"), seed=101), world.taxonomy)
    fed = []

    def spy(a, b):
        fed.append((a.shape, b.shape))
        return _argmax_match(a, b)

    monkeypatch.setattr(topicsim.reidentify, "_argmax_match", spy)
    reports = []
    for slots in (1, topicsim.denoiser.INITIAL_SLOTS):
        monkeypatch.setattr(topicsim.denoiser, "INITIAL_SLOTS", slots)
        reports.append(run_reidentification(log, "wa", "wb", world.prevalence, DenoiserConfig(),
                                            report_epochs=[1, 2, 5, 30]))
    one, default = reports
    assert (one.unique_rates, one.better_than_random_rates, one.reverse_unique_rates, one.miss_counts) == (
        default.unique_rates, default.better_than_random_rates, default.reverse_unique_rates, default.miss_counts)
    for e in default.epochs:
        for got, want in zip(one.k_cdfs[e], default.k_cdfs[e]):
            assert np.array_equal(got, want)
    assert len(fed) == 8
    assert all(shape[1] < world.taxonomy.omega + 1 for pair in fed for shape in pair)


def test_miss_counts_partition_non_unique_users():
    # 0, 5: unique; 1, 2: tied with each other; 3: empty set, so k = n;
    # 4: its argmax is user 5, whose B-side set outscores 4's own.
    a = {0: {1, 2}, 1: {3, 4}, 2: {3, 4}, 3: set(), 4: {7, 8}, 5: {10}}
    b = {0: {1, 2}, 1: {3, 4}, 2: {3, 4}, 3: {9}, 4: {7}, 5: {7, 8, 10}}
    rep = match_users(a, b)
    assert (rep.n_whole_population, rep.n_tied, rep.n_wrong_argmax) == (1, 2, 1)
    assert int(rep.unique_correct.sum()) == 2


_MA_PROBE = """
import sys
import numpy
print("numpy" if "numpy.ma" in sys.modules else "", flush=True)
from topicsim.denoiser import DenoiserConfig
from topicsim.reidentify import run_reidentification
from topicsim.simulator import SimConfig, run_scenario
from topicsim.worlds import build_world, wide_pool_config
world = build_world(wide_pool_config(n_users=300, seed=1))
log = run_scenario(world.population, SimConfig(epochs=8, sites=("wa", "wb"), seed=2), world.taxonomy)
run_reidentification(log, "wa", "wb", world.prevalence, DenoiserConfig())
print("study" if "numpy.ma" in sys.modules else "")
"""


def test_reidentification_does_not_import_numpy_ma():
    """`numpy.ma` costs tens of milliseconds to import, and nothing in the
    study needs it; `np.unique` without counts would import it."""
    env = dict(os.environ, PYTHONPATH=str(Path(topicsim.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MA_PROBE], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    after_numpy, after_study = proc.stdout.split("\n")[:2]
    if after_numpy:
        pytest.skip("`import numpy` alone loads numpy.ma here")
    assert not after_study, "run_reidentification imported numpy.ma"
