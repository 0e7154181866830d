import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import stats

from conftest import make_profile
from reference import (
    call_api,
    epoch_topic_draw_reference,
    log_result,
    log_truth_draw,
    population_from_records,
    shuffle_order_reference,
    write_log_ndjson_reference,
    write_truth_ndjson_reference,
)
from topicsim.population import POPULATION_BLOCK_USERS, Profiles, UserProfile
from topicsim.simulator import SimConfig, _shuffle_order, epoch_topic_draw, run_scenario


def users_with_random_profiles(n, seed0=0):
    return population_from_records(
        UserProfile(i, frozenset(), frozenset(), make_profile(seed0 + i)) for i in range(n)
    )


def single_profile_users(n, profile=(1, 2, 3, 4, 5)):
    return population_from_records(UserProfile(i, frozenset(), frozenset(), tuple(profile)) for i in range(n))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(p=1.5)
    with pytest.raises(ValueError):
        SimConfig(tau=0)
    with pytest.raises(ValueError):
        SimConfig(sites=("a", "a"))


def test_no_noise_draw_stays_in_profile(taxonomy):
    user = users_with_random_profiles(1)[0]
    cfg = SimConfig(p=0.0, seed=5)
    for src in range(-2, 30):
        draw = epoch_topic_draw(user, "w", src, cfg, taxonomy)
        assert draw.topic in user.top_profile
        assert not draw.noisy


def test_all_noise_uniform_over_taxonomy(taxonomy):
    """1e6 pure-noise draws: per-topic counts within the binomial band."""
    cfg = SimConfig(p=1.0, epochs=1, sites=("w",), seed=11)
    users = single_profile_users(334_000)
    log = run_scenario(users, cfg, taxonomy)
    counts = np.bincount(log.truth_topics.ravel(), minlength=350)[1:]
    n = counts.sum()
    assert n >= 1_000_000
    expected = n / 349
    sd = np.sqrt(n * (1 / 349) * (348 / 349))
    assert np.abs(counts - expected).max() <= 3 * sd
    assert log.truth_noisy.all()


def test_pinning_repeated_calls_identical(taxonomy):
    user = users_with_random_profiles(1)[0]
    cfg = SimConfig(seed=9)
    a = epoch_topic_draw(user, "site-x", 4, cfg, taxonomy)
    b = epoch_topic_draw(user, "site-x", 4, cfg, taxonomy)
    assert a == b


def test_pinning_matches_scenario_arrays(taxonomy):
    users = users_with_random_profiles(50)
    cfg = SimConfig(epochs=10, sites=("wa", "wb"), seed=31)
    log = run_scenario(users, cfg, taxonomy)
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = int(rng.integers(50))
        site = cfg.sites[int(rng.integers(2))]
        src = int(rng.integers(1 - cfg.tau, cfg.epochs))
        draw = epoch_topic_draw(users[u], site, src, cfg, taxonomy)
        assert draw == log_truth_draw(log, site, u, src)
        assert draw == epoch_topic_draw_reference(users[u], site, src, cfg, taxonomy)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    user_id=st.integers(0, 2**40),
    site=st.sampled_from(["wa", 'a"b', "\u00fc.example", '\u00fc"x.example']),
    source_epoch=st.integers(-5, 59),
    p=st.sampled_from([0.0, 0.05, 1.0]),
    profile=st.lists(st.integers(1, 349), min_size=1, max_size=8),
)
@example(seed=0, user_id=2**40, site='\u00fc"x.example', source_epoch=-5, p=0.05, profile=[349] * 8)
def test_epoch_topic_draw_equals_the_scalar_reference(taxonomy, seed, user_id, site, source_epoch, p, profile):
    """The array draw at one key is the scalar draw: warm-start source epochs,
    ids past 32 bits, profiles of 1 to 8 topics, escaped and non-ASCII sites."""
    user = UserProfile(user_id, frozenset(), frozenset(), tuple(profile))
    cfg = SimConfig(p=p, seed=seed)
    assert epoch_topic_draw(user, site, source_epoch, cfg, taxonomy) == epoch_topic_draw_reference(
        user, site, source_epoch, cfg, taxonomy)


@pytest.mark.parametrize("topic", [0, 350, 2**16 + 1])
def test_epoch_topic_draw_refuses_a_profile_topic_outside_the_taxonomy(taxonomy, topic):
    """As `run_scenario` does: 350 is omega + 1, and 2**16 + 1 would wrap to topic 1 in the int16 draws."""
    user = UserProfile(4, frozenset(), frozenset(), (1, 2, topic))
    for p in (0.0, 1.0):
        with pytest.raises(ValueError, match=f"user 4 has topic {topic} in its profile, outside the taxonomy's 1..349"):
            epoch_topic_draw(user, "w", 1, SimConfig(p=p, seed=3), taxonomy)
        with pytest.raises(ValueError, match=f"user 4 has topic {topic} in its profile"):
            run_scenario(population_from_records([user]), SimConfig(p=p, epochs=1, sites=("w",)), taxonomy)


def test_call_returns_tau_topics(taxonomy):
    user = users_with_random_profiles(1)[0]
    res = call_api(user, "w", 5, SimConfig(seed=2), taxonomy)
    assert len(res.topics) == 3


def test_single_topic_profile_all_slots_equal(taxonomy):
    user = UserProfile(0, frozenset(), frozenset(), (42,) * 5)
    res = call_api(user, "w", 3, SimConfig(p=0.0, seed=7), taxonomy)
    assert res.topics == (42, 42, 42)


def test_sites_give_independent_draws(taxonomy):
    users = users_with_random_profiles(200)
    cfg = SimConfig(epochs=1, sites=("wa", "wb"), seed=13)
    log = run_scenario(users, cfg, taxonomy)
    same = log.truth_topics[0] == log.truth_topics[1]
    # Same-profile draws coincide by chance ~1/5; never systematically.
    frac = float(same.mean())
    assert 0.05 < frac < 0.5


def test_cross_site_independence_chi_square(taxonomy):
    """Joint per-source draws at two sites: chi-square does not reject
    independence at alpha=0.01."""
    users = single_profile_users(100_000)
    cfg = SimConfig(p=0.0, epochs=1, sites=("wa", "wb"), seed=17)
    log = run_scenario(users, cfg, taxonomy)
    a = log.truth_topics[0][:, 0]
    b = log.truth_topics[1][:, 0]
    table = np.zeros((5, 5))
    for i, ta in enumerate((1, 2, 3, 4, 5)):
        for j, tb in enumerate((1, 2, 3, 4, 5)):
            table[i, j] = np.sum((a == ta) & (b == tb))
    chi2, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.01


def test_epoch_must_be_positive(taxonomy):
    user = users_with_random_profiles(1)[0]
    with pytest.raises(ValueError):
        call_api(user, "w", 0, SimConfig(), taxonomy)


def test_scenario_complete_logs_and_noise_rate(taxonomy):
    users = users_with_random_profiles(2500)
    cfg = SimConfig(epochs=10, sites=("wa", "wb"), seed=23)
    log = run_scenario(users, cfg, taxonomy)
    assert log.topics.size == 2500 * 2 * 10 * 3
    m = log.topics.size
    sd = np.sqrt(0.05 * 0.95 / m)
    assert abs(log.noisy_slot_fraction() - 0.05) < 4 * sd


def test_scenario_empty_site_list(taxonomy, tmp_path):
    users = users_with_random_profiles(3)
    log = run_scenario(users, SimConfig(epochs=4, sites=(), seed=1), taxonomy)
    assert log.topics.size == 0
    path = tmp_path / "log.ndjson"
    log.write_ndjson(path, header={"seed": 1})
    assert path.read_text().splitlines() == ['{"header":{"seed":1}}']


def test_scenario_rejects_empty_population(taxonomy):
    with pytest.raises(ValueError):
        run_scenario(population_from_records([]), SimConfig(sites=("w",)), taxonomy)


def test_scenario_draws_over_the_profile_width(taxonomy):
    """T is the width of the population's profiles; width 0 is refused."""
    cfg = SimConfig(p=0.0, epochs=4, sites=("w",), seed=3)
    log = run_scenario(single_profile_users(50, profile=(1, 2, 3)), cfg, taxonomy)
    assert set(np.unique(log.truth_topics).tolist()) == {1, 2, 3}
    with pytest.raises(ValueError, match="profiles are empty"):
        run_scenario(single_profile_users(4, profile=()), cfg, taxonomy)


def test_object_api_agrees_with_scenario(taxonomy):
    users = users_with_random_profiles(20)
    cfg = SimConfig(epochs=6, sites=("wa",), seed=3)
    log = run_scenario(users, cfg, taxonomy)
    for u in (0, 7, 19):
        for epoch in (1, 4, 6):
            assert call_api(users[u], "wa", epoch, cfg, taxonomy) == log_result(log, "wa", u, epoch)


def test_slots_trace_to_truth_draws(taxonomy):
    users = users_with_random_profiles(30)
    cfg = SimConfig(epochs=5, sites=("wa",), seed=43)
    log = run_scenario(users, cfg, taxonomy)
    slot_sources = log.site_view("wa").slot_sources
    for u in range(30):
        for epoch in range(1, 6):
            res = log_result(log, "wa", u, epoch)
            sources = slot_sources[u, epoch - 1]
            assert sorted(sources) == list(range(epoch - 3, epoch))
            for slot, topic in enumerate(res.topics):
                draw = log_truth_draw(log, "wa", u, int(sources[slot]))
                assert draw.topic == topic


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_shuffle_order_equals_stable_sort(tau):
    """Placing each slot by its key's rank, ties broken by slot, is the stable
    sort's order, on keys with many ties and rows of equal keys."""
    gen = np.random.default_rng(tau)
    keys = gen.integers(0, 3, size=(400, 5, tau)).astype(np.uint64)
    keys[:20] = 2**53 - 1  # all-equal rows, at the largest 53-bit numerator
    keys[20:40] = 2**53 - 1 - gen.integers(0, 2, size=(20, 5, tau)).astype(np.uint64)
    keys[40, 0] = np.arange(tau, dtype=np.uint64)[::-1]  # strictly descending
    order = _shuffle_order(keys)
    assert order.shape == keys.shape
    assert np.array_equal(order, shuffle_order_reference(keys))


def test_call_equals_object_api_for_every_user_and_epoch(taxonomy):
    """`SiteLog.call` forms each call from the stored draws exactly as the
    object path assembles it from per-epoch draws and the keyed shuffle."""
    ids = np.random.default_rng(8).choice(10**6, size=25, replace=False)  # not 0..n-1, not sorted
    users = population_from_records(UserProfile(int(u), frozenset(), frozenset(), make_profile(i))
                                    for i, u in enumerate(ids))
    for tau in (1, 3, 4):
        cfg = SimConfig(tau=tau, p=0.3, epochs=6, sites=("wa", "wb"), seed=11)
        log = run_scenario(users, cfg, taxonomy)
        for site in cfg.sites:
            view = log.site_view(site)
            for epoch in range(1, cfg.epochs + 1):
                call = view.call(epoch)
                assert call.shape == (25, tau) and call.dtype == np.int16
                for row, user in enumerate(users):
                    assert tuple(call[row].tolist()) == call_api(user, site, epoch, cfg, taxonomy).topics


def test_truth_draws_across_a_user_block_boundary(taxonomy):
    """Draws are made one block of users at a time; the blocks change no draw."""
    users = users_with_random_profiles(POPULATION_BLOCK_USERS + 3)
    cfg = SimConfig(p=0.3, epochs=3, sites=("wa", "wb"), seed=5)
    log = run_scenario(users, cfg, taxonomy)
    rows = list(range(3)) + list(range(POPULATION_BLOCK_USERS - 3, POPULATION_BLOCK_USERS + 3))
    for si, site in enumerate(cfg.sites):
        call = log.site_view(site).call(3)
        for row in rows:
            for k, src in enumerate(log.source_epochs.tolist()):
                draw = epoch_topic_draw(users[row], site, src, cfg, taxonomy)
                assert (draw.topic, draw.noisy) == (log.truth_topics[si, row, k], log.truth_noisy[si, row, k])
            assert call_api(users[row], site, 3, cfg, taxonomy).topics == tuple(call[row].tolist())


def test_calls_read_in_any_epoch_order_are_equal(taxonomy):
    """A call is a pure function of the draws: reading epochs in descending
    order gives the arrays of the ascending read and of the full view."""
    users = users_with_random_profiles(40)
    cfg = SimConfig(epochs=7, sites=("wa",), seed=19)
    view = run_scenario(users, cfg, taxonomy).site_view("wa")
    descending = {e: view.call(e) for e in range(cfg.epochs, 0, -1)}
    for e in range(1, cfg.epochs + 1):
        assert np.array_equal(view.call(e), descending[e])
        assert np.array_equal(view.topics[:, e - 1], descending[e])
    assert not view.topics.flags.writeable
    for epoch in (0, cfg.epochs + 1):
        with pytest.raises(ValueError, match="epoch must be in 1..7"):
            view.call(epoch)


@pytest.mark.parametrize("tau, epochs", [(1, 6), (4, 6), (3, 0), (1, 0)])
def test_calls_of_any_epoch_array_equal_the_per_epoch_calls_and_views(taxonomy, tau, epochs):
    """One former serves every read: `calls` on an unsorted array with
    repeats, or an empty one, stacks the per-epoch `call`s, which are the
    rows of the `topics` view, and each slot holds its source's draw."""
    users = users_with_random_profiles(30)
    cfg = SimConfig(tau=tau, p=0.3, epochs=epochs, sites=("wa",), seed=23)
    log = run_scenario(users, cfg, taxonomy)
    view = log.site_view("wa")
    assert view.topics.shape == view.slot_sources.shape == (30, epochs, tau)
    for order in ([], [epochs, 1, epochs, 2, 1], list(range(epochs, 0, -1))):
        picked = np.array([e for e in order if 1 <= e <= epochs], dtype=np.int64)
        calls = view.calls(picked)
        assert calls.shape == (30, len(picked), tau) and calls.dtype == np.int16
        for k, e in enumerate(picked.tolist()):
            assert np.array_equal(calls[:, k], view.call(e))
            assert np.array_equal(calls[:, k], view.topics[:, e - 1])
            sources = view.slot_sources[:, e - 1].astype(np.int64)
            assert (np.sort(sources, axis=1) == np.arange(e - tau, e)).all()
            draws = np.take_along_axis(view.truth_topics, sources - log.source_epochs[0], axis=1)
            assert np.array_equal(calls[:, k], draws)
    valid = [epochs] if epochs else []
    for bad in (0, epochs + 1):
        with pytest.raises(ValueError, match=f"epoch must be in 1..{epochs}, got {bad}$"):
            view.call(bad)
        with pytest.raises(ValueError, match=f"epoch must be in 1..{epochs}, got {bad}$"):
            view.calls(np.array(valid + [bad, 0]))


def test_log_holds_only_the_truth_draws(taxonomy):
    """The log keeps no call: after every call is read, its arrays are
    still only the user ids, the truth draws and the source-epoch labels."""
    users = users_with_random_profiles(50)
    cfg = SimConfig(epochs=6, sites=("wa", "wb"), seed=29)
    log = run_scenario(users, cfg, taxonomy)
    for site in cfg.sites:
        view = log.site_view(site)
        for e in range(1, cfg.epochs + 1):
            view.call(e)
    held = sum(v.nbytes for v in vars(log).values() if isinstance(v, np.ndarray))
    assert held == sum(a.nbytes for a in (log.user_ids, log.truth_topics, log.truth_noisy, log.source_epochs))


@pytest.mark.parametrize("tau, epochs", [(3, 10), (1, 4), (4, 2), (2, 1), (3, 0)])
def test_noisy_slot_fraction_equals_the_slot_level_fraction(taxonomy, tau, epochs):
    users = users_with_random_profiles(60)
    log = run_scenario(users, SimConfig(tau=tau, p=0.3, epochs=epochs, sites=("wa", "wb"), seed=31), taxonomy)
    slot_sources = np.array([log.site_view(site).slot_sources for site in log.sites])
    src = slot_sources.astype(np.int64) - log.source_epochs[0]
    flags = np.take_along_axis(log.truth_noisy[:, :, None, :], src, axis=3)
    assert log.noisy_slot_fraction() == (float(flags.mean()) if flags.size else 0.0)


def test_scenario_deterministic(taxonomy):
    users = users_with_random_profiles(40)
    cfg = SimConfig(epochs=5, sites=("wa", "wb"), seed=77)
    a = run_scenario(users, cfg, taxonomy)
    b = run_scenario(users, cfg, taxonomy)
    assert np.array_equal(a.topics, b.topics)
    assert np.array_equal(a.truth_noisy, b.truth_noisy)


def test_truth_channel_separate_from_results(taxonomy, tmp_path):
    users = users_with_random_profiles(5)
    cfg = SimConfig(epochs=2, sites=("wa",), seed=5)
    log = run_scenario(users, cfg, taxonomy)
    log_path, truth_path = tmp_path / "log.ndjson", tmp_path / "truth.ndjson"
    log.write_ndjson(log_path, header={"seed": 5})
    log.write_truth_ndjson(truth_path, header={"seed": 5})
    log_lines = log_path.read_text().splitlines()
    truth_lines = truth_path.read_text().splitlines()
    assert log_lines[0].startswith('{"header"')
    assert len(log_lines) == 1 + 5 * 2
    assert len(truth_lines) == 1 + 5 * (2 + 3 - 1)
    assert "noisy" not in log_lines[1]
    assert "noisy" in truth_lines[1]


def _profiles(ids, seed=0):
    gen = np.random.default_rng(seed)
    profiles = np.argsort(gen.random((len(ids), 349)), axis=1)[:, :5] + 1
    return Profiles(user_ids=np.asarray(ids, dtype=np.int64), profiles=profiles.astype(np.int64))


_SCATTERED_IDS = [9_876_543, 12, 1_000_000, 7, 123_456_789_012, 3, 4_200_000, 99]


@pytest.mark.parametrize("ids, tau, epochs, sites", [
    (np.arange(POPULATION_BLOCK_USERS + 7), 3, 3, ("wa", "wb")),
    (_SCATTERED_IDS, 3, 4, ("wa",)),
    (_SCATTERED_IDS, 1, 5, ("wa", "wb")),
    (_SCATTERED_IDS, 4, 2, ("wa",)),
    (_SCATTERED_IDS, 3, 0, ("wa", "wb")),
    (_SCATTERED_IDS, 3, 2, ('\u00e9"x.example',)),
], ids=["two-blocks", "scattered-ids", "tau-1", "tau-4", "no-epochs", "escaped-site"])
def test_ndjson_writers_match_reference_bytes_at_edge_shapes(taxonomy, tmp_path, ids, tau, epochs, sites):
    """Past one user block, ids of 7 to 12 digits in no order, tau 1 and 4, no
    epochs (a header-only log and a truth file of negative source epochs) and a
    site name `json.dumps` escapes: both writers give the oracles' bytes."""
    log = run_scenario(_profiles(ids), SimConfig(tau=tau, p=0.3, epochs=epochs, sites=sites, seed=6), taxonomy)
    header = {"seed": 6}
    log.write_ndjson(tmp_path / "log.ndjson", header)
    write_log_ndjson_reference(log, tmp_path / "log_ref.ndjson", header)
    log.write_truth_ndjson(tmp_path / "truth.ndjson", header)
    write_truth_ndjson_reference(log, tmp_path / "truth_ref.ndjson", header)
    assert (tmp_path / "log.ndjson").read_bytes() == (tmp_path / "log_ref.ndjson").read_bytes()
    assert (tmp_path / "truth.ndjson").read_bytes() == (tmp_path / "truth_ref.ndjson").read_bytes()
    if not epochs:
        assert (tmp_path / "log.ndjson").read_text().splitlines() == ['{"header":{"seed":6}}']
        assert '"source_epoch":-2,' in (tmp_path / "truth.ndjson").read_text()


def test_user_block_view_calls_equal_the_whole_population_rows(taxonomy):
    """A call is keyed per user, so a view of some users' rows forms those
    rows of the whole population's call at every epoch."""
    n = 2 * POPULATION_BLOCK_USERS + 5
    log = run_scenario(users_with_random_profiles(n), SimConfig(p=0.3, epochs=6, sites=("wa", "wb"), seed=4),
                       taxonomy)
    for site in log.sites:
        whole = log.site_view(site)
        for lo in range(0, n, POPULATION_BLOCK_USERS):
            rows = slice(lo, lo + POPULATION_BLOCK_USERS)
            block = log.site_view(site, rows)
            assert np.array_equal(block.user_ids, log.user_ids[rows])
            for epoch in range(1, log.epochs + 1):
                assert np.array_equal(block.call(epoch), whole.call(epoch)[rows])


@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(st.integers(1, 12), st.integers(POPULATION_BLOCK_USERS - 2, POPULATION_BLOCK_USERS + 30)),
    id_seed=st.integers(0, 2**16),
    sites=st.lists(st.sampled_from(["wa", 'a"b', "a\\b", "\u00fc.example", "tab\tnl\n"]),
                   unique=True, max_size=3),
    epochs=st.integers(0, 5),
    tau=st.integers(1, 4),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    header=st.one_of(
        st.none(),
        st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
    ),
)
@example(n=POPULATION_BLOCK_USERS + 1, id_seed=0, sites=["wa", 'a"b'], epochs=2, tau=3, p=0.3,
         header={"seed": 1})
def test_ndjson_writers_match_reference_bytes(taxonomy, n, id_seed, sites, epochs, tau, p, header):
    """Both block writers give the bytes of one `json.dumps` per record."""
    gen = np.random.default_rng(id_seed)
    ids = gen.choice(10**6, size=n, replace=False)  # not 0..n-1, not sorted
    profiles = np.argsort(gen.random((n, 349)), axis=1)[:, :5] + 1
    users = population_from_records(UserProfile(int(u), frozenset(), frozenset(), tuple(row.tolist()))
                                    for u, row in zip(ids, profiles))
    cfg = SimConfig(tau=tau, p=p, epochs=epochs, sites=tuple(sites), seed=id_seed)
    log = run_scenario(users, cfg, taxonomy)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        log.write_ndjson(out / "log.ndjson", header=header)
        write_log_ndjson_reference(log, out / "log_ref.ndjson", header)
        log.write_truth_ndjson(out / "truth.ndjson", header=header)
        write_truth_ndjson_reference(log, out / "truth_ref.ndjson", header)
        assert (out / "log.ndjson").read_bytes() == (out / "log_ref.ndjson").read_bytes()
        assert (out / "truth.ndjson").read_bytes() == (out / "truth_ref.ndjson").read_bytes()
