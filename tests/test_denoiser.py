from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import make_profile
from reference import (
    BASIS_ACROSS_CALLS,
    BASIS_THRESHOLD,
    BASIS_WITHIN_CALL,
    GENUINE,
    NOISY,
    ApiResult,
    TruthChannel,
    denoise_multi_shot,
    evaluate_denoiser,
    log_result,
    population_from_records,
    recovered_matrix,
    threshold_classify,
    truth_channel,
)
from topicsim.classification import PrevalenceTable
from topicsim.denoiser import (
    INITIAL_SLOTS,
    DenoiseMetrics,
    DenoiserConfig,
    MultiShotEngine,
    denoise_site_trajectory,
)
from topicsim.population import UserProfile
from topicsim.simulator import EpochDraw, SimConfig, SiteLog, run_scenario
from topicsim.worlds import build_world, wide_pool_config


def prevalence_with(above=(), below=(), above_count=50, below_count=3, omega=349):
    counts = np.zeros(omega + 1, dtype=np.int64)
    for t in above:
        counts[t] = above_count
    for t in below:
        counts[t] = below_count
    return PrevalenceTable(counts=counts, total_domains=1000)


def res(topics, epoch=1, user=0):
    return ApiResult(topics=tuple(topics), epoch=epoch, site="w", user_id=user)


def engine_genuine(history, prev, cfg=DenoiserConfig()):
    """The engine's genuine topics for one user after `history`.

    Each call is padded with suppressed slots to tau = 3, the width the
    engine reads tau from; epochs the history skips are fed as calls with
    every slot suppressed.
    """
    calls = {r.epoch: r.topics for r in history}
    engine = MultiShotEngine(1, 349, prev, cfg)
    for epoch in range(1, history[-1].epoch + 1):
        row = (list(calls.get(epoch, ())) + [-1] * 3)[:3]
        engine.observe_epoch(epoch, np.array([row], dtype=np.int16))
    return set(np.nonzero(engine.genuine_matrix()[0])[0].tolist())


def test_threshold_rule_boundaries():
    cfg = DenoiserConfig(threshold=10)
    prev = prevalence_with(above=(1,), below=(2,), above_count=11, below_count=10)
    assert threshold_classify(1, prev, cfg) == GENUINE  # 11 > 10
    assert threshold_classify(2, prev, cfg) == NOISY    # 10 is not more than 10
    assert threshold_classify(3, prev, cfg) == NOISY    # count 0
    assert threshold_classify(3, prev, DenoiserConfig(threshold=0)) == NOISY
    assert MultiShotEngine(1, 349, prev, cfg).threshold_pass[[1, 2, 3]].tolist() == [True, False, False]
    assert not MultiShotEngine(1, 349, prev, DenoiserConfig(threshold=0)).threshold_pass[3]


def test_one_shot_repeat_beats_threshold():
    prev = prevalence_with(below=(5,))
    history = [res([5, 5, 200])]
    verdict = denoise_multi_shot(history, prev).verdict
    assert verdict.label_of(5).label == GENUINE
    assert verdict.label_of(5).basis == BASIS_WITHIN_CALL
    assert verdict.label_of(200).label == NOISY
    assert verdict.label_of(200).basis == BASIS_THRESHOLD
    assert engine_genuine(history, prev) == {5}


def test_one_shot_all_above_threshold():
    prev = prevalence_with(above=(1, 2, 3))
    history = [res([1, 2, 3])]
    verdict = denoise_multi_shot(history, prev).verdict
    assert all(v.label == GENUINE for v in verdict.topic_labels.values())
    assert all(v.basis == BASIS_THRESHOLD for v in verdict.topic_labels.values())
    assert engine_genuine(history, prev) == {1, 2, 3}


def test_multi_shot_gap_rule():
    prev = prevalence_with()
    history = [res([7], epoch=2), res([7], epoch=6)]
    out = denoise_multi_shot(history, prev)
    assert out.verdict.label_of(7).label == GENUINE
    assert out.verdict.label_of(7).basis == BASIS_ACROSS_CALLS
    assert out.recovered == {7}
    assert engine_genuine(history, prev) == {7}


def test_multi_shot_small_gap_not_confirmed_by_default():
    prev = prevalence_with()
    history = [res([7], epoch=2), res([7], epoch=4)]
    assert denoise_multi_shot(history, prev).verdict.label_of(7).label == NOISY
    assert engine_genuine(history, prev) == set()
    aggressive = DenoiserConfig(aggressive_gap_rule=True)
    assert denoise_multi_shot(history, prev, aggressive).verdict.label_of(7).label == GENUINE
    assert engine_genuine(history, prev, aggressive) == {7}


def test_multi_shot_threshold_only_in_cold_window():
    prev = prevalence_with(above=(9,))
    # Topic 9 observed once, never repeated: trusted only while calls
    # with disjoint windows are impossible.
    history = [res([9], epoch=1)]
    assert denoise_multi_shot(history, prev).verdict.label_of(9).label == GENUINE
    assert engine_genuine(history, prev) == {9}
    history = [res([9], epoch=1), res([42], epoch=5)]
    out = denoise_multi_shot(history, prev)
    assert out.verdict.label_of(9).label == NOISY
    assert engine_genuine(history, prev) == set()


def test_multi_shot_freeze_marks_rest_noisy():
    prev = prevalence_with(above=(30,))
    history = [
        res([1, 2, 3], epoch=1),
        res([1, 2, 3], epoch=4),
        res([4, 5, 30], epoch=5),
        res([1, 2, 3], epoch=7),
        res([4, 5, 30], epoch=8),
        res([4, 5, 9], epoch=11),
    ]
    out = denoise_multi_shot(history, prev, DenoiserConfig(T=5))
    # Six topics are confirmed; the five with the most independent
    # evidence make the recovered profile, the straggler is noisy.
    assert out.recovered == {1, 2, 3, 4, 5}
    assert out.frozen
    assert out.verdict.label_of(30).label == NOISY
    assert engine_genuine(history, prev, DenoiserConfig(T=5)) == {1, 2, 3, 4, 5}


def test_eviction_tie_break_prefers_prevalent_topics():
    # Equal repetition evidence everywhere: the prevalence prior breaks
    # the tie, because a confirmed-but-rare topic is the likelier fluke.
    prev = prevalence_with(above=(1, 2, 3, 4, 30))
    history = [
        res([1, 2, 3], epoch=1),
        res([1, 2, 3], epoch=4),
        res([4, 5, 30], epoch=5),
        res([4, 5, 30], epoch=8),
    ]
    out = denoise_multi_shot(history, prev, DenoiserConfig(T=5))
    assert out.recovered == {1, 2, 3, 4, 30}
    assert out.verdict.label_of(5).label == NOISY
    assert engine_genuine(history, prev, DenoiserConfig(T=5)) == {1, 2, 3, 4, 30}


@pytest.mark.parametrize(
    "calls, kept",
    [
        # Both confirmed within their call: the earlier sighting stays.
        ([[40, 40, -1], [7, 7, -1]], 40),
        # Both confirmed within one call: the lower id stays.
        ([[40, 40, 7, 7]], 7),
    ],
)
def test_eviction_tie_break_prefers_earlier_sighting_then_lower_id(calls, kept):
    """Equal evidence and prior: the engine ranks by slot, the oracle by first sighting and id."""
    prev = prevalence_with(above=(7, 40))
    cfg = DenoiserConfig(T=1)
    engine = MultiShotEngine(1, 349, prev, cfg)
    for e, call in enumerate(calls):
        engine.observe_epoch(e + 1, np.array([call], dtype=np.int16))
    history = [res([t for t in call if t >= 0], epoch=e + 1) for e, call in enumerate(calls)]
    outcome = denoise_multi_shot(history, prev, cfg, tau=len(calls[0]))
    assert np.nonzero(recovered_matrix(engine)[0])[0].tolist() == [kept]
    assert outcome.recovered == {kept}


def test_multi_shot_requires_single_ordered_site():
    prev = prevalence_with()
    with pytest.raises(ValueError, match="sites"):
        denoise_multi_shot(
            [res([1]), ApiResult((2,), 2, "other", 0)], prev
        )
    with pytest.raises(ValueError, match="ordered"):
        denoise_multi_shot([res([1], epoch=2), res([2], epoch=2)], prev)


def test_evaluate_perfect_classifier():
    prev = prevalence_with(above=(1, 2))
    outcome = denoise_multi_shot([res([1, 2, 300])], prev)
    truth = TruthChannel(
        draws={(0, -2): EpochDraw(1, False), (0, -1): EpochDraw(2, False), (0, 0): EpochDraw(300, True)},
        profiles={0: frozenset({1, 2, 3, 4, 5})},
    )
    ev = evaluate_denoiser({0: outcome}, truth, through_epoch=1)
    assert ev.metrics.accuracy == 1.0
    assert ev.metrics.fpr == 0.0
    assert ev.metrics.tpr == 1.0


def test_evaluate_naive_all_genuine():
    # 20 draws, one of them noisy; the verdict calls everything genuine.
    prev = prevalence_with(above=tuple(range(1, 25)))
    calls = [res(list(range(3 * i + 1, 3 * i + 4)), epoch=1) for i in range(1)]
    outcome = denoise_multi_shot(calls, prev)
    truth = TruthChannel(
        draws={
            (0, -2): EpochDraw(1, False),
            (0, -1): EpochDraw(2, False),
            (0, 0): EpochDraw(3, True),
        },
        profiles={0: frozenset({1, 2, 10, 11, 12})},
    )
    ev = evaluate_denoiser({0: outcome}, truth, through_epoch=1)
    assert ev.metrics.tpr == 0.0
    assert ev.metrics.precision is None
    assert ev.metrics.accuracy == pytest.approx(2 / 3)


def test_evaluate_rejects_missing_truth():
    prev = prevalence_with(above=(1,))
    outcome = denoise_multi_shot([res([1, 1, 1])], prev)
    truth = TruthChannel(draws={}, profiles={0: frozenset()})
    with pytest.raises(ValueError, match="no draws"):
        evaluate_denoiser({0: outcome}, truth, through_epoch=1)


def test_metrics_none_denominators():
    m = DenoiseMetrics(tp=0, fp=0, tn=0, fn=0)
    assert m.accuracy is None and m.precision is None and m.tpr is None and m.fpr is None


def test_noisy_draw_inside_profile_counts_genuine():
    truth = TruthChannel(
        draws={(0, 0): EpochDraw(4, True)}, profiles={0: frozenset({4})}
    )
    assert not truth.effectively_noisy(0, 0)


topic_ids = st.integers(min_value=1, max_value=30)
calls_strategy = st.lists(
    st.lists(topic_ids, min_size=3, max_size=3), min_size=1, max_size=10
)


@st.composite
def engine_cases(draw):
    """tau plus one call list per user (1-4 users, equal epoch counts);
    topic 0 in a draw stands for a suppressed slot (-1)."""
    tau = draw(st.integers(min_value=1, max_value=4))
    epochs = draw(st.integers(min_value=1, max_value=10))
    slot = st.integers(min_value=0, max_value=30).map(lambda t: t or -1)
    call = st.lists(slot, min_size=tau, max_size=tau)
    user = st.lists(call, min_size=epochs, max_size=epochs)
    return tau, draw(st.lists(user, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(
    case=engine_cases(),
    T=st.integers(min_value=1, max_value=6),
    threshold=st.sampled_from([0, 2, 3, 10, 49, 50]),
    aggressive=st.booleans(),
)
# Adjacent users both hold three confirmed topics over T = 2, and the
# prevalence prior decides each eviction: ranking restarts per user.
@example(
    case=(2, [[[20, 20], [2, 2], [3, 3]], [[4, 4], [21, 21], [6, 6]]]),
    T=2, threshold=10, aggressive=False,
)
def test_engine_matches_object_denoiser(case, T, threshold, aggressive):
    tau, users = case
    counts = np.zeros(350, dtype=np.int64)
    counts[1:15] = 50
    counts[15:25] = 3
    prev = PrevalenceTable(counts=counts, total_domains=1000)
    cfg = DenoiserConfig(threshold=threshold, T=T, aggressive_gap_rule=aggressive)

    engine = MultiShotEngine(len(users), 349, prev, cfg)
    for e in range(len(users[0])):
        engine.observe_epoch(e + 1, np.array([calls[e] for calls in users], dtype=np.int16))
    genuine, recovered, sizes = engine.genuine_matrix(), recovered_matrix(engine), engine.recovered_sizes()

    for u, calls in enumerate(users):
        history = [res([t for t in topics if t >= 0], epoch=e + 1) for e, topics in enumerate(calls)]
        outcome = denoise_multi_shot(history, prev, cfg, tau)
        assert set(np.nonzero(genuine[u])[0].tolist()) == set(outcome.verdict.genuine_topics()), u
        assert set(np.nonzero(recovered[u])[0].tolist()) == set(outcome.recovered), u
        assert sizes[u] == len(outcome.recovered), u


def test_slot_tables_grow_when_a_user_sees_more_topics_than_slots():
    """User 0 meets two new topics per epoch, so the tables widen mid-run;
    the engine still equals the object-level denoiser at every epoch."""
    counts = np.zeros(350, dtype=np.int64)
    counts[1:40] = 50
    prev = PrevalenceTable(counts=counts, total_domains=1000)
    calls = [
        [[2 * e + 1, 2 * e + 2, 2 * e + 1] for e in range(12)],  # 24 distinct topics
        [[5, 6, 5]] * 12,
    ]
    engine = MultiShotEngine(2, 349, prev, DenoiserConfig())
    widths = []
    for e in range(12):
        engine.observe_epoch(e + 1, np.array([user[e] for user in calls], dtype=np.int16))
        widths.append(engine.topic.shape[0])
        genuine, recovered = engine.genuine_matrix(), recovered_matrix(engine)
        for u, user in enumerate(calls):
            outcome = denoise_multi_shot([res(c, epoch=i + 1) for i, c in enumerate(user[: e + 1])], prev)
            assert set(np.nonzero(genuine[u])[0].tolist()) == set(outcome.verdict.genuine_topics()), (e, u)
            assert set(np.nonzero(recovered[u])[0].tolist()) == set(outcome.recovered), (e, u)
            assert engine.recovered_sizes()[u] == len(outcome.recovered), (e, u)
    assert widths[0] == INITIAL_SLOTS < widths[-1] == 32
    assert np.count_nonzero(engine.topic >= 0, axis=0).tolist() == [24, 2]
    assert sorted(engine.topic[:24, 0].tolist()) == list(range(1, 25))


ENGINE_TABLES = ("topic", "next_count", "greedy_ev", "evidence", "ever_genuine")


@st.composite
def suppressed_cases(draw):
    """tau plus one call list per user, each slot a topic or a suppressed id."""
    tau = draw(st.integers(min_value=1, max_value=4))
    epochs = draw(st.integers(min_value=1, max_value=8))
    slot = st.one_of(st.sampled_from([-1, -5, -40_000]), st.integers(min_value=1, max_value=30))
    user = st.lists(st.lists(slot, min_size=tau, max_size=tau), min_size=epochs, max_size=epochs)
    return tau, draw(st.lists(user, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(case=suppressed_cases(), aggressive=st.booleans())
def test_suppressed_entries_never_match_an_empty_slot(case, aggressive):
    """With one initial slot every user's tables widen, so empty slots (-1)
    sit next to calls of suppressed ids; the engine equals the object-level
    denoiser at every epoch, and a call of only -1 changes no table."""
    import topicsim.denoiser

    tau, users = case
    prev = prevalence_with(above=range(1, 15), below=range(15, 25))
    cfg = DenoiserConfig(T=3, aggressive_gap_rule=aggressive)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topicsim.denoiser, "INITIAL_SLOTS", 1)
        engine = MultiShotEngine(len(users), 349, prev, cfg)
    epochs = len(users[0])
    for e in range(epochs):
        engine.observe_epoch(e + 1, np.array([calls[e] for calls in users], dtype=np.int64))
        genuine, recovered, sizes = engine.genuine_matrix(), recovered_matrix(engine), engine.recovered_sizes()
        for u, calls in enumerate(users):
            history = [res([t for t in topics if t >= 0], epoch=i + 1) for i, topics in enumerate(calls[: e + 1])]
            outcome = denoise_multi_shot(history, prev, cfg, tau)
            assert set(np.nonzero(genuine[u])[0].tolist()) == set(outcome.verdict.genuine_topics()), (e, u)
            assert set(np.nonzero(recovered[u])[0].tolist()) == set(outcome.recovered), (e, u)
            assert sizes[u] == len(outcome.recovered), (e, u)
    before = [getattr(engine, name).copy() for name in ENGINE_TABLES]
    engine.observe_epoch(epochs + 1, np.full((len(users), tau), -1, dtype=np.int16))
    for name, table in zip(ENGINE_TABLES, before):
        assert np.array_equal(getattr(engine, name), table), name


@st.composite
def permuted_cases(draw):
    """tau, one call list per user (few topic ids, so calls repeat topics, and
    suppressed ids) and the same calls with each user's slots permuted
    independently at every epoch."""
    tau = draw(st.integers(min_value=1, max_value=4))
    epochs = draw(st.integers(min_value=1, max_value=8))
    slot = st.one_of(st.sampled_from([-1, -5, -40_000]), st.integers(min_value=1, max_value=8))
    user = st.lists(st.lists(slot, min_size=tau, max_size=tau), min_size=epochs, max_size=epochs)
    calls = np.array(draw(st.lists(user, min_size=1, max_size=4)), dtype=np.int64).reshape(-1, epochs, tau)
    permuted = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permuted(calls, axis=2)
    return calls, permuted


@settings(max_examples=150, deadline=None)
@given(case=permuted_cases(), aggressive=st.booleans(), slots=st.sampled_from([INITIAL_SLOTS, 1]))
@example(
    case=(np.array([[[7, 7, -1], [2, 7, 9]], [[-5, 4, 4], [4, -1, 3]]]),
          np.array([[[-1, 7, 7], [9, 2, 7]], [[4, 4, -5], [3, 4, -1]]])),
    aggressive=False, slots=1,
)
def test_engine_reads_each_call_as_a_multiset(case, aggressive, slots):
    """The order of a call's slots changes no label and no table: the attack
    loops feed the engine each epoch's draws in source order, not in the
    order the API returns them."""
    import topicsim.denoiser

    calls, permuted = case
    prev = prevalence_with(above=range(1, 5), below=range(5, 9))
    cfg = DenoiserConfig(T=2, aggressive_gap_rule=aggressive)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topicsim.denoiser, "INITIAL_SLOTS", slots)
        in_order, shuffled = (MultiShotEngine(len(calls), 349, prev, cfg) for _ in range(2))
    for e in range(calls.shape[1]):
        labels = in_order.observe_epoch(e + 1, calls[:, e])
        assert np.array_equal(shuffled.observe_epoch(e + 1, permuted[:, e]), labels), e
        for name in ENGINE_TABLES:
            assert np.array_equal(getattr(shuffled, name), getattr(in_order, name)), (e, name)


def test_engine_state_has_no_topic_columns():
    """After 30 epochs at 2k users, every per-user table is K slots wide, not omega + 1."""
    world = build_world(wide_pool_config(n_users=2_000, seed=1))
    omega = world.taxonomy.omega
    log = run_scenario(world.population, SimConfig(epochs=30, sites=("w",), seed=101), world.taxonomy)
    site = log.site_view("w")
    engine = MultiShotEngine(site.n_users, omega, world.prevalence, DenoiserConfig())
    for e in range(1, 31):
        engine.observe_epoch(e, site.topics[:, e - 1, :])
    tables = {name: v for name, v in vars(engine).items() if isinstance(v, np.ndarray) and v.ndim == 2}
    assert set(tables) == set(ENGINE_TABLES)
    k = engine.topic.shape[0]
    assert all(v.shape == (k, 2_000) for v in tables.values())
    assert k < omega + 1
    assert int(np.count_nonzero(engine.topic >= 0, axis=0).max()) <= k


def test_observe_epoch_rejects_topic_above_omega():
    engine = MultiShotEngine(2, 349, prevalence_with(), DenoiserConfig())
    with pytest.raises(ValueError, match="above omega"):
        engine.observe_epoch(1, np.array([[1, 2, 3], [4, 350, -1]], dtype=np.int16))
    assert engine.current_epoch == 0
    # Any negative id is a suppressed slot.
    engine.observe_epoch(1, np.array([[7, 7, -1], [-5, 349, 349]], dtype=np.int16))
    assert np.nonzero(recovered_matrix(engine))[1].tolist() == [7, 349]


def test_engine_refuses_a_prevalence_table_of_another_taxonomy():
    with pytest.raises(ValueError, match=r"prevalence table has 350 entries, expected omega \+ 1 = 22"):
        MultiShotEngine(2, 21, prevalence_with(), DenoiserConfig())


@pytest.mark.parametrize("aggressive", [False, True])
def test_engine_reads_tau_from_the_first_call(aggressive):
    """The first call's width is tau; a call of another width is refused."""
    engine = MultiShotEngine(1, 349, prevalence_with(), DenoiserConfig(aggressive_gap_rule=aggressive))
    engine.observe_epoch(1, np.array([[5, -1, -1, -1]], dtype=np.int16))
    assert (engine.tau, engine.gap) == (4, 2 if aggressive else 4)
    with pytest.raises(ValueError, match="call of epoch 2 has 3 slots, but the first call had 4"):
        engine.observe_epoch(2, np.array([[5, 6, 7]], dtype=np.int16))
    assert engine.current_epoch == 1
    engine.observe_epoch(2, np.array([[5, 6, 7, -1]], dtype=np.int16))
    assert engine.current_epoch == 2


@pytest.mark.parametrize("rows", [1, 4])
def test_observe_epoch_rejects_row_count_mismatch(rows):
    engine = MultiShotEngine(3, 349, prevalence_with(), DenoiserConfig())
    with pytest.raises(ValueError, match="one row per user"):
        engine.observe_epoch(1, np.full((rows, 3), 5, dtype=np.int16))
    assert engine.current_epoch == 0
    # The refused epoch can still be fed correctly.
    engine.observe_epoch(1, np.array([[5, 5, 5], [-1, -1, -1], [9, 9, -1]], dtype=np.int16))
    assert engine.current_epoch == 1
    assert np.nonzero(recovered_matrix(engine))[1].tolist() == [5, 9]

@settings(max_examples=60, deadline=None)
@given(calls_strategy)
def test_confirmed_set_monotone_in_history(calls):
    prev = prevalence_with(above=tuple(range(1, 10)))
    engine = MultiShotEngine(1, 349, prev, DenoiserConfig())
    confirmed_before: set[int] = set()
    size_before = 0
    for e, topics in enumerate(calls):
        engine.observe_epoch(e + 1, np.array([topics], dtype=np.int16))
        confirmed = {int(t) for t, ev in zip(engine.topic[:, 0], engine.evidence[:, 0]) if t >= 0 and ev >= 2}
        assert confirmed >= confirmed_before  # never un-confirm
        size = int(engine.recovered_sizes()[0])
        assert size >= size_before
        confirmed_before = confirmed
        size_before = size


def stable_scenario(taxonomy, n_users=400, epochs=12, seed=5):
    users = population_from_records(
        UserProfile(i, frozenset(), frozenset(), make_profile(100 + i)) for i in range(n_users)
    )
    cfg = SimConfig(epochs=epochs, sites=("w",), seed=seed)
    return users, run_scenario(users, cfg, taxonomy)


def test_observe_epoch_reads_strided_and_int64_calls_alike(taxonomy):
    """A call read as a strided view of the log and as a C-contiguous
    int64 copy gives equal tables at every epoch."""
    _, log = stable_scenario(taxonomy, n_users=300, epochs=8)
    site = log.site_view("w")
    prev = prevalence_with(above=range(1, 200))
    view_fed, copy_fed = (MultiShotEngine(site.n_users, 349, prev, DenoiserConfig()) for _ in range(2))
    for e in range(1, 9):
        call = site.topics[:, e - 1, :]
        assert not call.flags.c_contiguous
        view_fed.observe_epoch(e, call)
        copy_fed.observe_epoch(e, np.ascontiguousarray(call, dtype=np.int64))
        for name in ENGINE_TABLES:
            assert np.array_equal(getattr(view_fed, name), getattr(copy_fed, name)), (e, name)
    assert np.count_nonzero(view_fed.evidence >= 2) > 0


def test_threshold_sweep_traces_roc_frontier(taxonomy):
    """Raising the threshold flags more topics noisy: both the true- and
    false-positive rates rise monotonically (an ROC frontier)."""
    users, log = stable_scenario(taxonomy)
    counts = np.zeros(350, dtype=np.int64)
    rng = np.random.default_rng(1)
    counts[1:] = rng.integers(0, 400, size=349)
    prev = PrevalenceTable(counts=counts, total_domains=5000)
    site = log.site_view("w")
    tprs, fprs = [], []
    for threshold in (0, 1, 2, 5, 10, 20, 50, 100, 500, 1000):
        cfg = DenoiserConfig(threshold=threshold)
        traj = denoise_site_trajectory(site, prev, cfg, users)
        tprs.append(traj.points[0].metrics.tpr)
        fprs.append(traj.points[0].metrics.fpr)
    assert all(b >= a - 1e-9 for a, b in zip(tprs, tprs[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(fprs, fprs[1:]))
    assert tprs[-1] > tprs[0]


def test_trajectory_recovered_sets_monotone_and_bounded(taxonomy):
    users, log = stable_scenario(taxonomy)
    prev = prevalence_with(above=tuple(range(1, 43)))
    traj = denoise_site_trajectory(log.site_view("w"), prev, DenoiserConfig(), users)
    meds = [pt.median_recovered for pt in traj.points]
    assert all(b >= a for a, b in zip(meds, meds[1:]))
    assert all(pt.max_recovered <= 5 for pt in traj.points)


def test_trajectory_matches_object_evaluation(taxonomy):
    """Vectorized per-epoch metrics equal the object-level evaluation at
    every epoch, the cold-start ones included, where the warm-start draws
    of source epochs <= 0 are already seen."""
    users, log, prev, cfg = object_evaluation_scenario(taxonomy)
    traj = denoise_site_trajectory(log.site_view("w"), prev, cfg, users)
    assert [pt.epoch for pt in traj.points] == list(range(1, 7))
    assert_matches_object_evaluation(traj, log, users, prev, cfg)


def object_evaluation_scenario(taxonomy):
    """60 users on site "w" over 6 epochs, topics 1..99 above the threshold."""
    users, log = stable_scenario(taxonomy, n_users=60, epochs=6)
    counts = np.zeros(350, dtype=np.int64)
    counts[1:100] = 40
    return users, log, PrevalenceTable(counts=counts, total_domains=1000), DenoiserConfig()


def assert_matches_object_evaluation(traj, log, users, prev, cfg):
    """Each point of site "w"'s trajectory equals `evaluate_denoiser` over
    the object-level denoiser's outcomes through that epoch."""
    truth = truth_channel(log.site_view("w"), users)
    for point in traj.points:
        outcomes = {}
        for u in range(len(users)):
            history = [log_result(log, "w", u, e) for e in range(1, point.epoch + 1)]
            outcomes[u] = denoise_multi_shot(history, prev, cfg)
        ev = evaluate_denoiser(outcomes, truth, through_epoch=point.epoch)
        assert (point.metrics.tp, point.metrics.fp, point.metrics.tn, point.metrics.fn) == (
            ev.metrics.tp, ev.metrics.fp, ev.metrics.tn, ev.metrics.fn
        ), point.epoch
        assert (point.min_recovered, point.median_recovered, point.max_recovered) == (
            ev.min_recovered, ev.median_recovered, ev.max_recovered
        ), point.epoch


def test_trajectory_does_not_depend_on_initial_slots(taxonomy, monkeypatch):
    """With one initial slot the engine's tables widen after draws were
    indexed into them; the trajectory equals the default's, and the
    object-level evaluation at every epoch."""
    import topicsim.denoiser

    users, log, prev, cfg = object_evaluation_scenario(taxonomy)
    site = log.site_view("w")
    trajectories = {}
    for slots in (INITIAL_SLOTS, 1):
        monkeypatch.setattr(topicsim.denoiser, "INITIAL_SLOTS", slots)
        trajectories[slots] = denoise_site_trajectory(site, prev, cfg, users)
    engine = MultiShotEngine(site.n_users, 349, prev, cfg)
    widths = [engine.observe_epoch(e, site.call(e)).shape[0] for e in range(1, 7)]
    assert 1 < widths[0] < widths[-1]
    assert trajectories[1].csv_lines() == trajectories[INITIAL_SLOTS].csv_lines()
    assert_matches_object_evaluation(trajectories[1], log, users, prev, cfg)


def test_trajectory_refuses_a_population_other_than_the_logs(taxonomy):
    """Row i of the profiles scores the log's user i, so only the population
    the log was simulated from is taken: the same users in another order,
    and a population that lacks a log user, are refused."""
    users, log = stable_scenario(taxonomy, n_users=20, epochs=3)
    site = log.site_view("w")
    denoise_site_trajectory(site, prevalence_with(), DenoiserConfig(), users)
    reversed_rows = population_from_records(list(users)[::-1])
    fewer = population_from_records(u for u in users if u.user_id != 13)
    for other in (reversed_rows, fewer):
        with pytest.raises(ValueError, match="the population's user ids are not the log's, in the log's order"):
            denoise_site_trajectory(site, prevalence_with(), DenoiserConfig(), other)


def test_trajectory_refuses_config_of_another_log(taxonomy):
    """T is the adversary's assumption, which the calls do not reveal."""
    users, log = stable_scenario(taxonomy, n_users=20, epochs=4)
    site = log.site_view("w")
    with pytest.raises(ValueError, match="denoiser T = 4, but the population's profiles hold 5 topics"):
        denoise_site_trajectory(site, prevalence_with(), DenoiserConfig(T=4), users)


def test_trajectory_refuses_a_log_whose_calls_miss_seen_draws(taxonomy):
    """Every draw seen by epoch e was returned by a call up to e; a log
    without that property is refused rather than scored short."""
    users, log = stable_scenario(taxonomy, n_users=20, epochs=4)

    class BlankedFirstCall(SiteLog):
        def window(self, epoch):
            topics = super().window(epoch).copy()
            if epoch == 1:
                topics[3] = -1  # user 3's first call, all warm-start draws
            return topics

    site = log.site_view("w")
    blanked = BlankedFirstCall(**{f.name: getattr(site, f.name) for f in fields(SiteLog)})
    with pytest.raises(ValueError, match="a draw seen by epoch 1 is missing from the calls"):
        denoise_site_trajectory(blanked, prevalence_with(), DenoiserConfig(), users)


def test_median_user_fully_recovered_after_thirty_epochs(taxonomy):
    """With stable interests, 30 epochs of observation recover the exact
    top profile for the typical user."""
    users = population_from_records(
        UserProfile(i, frozenset(), frozenset(), make_profile(900 + i)) for i in range(400)
    )
    log = run_scenario(users, SimConfig(epochs=30, sites=("w",), seed=8), taxonomy)
    counts = np.zeros(350, dtype=np.int64)
    counts[1:] = 40
    prev = PrevalenceTable(counts=counts, total_domains=1000)
    engine = MultiShotEngine(400, 349, prev, DenoiserConfig())
    site = log.site_view("w")
    for e in range(1, 31):
        engine.observe_epoch(e, site.topics[:, e - 1, :])
    recovered = recovered_matrix(engine)
    exact = 0
    for i, u in enumerate(users):
        got = set(np.nonzero(recovered[i])[0].tolist())
        exact += got == set(u.top_profile)
    assert exact / 400 > 0.5


@pytest.mark.slow
def test_repetition_soundness_rate(taxonomy):
    """Independent-window repetition almost never blesses a noise topic.

    For a topic outside the profile, the chance it lands in both of two
    disjoint tau-slot windows is (1 - (1 - p/omega)^tau)^2 ~ 1.8e-7, so
    false confirmations over 1e7 paired-window trials stay below 1e-6.
    """
    from topicsim import rng as trng

    p, omega, tau = 0.05, 349, 3
    target = 7  # outside every profile used below
    trials = 10_000_000
    hits = 0
    batch = 1_000_000
    for start in range(0, trials, batch):
        ids = np.arange(start, start + batch, dtype=np.int64)
        in_window = []
        for window in (0, 1):
            present = np.zeros(batch, dtype=bool)
            for slot in range(tau):
                noisy = trng.uniform(99, ids, window, slot, 1) < p
                topic = (trng.uniform(99, ids, window, slot, 2) * omega).astype(np.int64) + 1
                present |= noisy & (topic == target)
            in_window.append(present)
        hits += int(np.sum(in_window[0] & in_window[1]))
    assert hits / trials < 1e-6
