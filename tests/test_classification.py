import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from reference import prevalence_reference, synthesize_skewed_classification_reference
from topicsim.classification import (
    ClassificationError,
    DomainClassification,
    SkewSpec,
    classification_lines,
    load_classification,
    prevalence,
    skewed_prevalence,
    synthesize_skewed_classification,
)
from topicsim.worlds import (
    PRESETS,
    SKEW as SKEW_TARGETS,
    aggressive_skew_config,
    synthetic_classification,
    synthetic_prevalence,
)

# The two ways to a synthetic classification's prevalence: draw its
# domains and count them, or read its per-topic targets.
BUILDERS = (synthesize_skewed_classification, skewed_prevalence)


def test_load_rejects_unknown_topic_id(taxonomy):
    with pytest.raises(ClassificationError, match="unknown topic id 999"):
        load_classification(io.StringIO("a.com\t1,999\n"), taxonomy)


@pytest.mark.parametrize("tid, refused", [(-1, True), (0, True), (1, False), (349, False), (350, True)])
def test_load_takes_topic_ids_one_to_omega_only(taxonomy, tid, refused):
    """The Unknown id 0 and anything past omega = 349 are not topics a domain can carry."""
    source = io.StringIO(f"a.com\t{tid}\n")
    if refused:
        with pytest.raises(ClassificationError, match=f"row 1: unknown topic id {tid}$"):
            load_classification(source, taxonomy)
    else:
        assert load_classification(source, taxonomy).topics_of("a.com") == frozenset({tid})


def test_load_rejects_duplicate_domain(taxonomy):
    with pytest.raises(ClassificationError, match="duplicate domain"):
        load_classification(io.StringIO("a.com\t1\na.com\t2\n"), taxonomy)


def test_load_allows_empty_topic_list(taxonomy):
    cls = load_classification(io.StringIO("a.com\t\nb.com\t5\n"), taxonomy)
    assert cls.topics_of("a.com") == frozenset()
    assert cls.topics_of("b.com") == {5}


def test_save_load_roundtrip(tmp_path, taxonomy):
    cls = DomainClassification({"a.com": {3, 1}, "b.com": set()})
    path = tmp_path / "cls.tsv"
    path.write_text("".join(classification_lines(cls)), encoding="utf-8")
    back = load_classification(path, taxonomy)
    assert back.entries == cls.entries


def test_prevalence_singleton(taxonomy):
    cls = DomainClassification({"d.com": {7}})
    table = prevalence(cls, taxonomy)
    assert table.counts[7] == 1
    assert table.counts[1:].sum() == 1
    assert table.total_domains == 1


def test_prevalence_refuses_a_topic_outside_the_taxonomy(taxonomy):
    cls = DomainClassification({"a.com": {7}, "b.com": {3, 400}})
    with pytest.raises(ClassificationError, match="topic id 400 is not in the taxonomy's 1..349"):
        prevalence(cls, taxonomy)


def test_prevalence_rename_invariance(taxonomy):
    entries = {"a.com": {1, 2}, "b.com": {2}, "c.com": set()}
    renamed = {f"x-{k}": v for k, v in entries.items()}
    t1 = prevalence(DomainClassification(entries), taxonomy)
    t2 = prevalence(DomainClassification(renamed), taxonomy)
    assert np.array_equal(t1.counts, t2.counts)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        keys=st.text(alphabet="abcdef", min_size=1, max_size=6),
        values=st.sets(st.integers(min_value=1, max_value=349), max_size=5),
        max_size=30,
    )
)
def test_prevalence_sum_identity(taxonomy, entries):
    cls = DomainClassification(entries)
    table = prevalence(cls, taxonomy)
    assert table.counts[1:].sum() == sum(len(v) for v in entries.values())
    assert table.counts.max(initial=0) <= max(len(entries), 0)
    assert np.array_equal(table.counts, prevalence_reference(cls, taxonomy).counts)


@pytest.mark.parametrize("preset", ["wide-pool", "aggressive-skew"])
def test_prevalence_matches_per_pair_oracle(taxonomy, preset):
    """The CSR bincount counts what a loop over the mapping counts."""
    cls = synthetic_classification(PRESETS[preset](n_users=1, seed=1), taxonomy)
    got, want = prevalence(cls, taxonomy), prevalence_reference(cls, taxonomy)
    assert np.array_equal(got.counts, want.counts)
    assert got.total_domains == want.total_domains == len(cls)


def test_csr_views(taxonomy):
    cls = DomainClassification({"b.com": [9, 2, 2], "a.com": (), "c.com": {4}})
    assert cls.names == ("b.com", "a.com", "c.com")
    assert cls.indptr.tolist() == [0, 2, 2, 3]
    assert cls.topics.tolist() == [2, 9, 4]
    assert cls.entries == {"b.com": {2, 9}, "a.com": frozenset(), "c.com": {4}}
    assert cls.topics_of("b.com") == {2, 9} and cls.topics_of("zzz") == frozenset()
    assert cls.rows_of(["c.com", "zzz", "b.com"]).tolist() == [2, -1, 0]
    assert cls.rows_of(cls.names).tolist() == cls.rows_of(list(cls.names)).tolist() == [0, 1, 2]


SKEW = SkewSpec(zero_topics=42, top_fraction=0.188, median=66)


@pytest.mark.slow
def test_synthesize_million_domain_targets(taxonomy):
    cls = synthesize_skewed_classification(
        taxonomy, 1_000_000, SKEW, seed=7, head_topics=42, head_floor=600
    )
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == 42
    assert table.max_count() == pytest.approx(188_000, rel=0.10)
    assert np.median(table.counts[1:]) == pytest.approx(66, rel=0.10)
    assert len(cls) == 1_000_000


def test_synthesize_desk_scale_targets(taxonomy):
    spec = SkewSpec(zero_topics=42, top_fraction=0.188, median=4)
    cls = synthesize_skewed_classification(
        taxonomy, 50_000, spec, seed=7, head_topics=26, head_floor=8
    )
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == 42
    assert table.max_count() == pytest.approx(0.188 * 50_000, rel=0.10)
    assert np.median(table.counts[1:]) == pytest.approx(4, rel=0.10)


def test_synthesize_loose_uniform_limit(taxonomy):
    spec = SkewSpec(zero_topics=0, top_fraction=1 / 349, median=80)
    cls = synthesize_skewed_classification(taxonomy, 50_000, spec, seed=3, head_topics=1, head_floor=1)
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == 0
    # Flat spec: max within 10% of the uniform share, nothing degenerate.
    assert table.max_count() <= 1.1 * 50_000 / 349
    assert table.counts[1:].min() >= 1


def test_synthesize_deterministic(taxonomy):
    spec = SkewSpec(zero_topics=10, top_fraction=0.1, median=5)
    a = synthesize_skewed_classification(taxonomy, 5_000, spec, seed=11, head_topics=20, head_floor=10)
    b = synthesize_skewed_classification(taxonomy, 5_000, spec, seed=11, head_topics=20, head_floor=10)
    assert a.entries == b.entries
    c = synthesize_skewed_classification(taxonomy, 5_000, spec, seed=12, head_topics=20, head_floor=10)
    assert a.entries != c.entries


def test_synthesize_rejects_infeasible_spec(taxonomy):
    for build in BUILDERS:
        with pytest.raises(ClassificationError):
            build(
                taxonomy, 1_000, SkewSpec(zero_topics=42, top_fraction=0.01, median=500), seed=0,
                head_topics=42, head_floor=10,
            )
        with pytest.raises(ClassificationError):
            build(
                taxonomy, 1_000, SkewSpec(zero_topics=400, top_fraction=0.1, median=2), seed=0,
                head_topics=42, head_floor=10,
            )


@st.composite
def synthesis_cases(draw):
    n_domains = draw(st.integers(30, 600))
    top_fraction = draw(st.floats(0.05, 0.5))
    return dict(
        n_domains=n_domains,
        skew_spec=SkewSpec(
            zero_topics=draw(st.integers(0, 150)),
            top_fraction=top_fraction,
            median=draw(st.integers(1, min(5, int(top_fraction * n_domains)))),
        ),
        seed=draw(st.integers(0, 2**32)),
        head_topics=draw(st.integers(1, 200)),
        head_floor=draw(st.integers(1, 20)),
    )


@settings(max_examples=25, deadline=None)
@given(synthesis_cases())
@example(dict(n_domains=50_000, skew_spec=SkewSpec(42, 0.188, 4), seed=1, head_topics=180,
              head_floor=60))
@example(dict(n_domains=5_000, skew_spec=SkewSpec(10, 0.1, 5), seed=11, head_topics=20,
              head_floor=10))
def test_synthesize_matches_per_topic_oracle(taxonomy, case):
    try:
        got = synthesize_skewed_classification(taxonomy, **case)
    except ClassificationError:
        assume(False)  # an infeasible spec or window; the oracle would fail or hang
    want = synthesize_skewed_classification_reference(taxonomy, **case)
    assert got.entries == want.entries
    assert got.names == want.names
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.topics, want.topics)
    assert np.array_equal(skewed_prevalence(taxonomy, **case).counts, prevalence(got, taxonomy).counts)


def test_synthesize_refuses_a_count_larger_than_its_window(taxonomy):
    # At 10 domains the floor window (0.4, 1.0) holds 6; a median of 5
    # jitters floor counts over 2..8.
    spec = SkewSpec(zero_topics=0, top_fraction=0.5, median=5)
    for build in BUILDERS:
        for seed in (0, 1, 2):
            with pytest.raises(ClassificationError, match=r"needs [78] domains, more than the 6 of its window"):
                build(taxonomy, 10, spec, seed=seed, head_topics=5, head_floor=1)
        # One over: a median of 4.6 jitters floor counts over 2..7.
        with pytest.raises(ClassificationError, match="needs 7 domains, more than the 6 of its window"):
            build(
                taxonomy, 10, SkewSpec(zero_topics=0, top_fraction=0.5, median=4.6), seed=0,
                head_topics=1, head_floor=1,
            )
    # A window exactly as large as the count is filled completely.
    cls = synthesize_skewed_classification(
        taxonomy, 10, SkewSpec(zero_topics=0, top_fraction=0.5, median=4), seed=0,
        head_topics=1, head_floor=1,
    )
    table = prevalence(cls, taxonomy)
    full = np.flatnonzero(table.counts == 6)
    assert full.size
    floor_domains = cls.domains()[4:]
    for tid in full.tolist():
        assert [d for d in cls.domains() if tid in cls.topics_of(d)] == floor_domains


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_aggressive_skew_world_meets_all_three_targets(taxonomy, seed):
    cls = synthetic_classification(aggressive_skew_config(n_users=1, seed=seed), taxonomy)
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == SKEW_TARGETS.zero_topics
    assert table.max_count() == pytest.approx(SKEW_TARGETS.top_fraction * len(cls), rel=0.10)
    assert np.median(table.counts[1:]) == pytest.approx(SKEW_TARGETS.median, rel=0.10)


@pytest.mark.parametrize("n_domains", [2_000, 5_000, 50_000])
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_skewed_prevalence_matches_synthesis(taxonomy, preset, seed, n_domains):
    config = replace(PRESETS[preset](n_users=1, seed=seed), n_domains=n_domains)
    args = dict(skew_spec=SKEW_TARGETS, seed=seed, head_topics=config.head_topics, head_floor=config.head_floor)
    want = prevalence(synthesize_skewed_classification(taxonomy, n_domains, **args), taxonomy)
    for got in (skewed_prevalence(taxonomy, n_domains, **args), synthetic_prevalence(config, taxonomy)):
        assert got.counts.dtype == want.counts.dtype
        assert np.array_equal(got.counts, want.counts)
        assert got.total_domains == want.total_domains == n_domains
