import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from reference import synthesize_skewed_classification_reference
from topicsim.classification import (
    ClassificationError,
    DomainClassification,
    SkewSpec,
    load_classification,
    prevalence,
    save_classification,
    synthesize_skewed_classification,
)

# Per-domain topic-count histogram of the bundled hand-annotation fixture.
STATIC_HISTOGRAM = {0: 1344, 1: 4135, 2: 2350, 3: 1073, 4: 270, 5: 59, 6: 20, 7: 3}


def test_static_mapping_size(static_mapping):
    assert len(static_mapping) == 9254


def test_static_mapping_empty_domains(static_mapping):
    assert static_mapping.empty_domain_count() == 1344


def test_static_mapping_median_topics_per_domain(static_mapping):
    assert float(np.median(static_mapping.topics_per_domain())) == 1.0


def test_static_mapping_histogram(static_mapping):
    sizes = static_mapping.topics_per_domain()
    got = {int(k): int(v) for k, v in zip(*np.unique(sizes, return_counts=True))}
    assert got == STATIC_HISTOGRAM


def test_static_mapping_respects_topic_cap(static_mapping):
    assert int(static_mapping.topics_per_domain().max()) <= 7


def test_load_rejects_unknown_topic_id(taxonomy):
    with pytest.raises(ClassificationError, match="unknown topic id 999"):
        load_classification(io.StringIO("a.com\t1,999\n"), taxonomy)


def test_load_rejects_duplicate_domain(taxonomy):
    with pytest.raises(ClassificationError, match="duplicate domain"):
        load_classification(io.StringIO("a.com\t1\na.com\t2\n"), taxonomy)


def test_load_allows_empty_topic_list(taxonomy):
    cls = load_classification(io.StringIO("a.com\t\nb.com\t5\n"), taxonomy)
    assert cls.topics_of("a.com") == frozenset()
    assert cls.topics_of("b.com") == {5}


def test_load_enforces_optional_cap(taxonomy):
    body = "a.com\t1,2,3,4,5,6,7,8\n"
    with pytest.raises(ClassificationError, match="cap"):
        load_classification(io.StringIO(body), taxonomy, max_topics_per_domain=7)


def test_save_load_roundtrip(tmp_path, taxonomy):
    cls = DomainClassification({"a.com": {3, 1}, "b.com": set()}, source_label="x")
    path = tmp_path / "cls.tsv"
    save_classification(cls, path)
    back = load_classification(path, taxonomy)
    assert back.entries == cls.entries


def test_prevalence_singleton(taxonomy):
    cls = DomainClassification({"d.com": {7}})
    table = prevalence(cls, taxonomy)
    assert table.count_of(7) == 1
    assert table.counts[1:].sum() == 1
    assert table.total_domains == 1


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


def test_static_prevalence_shape(static_prevalence):
    # The bundled fixture mirrors published hand-annotation skew: a bulk
    # of never-observed topics and a small-median long tail.
    assert static_prevalence.zero_count_topics() == 95
    assert static_prevalence.total_domains == 9254


SKEW = SkewSpec(zero_topics=42, top_fraction=0.188, median=66)


@pytest.mark.slow
def test_synthesize_million_domain_targets(taxonomy):
    cls = synthesize_skewed_classification(taxonomy, 1_000_000, SKEW, seed=7)
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == 42
    assert table.max_count() == pytest.approx(188_000, rel=0.10)
    assert table.median_count() == pytest.approx(66, rel=0.10)
    assert len(cls) == 1_000_000


def test_synthesize_desk_scale_targets(taxonomy):
    spec = SkewSpec(zero_topics=42, top_fraction=0.188, median=4)
    cls = synthesize_skewed_classification(taxonomy, 50_000, spec, seed=7, head_topics=26)
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == 42
    assert table.max_count() == pytest.approx(0.188 * 50_000, rel=0.10)
    assert table.median_count() == pytest.approx(4, rel=0.10)


def test_synthesize_loose_uniform_limit(taxonomy):
    spec = SkewSpec(zero_topics=0, top_fraction=1 / 349, median=80)
    cls = synthesize_skewed_classification(taxonomy, 50_000, spec, seed=3)
    table = prevalence(cls, taxonomy)
    assert table.zero_count_topics() == 0
    # Flat spec: max within 10% of the uniform share, nothing degenerate.
    assert table.max_count() <= 1.1 * 50_000 / 349
    assert table.counts[1:].min() >= 1


def test_synthesize_deterministic(taxonomy):
    spec = SkewSpec(zero_topics=10, top_fraction=0.1, median=5)
    a = synthesize_skewed_classification(taxonomy, 5_000, spec, seed=11, head_topics=20)
    b = synthesize_skewed_classification(taxonomy, 5_000, spec, seed=11, head_topics=20)
    assert a.entries == b.entries
    c = synthesize_skewed_classification(taxonomy, 5_000, spec, seed=12, head_topics=20)
    assert a.entries != c.entries


def test_synthesize_rejects_infeasible_spec(taxonomy):
    with pytest.raises(ClassificationError):
        synthesize_skewed_classification(
            taxonomy, 1_000, SkewSpec(zero_topics=42, top_fraction=0.01, median=500), seed=0
        )
    with pytest.raises(ClassificationError):
        synthesize_skewed_classification(
            taxonomy, 1_000, SkewSpec(zero_topics=400, top_fraction=0.1, median=2), seed=0
        )


@st.composite
def synthesis_cases(draw):
    n_domains = draw(st.integers(30, 600))
    top_fraction = draw(st.floats(0.05, 0.5))
    window = st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0))
    return dict(
        n_domains=n_domains,
        skew_spec=SkewSpec(
            zero_topics=draw(st.integers(0, 150)),
            top_fraction=top_fraction,
            median=draw(st.integers(1, min(5, int(top_fraction * n_domains)))),
        ),
        seed=draw(st.integers(0, 2**32)),
        head_topics=draw(st.none() | st.integers(1, 200)),
        head_floor=draw(st.none() | st.integers(1, 20)),
        head_placement=draw(st.none() | window),
        tail_placement=draw(window),
    )


@settings(max_examples=25, deadline=None)
@given(synthesis_cases())
@example(dict(n_domains=50_000, skew_spec=SkewSpec(42, 0.188, 4), seed=1, head_topics=180,
              head_floor=60, head_placement=(0.0, 1.0), tail_placement=(0.4, 1.0)))
@example(dict(n_domains=5_000, skew_spec=SkewSpec(10, 0.1, 5), seed=11, head_topics=None,
              head_floor=None, head_placement=None, tail_placement=(0.05, 1.0)))
def test_synthesize_matches_per_topic_oracle(taxonomy, case):
    try:
        got = synthesize_skewed_classification(taxonomy, **case)
    except ClassificationError:
        assume(False)  # an infeasible spec or window; the oracle would fail or hang
    want = synthesize_skewed_classification_reference(taxonomy, **case)
    assert got.entries == want.entries
    # Each domain's topics come in the same order, so the sets iterate alike.
    assert [list(ts) for ts in got.entries.values()] == [list(ts) for ts in want.entries.values()]


def test_synthesize_refuses_a_count_larger_than_its_window(taxonomy):
    spec = SkewSpec(zero_topics=0, top_fraction=0.5, median=2)
    with pytest.raises(ClassificationError, match=r"needs 500 domains, more than the 100 .*\(0\.0, 0\.1\)"):
        synthesize_skewed_classification(
            taxonomy, 1000, spec, seed=0, head_topics=5, head_placement=(0.0, 0.1)
        )
    with pytest.raises(ClassificationError, match="needs 500 domains, more than the 499 "):
        synthesize_skewed_classification(
            taxonomy, 1000, spec, seed=0, head_topics=5, head_placement=(0.0, 0.499)
        )
    # A window exactly as large as the count is filled completely.
    cls = synthesize_skewed_classification(
        taxonomy, 1000, spec, seed=0, head_topics=5, head_placement=(0.0, 0.5)
    )
    assert prevalence(cls, taxonomy).max_count() == 500
    with pytest.raises(ClassificationError, match="falls outside the 1000 domains"):
        synthesize_skewed_classification(taxonomy, 1000, spec, seed=0, tail_placement=(1.0, 1.0))
