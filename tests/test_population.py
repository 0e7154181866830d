import io
import math
import re
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import stats

from reference import derive_top_profile, generate_population_reference, write_population_reference
from topicsim import population, rng
from topicsim.classification import DomainClassification
from topicsim.taxonomy import Taxonomy, Topic
from topicsim.population import (
    DEFAULT_FIXED_TOP,
    Population,
    PopulationError,
    RankedDomainList,
    TrafficModel,
    CountHistogram,
    UniqueDomainCountModel,
    UserProfile,
    build_total_order,
    etld_plus_one,
    generate_population,
    load_bucket_file,
    load_count_histogram,
    load_rank_file,
    read_population,
    read_profiles,
    summarize_population,
    top_profiles,
    write_population,
)


def test_default_fixed_top_list():
    assert DEFAULT_FIXED_TOP == (
        "www.google.com",
        "www.youtube.com",
        "www.facebook.com",
        "www.whatsapp.com",
        "www.roblox.com",
        "www.amazon.com",
    )


def test_total_order_sorts_bucket_by_rank():
    bins = {"b.com": "1k", "a.com": "1k", "c.com": "5k"}
    ranks = {"a.com": 1, "b.com": 2}
    order = build_total_order(bins, ranks)
    assert order.domains == ("a.com", "b.com", "c.com")


def test_total_order_unranked_after_ranked():
    bins = {"x.com": "1k", "y.com": "1k", "z.com": "1k"}
    ranks = {"z.com": 5}
    order = build_total_order(bins, ranks)
    assert order.domains == ("z.com", "x.com", "y.com")  # then lexicographic


def test_total_order_fixed_top_first():
    bins = {d: "1k" for d in DEFAULT_FIXED_TOP}
    bins["other.com"] = "1k"
    order = build_total_order(bins, {"other.com": 1})
    assert order.domains[:6] == DEFAULT_FIXED_TOP
    assert order.domains[6] == "other.com"


def test_total_order_rank_applies_to_etld1():
    bins = {"news.site-a.co.uk": "1k", "www.site-b.com": "1k"}
    ranks = {"site-a.co.uk": 1, "site-b.com": 2}
    order = build_total_order(bins, ranks)
    assert order.domains == ("news.site-a.co.uk", "www.site-b.com")


def test_total_order_radar_breaks_rank_ties():
    bins = {"a.example": "1k", "b.example": "1k"}
    order = build_total_order(bins, {}, radar_order=("b.example",))
    assert order.domains == ("b.example", "a.example")


def test_total_order_integer_bucket_labels():
    bins = {"a.com": 1000, "b.com": 5000}
    order = build_total_order(bins, {})
    assert order.domains == ("a.com", "b.com")


def test_total_order_rejects_unknown_bucket():
    with pytest.raises(PopulationError, match="bucket"):
        build_total_order({"a.com": "2k"}, {})


def test_total_order_places_the_fixed_head_present():
    # Only two of the fixed hosts are listed, one of them in a later bucket.
    bins = {"a.com": "1k", "www.amazon.com": "5k", "www.youtube.com": "1k", "b.com": "5k"}
    order = build_total_order(bins, {"a.com": 1, "b.com": 2})
    assert order.domains == ("www.youtube.com", "www.amazon.com", "a.com", "b.com")


def test_ranked_list_rejects_duplicates():
    with pytest.raises(PopulationError):
        RankedDomainList(("a.com", "a.com"))


@pytest.mark.parametrize(
    "hostname,expected",
    [
        ("news.bbc.co.uk", "bbc.co.uk"),
        ("www.google.com", "google.com"),
        ("deep.sub.domain.example.org", "example.org"),
        ("single-label", "single-label"),
        ("weird.unknowntld", "weird.unknowntld"),
        ("https://www.shop.example.com/path", "example.com"),
    ],
)
def test_etld_plus_one(hostname, expected):
    assert etld_plus_one(hostname) == expected


def test_bucket_and_rank_file_parsing():
    bins = load_bucket_file(io.StringIO("origin,rank_bucket\na.com,1k\nb.com,5000\n"))
    assert bins == {"a.com": "1k", "b.com": "5000"}
    # Origins as the public lists write them: with a scheme, sometimes a
    # port, and one host under two schemes in two buckets.
    bins = load_bucket_file(io.StringIO(
        "origin,rank_bucket\nhttps://www.google.com,1000\nhttp://a.com,10k\n"
        "https://a.com,5000\nhttps://b.com:8443,1k\nhttp://a.com,50k\n"
    ))
    assert bins == {"www.google.com": "1000", "a.com": "5000", "b.com": "1k"}
    ranks = load_rank_file(io.StringIO("rank,domain\n1,a.com\n2,b.com\n"))
    assert ranks == {"a.com": 1, "b.com": 2}
    # The header is the first non-empty row, wherever blank lines put it.
    assert load_rank_file(io.StringIO("\nrank,domain\n1,a.com\n")) == {"a.com": 1}
    assert load_bucket_file(io.StringIO("\n\ndomain,rank_bucket\na.com,1k\n")) == {"a.com": "1k"}


def test_zipf_weights_normalize():
    w = TrafficModel(exponent=1.0).weights(1000)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert w[0] > w[1] > w[-1]


def test_zipf_rank1_frequency_matches_analytic_pmf():
    """Sampling oracle: rank-1 weight of Zipf(1.0) over 100 is 1/H_100."""
    m = 100
    w = TrafficModel(exponent=1.0).weights(m)
    harmonic = sum(1.0 / r for r in range(1, m + 1))
    assert w[0] == pytest.approx(1.0 / harmonic, rel=1e-9)

    cdf = np.cumsum(w)
    from topicsim import rng

    draws = np.searchsorted(cdf, rng.counter_stream(1_000_000, 123), side="right")
    observed = float(np.mean(draws == 0))
    assert observed == pytest.approx(1.0 / harmonic, rel=0.02)


def test_count_model_histogram_roundtrip():
    model = load_count_histogram(io.StringIO("unique_domain_count,user_fraction\n3,0.5\n10,0.5\n"))
    draws = model.sample(10_000, seed=5)
    assert set(np.unique(draws)) == {3, 10}
    assert abs(float(np.mean(draws == 3)) - 0.5) < 0.02


def test_count_model_lognormal_bounds_and_determinism():
    model = UniqueDomainCountModel(mu=math.log(30), sigma=0.8, minimum=5, maximum=100)
    a = model.sample(50_000, seed=1)
    b = model.sample(50_000, seed=1)
    assert np.array_equal(a, b)
    assert a.min() >= 5 and a.max() <= 100


def test_count_model_empirical_convergence_ks():
    model = CountHistogram(
        support=(2, 5, 9, 20, 60),
        probabilities=(0.2, 0.3, 0.25, 0.15, 0.1),
    )
    draws = model.sample(50_000, seed=9)
    ecdf = np.array([(draws <= k).mean() for k in model.support])
    ks = np.abs(ecdf - np.cumsum(model.probabilities)).max()
    assert ks < 0.02


def test_count_model_lognormal_convergence_ks():
    model = UniqueDomainCountModel(mu=math.log(28), sigma=0.8, minimum=8, maximum=2000)
    draws = model.sample(50_000, seed=13)
    # Inside the clamp range, P(count <= k) is the lognormal's mass below k + 0.5.
    grid = np.unique(draws)
    grid = grid[(grid >= model.minimum) & (grid < model.maximum)]
    ecdf = np.array([(draws <= k).mean() for k in grid])
    oracle = stats.lognorm.cdf(grid + 0.5, s=model.sigma, scale=math.exp(model.mu))
    ks = np.abs(ecdf - oracle).max()
    assert ks < 0.02


def test_count_model_validation():
    with pytest.raises(PopulationError):
        CountHistogram(support=(1, 2), probabilities=(0.5,))
    with pytest.raises(PopulationError):
        CountHistogram(support=(0,), probabilities=(1.0,))
    with pytest.raises(PopulationError):
        CountHistogram(support=(), probabilities=())
    with pytest.raises(PopulationError, match="sum to 0.5"):
        CountHistogram(support=(1,), probabilities=(0.5,))
    with pytest.raises(PopulationError, match="sum to nan"):
        CountHistogram(support=(1, 2), probabilities=(math.nan, 0.0))


def tiny_world(taxonomy):
    domains = tuple(f"d{i}.example" for i in range(50))
    entries = {d: ({1 + (i % 5)} if i % 3 else set()) for i, d in enumerate(domains)}
    cls = DomainClassification(entries)
    return RankedDomainList(domains), TrafficModel(exponent=1.0), cls


def test_generate_single_domain_user(taxonomy):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(1,), probabilities=(1.0,))
    users = generate_population(20, order, traffic, counts, cls, seed=4, taxonomy=taxonomy)
    assert all(len(u.visited_domains) == 1 for u in users)


def test_generate_observed_topics_are_union(taxonomy):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(8,), probabilities=(1.0,))
    users = generate_population(30, order, traffic, counts, cls, seed=4, taxonomy=taxonomy)
    for u in users:
        expected = frozenset().union(*(cls.topics_of(d) for d in u.visited_domains))
        assert u.observed_topics == expected


def test_generate_deterministic_and_block_size_independent(taxonomy, monkeypatch):
    order, traffic, cls = tiny_world(taxonomy)
    counts = UniqueDomainCountModel(mu=math.log(6), sigma=0.5, minimum=1, maximum=30)
    one = generate_population(200, order, traffic, counts, cls, seed=8, taxonomy=taxonomy)
    two = generate_population(200, order, traffic, counts, cls, seed=8, taxonomy=taxonomy)
    assert list(one) == list(two)
    for block in (1, 7):
        monkeypatch.setattr(population, "POPULATION_BLOCK_USERS", block)
        got = generate_population(200, order, traffic, counts, cls, seed=8, taxonomy=taxonomy)
        assert list(got) == list(one)
        assert top_profiles(one, taxonomy, T=5, seed=8, candidate=3).tolist() == [
            list(derive_top_profile(u, taxonomy, T=5, seed=8, candidate=3).top_profile) for u in one
        ]


@st.composite
def generation_cases(draw):
    m = draw(st.integers(1, 40))
    # Topic ids from a small range so that some users observe fewer
    # than T topics; an empty set is a domain classified only Unknown.
    entries = {
        f"d{i}.example": draw(st.frozensets(st.integers(1, 12), max_size=3)) for i in range(m)
    }
    if draw(st.booleans()):
        counts = UniqueDomainCountModel(
            mu=math.log(draw(st.sampled_from([2, 6, 15]))), sigma=0.6,
            minimum=1, maximum=draw(st.sampled_from([5, 60])),
        )
    else:
        support = tuple(sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=4))))
        counts = CountHistogram(
            support=support,
            probabilities=tuple(1.0 / len(support) for _ in support),
        )
    return dict(
        n=draw(st.sampled_from([1, 1023, 1024, 1025, 2049])),
        order=RankedDomainList(tuple(entries)),
        traffic=TrafficModel(exponent=draw(st.sampled_from([0.0, 0.7, 1.0]))),
        counts=counts,
        classification=DomainClassification(entries),
        seed=draw(st.integers(0, 2**32)),
        T=draw(st.integers(1, 6)),
        candidate=draw(st.integers(0, 9)),
    )


# Six topics, no more than the largest T drawn, so the fill stream
# often redraws held topics and needs further rounds.
SMALL_TAXONOMY = Taxonomy(Topic(i, f"/t{i}", None) for i in range(1, 7))

# Each user visits one domain, mostly an unclassified one, so with T = 6
# on six topics nearly every profile comes whole from the fill stream.
ONE_DOMAIN_EACH = dict(
    n=1025,
    order=RankedDomainList(("d0.example", "d1.example", "d2.example")),
    traffic=TrafficModel(exponent=1.0),
    counts=CountHistogram(support=(1,), probabilities=(1.0,)),
    classification=DomainClassification({"d0.example": (), "d1.example": (), "d2.example": (3,)}),
    seed=5,
    T=6,
    candidate=9,
)


@settings(max_examples=12, deadline=None)
@given(generation_cases(), st.booleans())
@example(ONE_DOMAIN_EACH, True)
def test_generate_matches_per_user_oracle(taxonomy, case, small):
    taxonomy = SMALL_TAXONOMY if small else taxonomy
    case = dict(case)
    candidate = case.pop("candidate")
    got = generate_population(**case, taxonomy=taxonomy)
    assert list(got) == generate_population_reference(**case, taxonomy=taxonomy)
    assert top_profiles(got, taxonomy, case["T"], case["seed"], candidate=candidate).tolist() == [
        list(derive_top_profile(u, taxonomy, case["T"], case["seed"], candidate=candidate).top_profile)
        for u in got
    ]


def test_generate_clamps_counts_to_list_length(taxonomy, caplog):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(500,), probabilities=(1.0,))
    with caplog.at_level("WARNING"):
        users = generate_population(3, order, traffic, counts, cls, seed=1, taxonomy=taxonomy)
    assert all(len(u.visited_domains) == len(order) for u in users)
    assert any("clamped" in rec.message for rec in caplog.records)


def test_profile_contains_observed_plus_fill(taxonomy):
    user = UserProfile(0, frozenset(), frozenset({10, 20, 30}), ())
    got = derive_top_profile(user, taxonomy, T=5, seed=3)
    assert len(got.top_profile) == 5
    assert {10, 20, 30} <= set(got.top_profile)
    assert len(set(got.top_profile)) == 5


def test_profile_subset_when_enough_observed(taxonomy):
    observed = frozenset(range(1, 30))
    user = UserProfile(1, frozenset(), observed, ())
    got = derive_top_profile(user, taxonomy, T=5, seed=3)
    assert set(got.top_profile) <= observed


def test_profile_deterministic_and_candidates_differ(taxonomy):
    user = UserProfile(2, frozenset(), frozenset(range(1, 40)), ())
    a = derive_top_profile(user, taxonomy, T=5, seed=3)
    b = derive_top_profile(user, taxonomy, T=5, seed=3)
    assert a.top_profile == b.top_profile
    candidates = {derive_top_profile(user, taxonomy, T=5, seed=3, candidate=c).top_profile
                  for c in range(10)}
    assert len(candidates) > 1


def test_profile_candidate_range(taxonomy):
    user = UserProfile(2, frozenset(), frozenset({1}), ())
    with pytest.raises(PopulationError):
        derive_top_profile(user, taxonomy, T=5, seed=3, candidate=10)
    with pytest.raises(PopulationError):
        top_profiles(Population.from_records([user]), taxonomy, T=5, seed=3, candidate=10)


def test_profile_size_above_taxonomy_size_is_refused(taxonomy):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(2,), probabilities=(1.0,))
    T = len(taxonomy.ids()) + 1
    with pytest.raises(PopulationError, match=f"T = {T} exceeds the taxonomy's {T - 1} topics"):
        generate_population(3, order, traffic, counts, cls, seed=1, T=T, taxonomy=taxonomy)
    users = generate_population(3, order, traffic, counts, cls, seed=1, T=T - 1, taxonomy=taxonomy)
    assert all(len(u.top_profile) == T - 1 for u in users)
    with pytest.raises(PopulationError, match="exceeds the taxonomy"):
        top_profiles(users, taxonomy, T=T, seed=1)


def test_bad_profile_size_is_refused_before_any_domain_is_drawn(taxonomy, monkeypatch):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(2,), probabilities=(1.0,))

    def no_draws(*args, **kwargs):
        raise AssertionError("a domain was drawn")

    monkeypatch.setattr(rng, "distinct_draws", no_draws)
    for T in (0, len(taxonomy.ids()) + 1):
        with pytest.raises(PopulationError):
            generate_population(3, order, traffic, counts, cls, seed=1, T=T, taxonomy=taxonomy)


def test_population_ndjson_roundtrip(tmp_path, taxonomy):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(4,), probabilities=(1.0,))
    users = generate_population(10, order, traffic, counts, cls, seed=2, taxonomy=taxonomy)
    path = tmp_path / "pop.ndjson"
    write_population(users, path, header={"seed": 2})
    back = read_population(path)
    assert list(back) == list(users)
    write_population(back, tmp_path / "again.ndjson", header={"seed": 2})
    assert (tmp_path / "again.ndjson").read_bytes() == path.read_bytes()


def test_summarize_population_counts():
    users = Population.from_records([
        UserProfile(0, frozenset({"a"}), frozenset({1, 2}), (1, 2, 3, 4, 5)),
        UserProfile(1, frozenset({"a", "b"}), frozenset({2}), (1, 2, 3, 4, 6)),
    ])
    assert summarize_population(users) == [
        "Number of users              2",
        "Unique observed domains      2",
        "Unique observed topics       6",  # observed plus profile padding
        "Unique top profiles          2",
    ]


@pytest.mark.parametrize("loader, body, message", [
    (load_bucket_file, "origin,rank_bucket\na.com,1k\nb.com\n", "row 3: expected 2 fields, got 1"),
    (load_rank_file, "rank,domain\n1,a.com\n2\n", "row 3: expected 2 fields, got 1"),
    (load_rank_file, "rank,domain\nfirst,a.com\n", "row 2: rank 'first' is not an integer"),
    (load_count_histogram, "unique_domain_count,user_fraction\n5,0\n6,0.0\n",
     "count histogram has no positive fraction"),
    (load_count_histogram, "5,-0.5\n6,1.5\n", "row 1: fraction '-0.5' is not a non-negative number"),
    (load_count_histogram, "5,0.5\n6\n", "row 2: expected 2 fields, got 1"),
    (load_bucket_file, "origin,rank_bucket\nhttps://a.com,1k\nhttps://b.com,2000\n",
     "row 3: unknown rank bucket '2000'"),
    (load_count_histogram, "10,0.5\n20.0,0.5\n", "row 2: count '20.0' is not a positive integer"),
    (load_count_histogram, "10,0.5\n-20,0.5\n", "row 2: count '-20' is not a positive integer"),
    (load_count_histogram, "10,0.5\n1e3,0.5\n", "row 2: count '1e3' is not a positive integer"),
    (load_count_histogram, "0,0.5\n10,0.5\n", "row 1: count '0' is not a positive integer"),
    (load_count_histogram, "10,0.5\nunique_domain_count,user_fraction\n20,0.5\n",
     "row 2: count 'unique_domain_count' is not a positive integer"),
    (load_count_histogram, "10,inf\n20,0.5\n", "row 1: fraction 'inf' is not a non-negative number"),
    (load_rank_file, "1,a.com\nrank,domain\n2,b.com\n", "row 2: rank 'rank' is not an integer"),
    (load_bucket_file, "a.com,1k\norigin,rank_bucket\nb.com,5k\n", "row 2: unknown rank bucket 'rank_bucket'"),
    (load_bucket_file, "\na.com,1k\ndomain,rank_bucket\n", "row 3: unknown rank bucket 'rank_bucket'"),
], ids=["bucket-one-column", "rank-one-column", "rank-not-integer", "histogram-all-zero",
        "histogram-negative", "histogram-one-column", "bucket-unknown", "histogram-float-count",
        "histogram-negative-count", "histogram-exponent-count", "histogram-zero-count",
        "histogram-header-after-row-1", "histogram-infinite-fraction", "rank-header-after-row-1",
        "bucket-origin-header-after-row-1", "bucket-domain-header-after-row-1"])
def test_csv_loaders_refuse_bad_rows(loader, body, message):
    with pytest.raises(PopulationError, match=re.escape(message)):
        loader(io.StringIO(body))


@pytest.mark.parametrize("loader, body, want", [
    (load_bucket_file, "origin,rank_bucket\r\nhttps://a.com,1k\r\nb.com,5k\r\n", {"a.com": "1k", "b.com": "5k"}),
    (load_rank_file, "rank,domain\r\n1,a.com\r\n2,b.com\r\n", {"a.com": 1, "b.com": 2}),
    (load_count_histogram, "unique_domain_count,user_fraction\r\n5,1\r\n6,3\r\n",
     CountHistogram(support=(5, 6), probabilities=(0.25, 0.75))),
], ids=["bucket", "rank", "histogram"])
def test_csv_loaders_read_crlf_rows_as_lf_rows(tmp_path, loader, body, want):
    """A CRLF file, read from its path or as an open text file, gives the rows of its LF copy."""
    path = tmp_path / "rows.csv"
    path.write_bytes(body.encode())
    lf = io.StringIO(body.replace("\r\n", "\n"))
    assert loader(path) == loader(io.StringIO(body)) == loader(lf) == want


# Host names that JSON escapes (quote, backslash, control character),
# non-ASCII ones, and plain ones whose lexicographic order differs from
# the rank order `build_total_order` gives them.
AWKWARD_NAMES = ('z"q.example', "b\\s.example", "tab\t.example", "café.example",
                 "中文.example", "a.example", "m.example")


@st.composite
def writer_cases(draw):
    names = draw(st.lists(
        st.one_of(st.sampled_from(AWKWARD_NAMES), st.text(min_size=1, max_size=6)),
        min_size=1, max_size=12, unique=True,
    ))
    ranked = draw(st.lists(st.sampled_from(names), unique=True))
    return dict(
        bins={d: draw(st.sampled_from(["1k", "5k"])) for d in names},
        ranks={etld_plus_one(d): r for r, d in enumerate(reversed(ranked), start=1)},
        topics={d: draw(st.frozensets(st.integers(1, 349), max_size=3)) for d in names},
        n=draw(st.sampled_from([1, 5, 1023, 1024, 1025])),
        T=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**32)),
        n_candidates=draw(st.sampled_from([1, 3])),
    )


AWKWARD_CASE = dict(
    bins={d: "1k" for d in AWKWARD_NAMES},
    ranks={etld_plus_one(d): r for r, d in enumerate(reversed(AWKWARD_NAMES), start=1)},
    topics={d: frozenset({1 + i, 100 + i}) for i, d in enumerate(AWKWARD_NAMES)},
    n=1025, T=5, seed=3, n_candidates=3,
)


@settings(max_examples=12, deadline=None)
@given(writer_cases())
@example(AWKWARD_CASE)
@example(dict(AWKWARD_CASE, n=1023, n_candidates=1))
def test_population_ndjson_matches_per_record_oracle(taxonomy, tmp_path_factory, case):
    """The block writer gives the bytes of one `json.dumps` per record, and
    reading a file back writes the same bytes."""
    order = build_total_order(case["bins"], case["ranks"])
    users = generate_population(
        case["n"], order, TrafficModel(exponent=1.0),
        CountHistogram(support=(1, 3, 6), probabilities=(0.3, 0.4, 0.3)),
        DomainClassification(case["topics"]), seed=case["seed"], T=case["T"], taxonomy=taxonomy,
    )
    candidates, by_user = None, None
    if case["n_candidates"] > 1:
        candidates = [top_profiles(users, taxonomy, case["T"], case["seed"], candidate=c)
                      for c in range(case["n_candidates"])]
        by_user = {u: [c[u].tolist() for c in candidates] for u in range(case["n"])}
    out = tmp_path_factory.mktemp("pop")
    header = {"seed": case["seed"], "note": "café"}
    write_population(users, out / "got.ndjson", header=header, candidates=candidates)
    write_population_reference(users, out / "want.ndjson", header=header, candidates=by_user)
    assert (out / "got.ndjson").read_bytes() == (out / "want.ndjson").read_bytes()

    write_population(users, out / "plain.ndjson", header=header)
    back = read_population(out / "plain.ndjson")
    assert list(back) == list(users)
    write_population(back, out / "again.ndjson", header=header)
    assert (out / "again.ndjson").read_bytes() == (out / "plain.ndjson").read_bytes()


def test_read_refuses_ragged_profiles(tmp_path):
    users = [UserProfile(7, frozenset({"a"}), frozenset({1}), (1, 2, 3)),
             UserProfile(9, frozenset({"b"}), frozenset({2}), (1, 2))]
    path = tmp_path / "pop.ndjson"
    write_population_reference(users, path, header={"seed": 1})
    for read in (read_population, read_profiles):
        with pytest.raises(PopulationError, match="user 9 has profile size 2, but user 7 has 3"):
            read(path)


def test_read_profiles_keeps_top_profile_not_candidates(tmp_path, taxonomy):
    order, traffic, cls = tiny_world(taxonomy)
    counts = CountHistogram(support=(4,), probabilities=(1.0,))
    users = generate_population(10, order, traffic, counts, cls, seed=2, taxonomy=taxonomy)
    # As `generate` writes `profile_candidates: 3, profile_index: 1`.
    candidates = [top_profiles(users, taxonomy, users.profiles.shape[1], seed=2, candidate=c) for c in range(3)]
    users = replace(users, profiles=candidates[1])
    path = tmp_path / "pop.ndjson"
    write_population(users, path, header={"seed": 2}, candidates=candidates)
    full, profiles = read_population(path), read_profiles(path)
    assert np.array_equal(profiles.user_ids, full.user_ids)
    assert np.array_equal(profiles.profiles, full.profiles)
    assert profiles.user_ids.dtype == full.user_ids.dtype and profiles.profiles.dtype == full.profiles.dtype
    assert np.array_equal(profiles.profiles, candidates[1])
    assert not np.array_equal(profiles.profiles, candidates[0])
    assert len(profiles) == len(full) == 10
