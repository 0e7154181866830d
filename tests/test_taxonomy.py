import hashlib
import io
from importlib import resources

import pytest

from topicsim.taxonomy import (
    TAXONOMY_HEADER,
    Taxonomy,
    TaxonomyError,
    Topic,
    UNKNOWN_TOPIC_ID,
    load_taxonomy,
)

# The bundled file is the only statement of the taxonomy's names, and no
# golden artifact carries a topic name, so this pin is what notices an edit.
TAXONOMY_SHA256 = "f52029da88389a00e17a703f032c2420842d8a810998ed731e1f0b4b1bb919d2"

# Root category -> subtree size (root included) for the bundled v1-style file.
ROOT_SUBTREE_SIZES = {
    "/Arts & Entertainment": 56,
    "/Autos & Vehicles": 29,
    "/Beauty & Fitness": 14,
    "/Books & Literature": 3,
    "/Business & Industrial": 23,
    "/Computers & Electronics": 23,
    "/Finance": 23,
    "/Food & Drink": 8,
    "/Games": 16,
    "/Hobbies & Leisure": 11,
    "/Home & Garden": 8,
    "/Internet & Telecom": 11,
    "/Jobs & Education": 13,
    "/Law & Government": 4,
    "/News": 7,
    "/Online Communities": 4,
    "/People & Society": 9,
    "/Pets & Animals": 9,
    "/Real Estate": 3,
    "/Reference": 4,
    "/Science": 10,
    "/Shopping": 10,
    "/Sports": 33,
    "/Travel & Transportation": 18,
}


def test_bundled_file_is_pinned():
    data = resources.files("topicsim.data").joinpath("taxonomy_v1.tsv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == TAXONOMY_SHA256


def test_bundled_omega(taxonomy):
    assert taxonomy.omega == 349


def root_subtree_sizes(taxonomy):
    """Root name -> topics whose name is the root's or starts with it plus `/`."""
    roots = [t.name for t in taxonomy.topics if t.name.count("/") == 1]
    return {r: sum(t.name == r or t.name.startswith(r + "/") for t in taxonomy.topics) for r in roots}


def test_bundled_has_24_roots(taxonomy):
    assert len(root_subtree_sizes(taxonomy)) == 24
    assert {t.name for t in taxonomy.topics if t.parent_id is None} == set(ROOT_SUBTREE_SIZES)


def test_bundled_root_subtree_sizes(taxonomy):
    assert root_subtree_sizes(taxonomy) == ROOT_SUBTREE_SIZES


def test_root_subtrees_partition_taxonomy(taxonomy):
    assert sum(root_subtree_sizes(taxonomy).values()) == taxonomy.omega


def test_ids_are_contiguous_from_one(taxonomy):
    assert taxonomy.ids() == tuple(range(1, 350))


def test_parent_chain_example(taxonomy):
    by_name = {t.name: t for t in taxonomy.topics}
    sales = by_name["/Business & Industrial/Advertising & Marketing/Sales"]
    parent = taxonomy.topics[sales.parent_id - 1]
    assert parent.name == "/Business & Industrial/Advertising & Marketing"
    grandparent = taxonomy.topics[parent.parent_id - 1]
    assert grandparent.name == "/Business & Industrial"
    assert grandparent.parent_id is None


def test_root_has_no_parent(taxonomy):
    assert {t.name: t for t in taxonomy.topics}["/News"].parent_id is None


def test_unknown_sentinel(taxonomy):
    # The sentinel is never one of the omega real topics.
    assert all(t.id != UNKNOWN_TOPIC_ID for t in taxonomy.topics)
    assert UNKNOWN_TOPIC_ID not in taxonomy.ids()


def test_parent_name_is_proper_prefix(taxonomy):
    for topic in taxonomy.topics:
        if topic.parent_id is not None:
            parent = taxonomy.topics[topic.parent_id - 1]
            assert topic.name.startswith(parent.name + "/")
            assert len(parent.name) < len(topic.name)


def test_empty_file_rejected():
    with pytest.raises(TaxonomyError, match="no topics"):
        load_taxonomy(io.StringIO(TAXONOMY_HEADER + "\n"))


@pytest.mark.parametrize("ids, message", [
    ((1, 2, 4), "row 4: ids must run 1, 2, ... in file order: expected 3, got 4"),
    ((1, 1), "row 3: ids must run 1, 2, ... in file order: expected 2, got 1"),
    ((0,), "row 2: ids must run 1, 2, ... in file order: expected 1, got 0"),
    ((2, 1), "row 2: ids must run 1, 2, ... in file order: expected 1, got 2"),
], ids=["gap", "duplicate", "zero", "out-of-order"])
def test_ids_must_run_one_to_omega_in_file_order(ids, message):
    body = TAXONOMY_HEADER + "\n" + "".join(f"{tid}\t/T{row}\n" for row, tid in enumerate(ids))
    with pytest.raises(TaxonomyError) as err:
        load_taxonomy(io.StringIO(body))
    assert str(err.value) == message


def test_directly_built_taxonomy_refuses_an_id_gap():
    with pytest.raises(TaxonomyError, match="expected 3, got 4"):
        Taxonomy(Topic(i, f"/t{i}", None) for i in (1, 2, 4))


def test_dangling_parent_rejected():
    body = f"{TAXONOMY_HEADER}\n1\t/A/B\n"
    with pytest.raises(TaxonomyError, match="dangling parent"):
        load_taxonomy(io.StringIO(body))


def test_malformed_row_names_line():
    body = f"{TAXONOMY_HEADER}\n1\t/A\nnot a row\n"
    with pytest.raises(TaxonomyError, match="row 3"):
        load_taxonomy(io.StringIO(body))
