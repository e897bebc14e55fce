import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcalc import partitions as pt


def test_transpose_basics():
    assert pt.transpose((3, 1)) == (2, 1, 1)
    assert pt.transpose((5,)) == (1, 1, 1, 1, 1)
    assert pt.transpose((2, 2)) == (2, 2)
    assert pt.transpose(()) == ()


def test_valid_direct_cases():
    assert pt.valid((3, 2, 2), "B", 3) is True
    assert pt.valid((4, 3), "B", 3) is False
    assert pt.valid((3, 3), "C", 3) is True
    with pytest.raises(pt.PartitionError):
        pt.valid((3, 3), "B", 3)


def test_collapse_known_values():
    assert pt.collapse((3, 2, 2), "B", 3) == (3, 2, 2)
    assert pt.collapse((4, 3), "B", 3) == (3, 3, 1)
    # expected value computed with the brute-force oracle
    assert pt.collapse((2, 2, 1, 1), "C", 3) == pt.collapse_oracle((2, 2, 1, 1), "C", 3)


def test_dominance():
    assert pt.dominance_leq((2, 2), (2, 2))
    assert pt.dominance_leq((1, 1, 1, 1), (4,))
    assert pt.dominance_leq((2, 2), (3, 1))
    assert not pt.dominance_leq((3, 1), (2, 2))
    with pytest.raises(pt.PartitionError):
        pt.dominance_leq((2,), (1,))


def _partitions_up_to(total):
    for n in range(total + 1):
        yield from pt.partitions_of(n)


def test_transpose_involution_and_order_reversal():
    ps = list(pt.partitions_of(8))
    for p in ps:
        assert pt.transpose(pt.transpose(p)) == p
    for p in ps:
        for q in ps:
            if pt.dominance_leq(p, q):
                assert pt.dominance_leq(pt.transpose(q), pt.transpose(p))


@pytest.mark.parametrize("series,rank", [("B", 3), ("C", 3), ("D", 3), ("B", 4), ("C", 4), ("D", 4)])
def test_collapse_matches_oracle(series, rank):
    total = pt.family_size(series, rank)
    for p in pt.partitions_of(total):
        got = pt.collapse(p, series, rank)
        want = pt.collapse_oracle(p, series, rank)
        assert got == want, (series, rank, p, got, want)


@pytest.mark.parametrize("series,rank", [("B", 2), ("C", 2), ("D", 2)])
def test_collapse_idempotent_and_fixed_iff_valid(series, rank):
    total = pt.family_size(series, rank)
    for p in pt.partitions_of(total):
        c = pt.collapse(p, series, rank)
        assert pt.valid(c, series, rank)
        assert pt.collapse(c, series, rank) == c
        assert (c == p) == pt.valid(p, series, rank)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=8))
@settings(max_examples=200, deadline=None)
def test_transpose_involution_property(parts):
    p = pt.normalize(parts)
    assert pt.transpose(pt.transpose(p)) == p
    assert sum(pt.transpose(p)) == sum(p)


def test_parse_and_format():
    assert pt.parse_partition("3,1,1") == (3, 1, 1)
    assert pt.parse_partition("1, 3, 1") == (3, 1, 1)
    assert pt.parse_partition(" 2 ,1 ") == (2, 1)
    assert pt.parse_partition("2,1,0") == (2, 1)
    assert pt.format_partition((3, 1)) == "3,1"


@pytest.mark.parametrize("text", ["2,,1", ",2,1", "2,1,", "+2,1", "-2,1",
                                  "\uff12,\uff11", "2_1,1", "", " ", "1 2",
                                  "2,\t1", "x"])
def test_parse_rejects_all_but_ascii_digit_fields(text):
    """Each field is ASCII digits with spaces around it; any other text is
    a ValueError that is not a PartitionError (a usage error, not a
    computational one)."""
    with pytest.raises(ValueError) as exc:
        pt.parse_partition(text)
    assert not isinstance(exc.value, pt.PartitionError)
