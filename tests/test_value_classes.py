"""The value classes are immutable named tuples: their fields, defaults,
repr, equality and hashing read as they did when they were dataclasses."""

from collections import namedtuple

import pytest

from sosforms.hopf import BoundEntry, bound_table
from sosforms.motivic import DQClass, DQRingSpec
from sosforms.rings import ValueTuple
from sosforms.search import (
    SearchOptions,
    SearchProblem,
    SearchResult,
    SweepCell,
    SweepReport,
    hopf_consistency_sweep,
    search,
)

VALUES = [
    BoundEntry(1, 2, 2, 2, True),
    DQRingSpec(4, rho=True),
    SearchOptions(max_solutions=1),
    SearchProblem(2, 2, 2, 3),
    SearchResult([], "exhausted"),
    SweepCell(1, 1, 1, 3, "found", True),
    SweepReport([], []),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_no_attribute_can_be_assigned(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_reprs_read_as_before():
    assert repr(DQRingSpec(4, rho=True, eps_is_rho=True)) == "DQRingSpec(n=4, rho=True, eps_is_rho=True)"
    assert repr(DQRingSpec(5, rho=True, eps_is_rho=True)) == "DQRingSpec(n=5, rho=True, eps_is_rho=False)"
    options = (
        "SearchOptions(canonical_first_matrix=True, signed_monomial_only=False, "
        "max_solutions=None, time_budget=None)"
    )
    assert repr(SearchOptions()) == options
    assert repr(SearchProblem(2, 3, 4, 5)) == f"SearchProblem(r=2, s=3, n=4, p=5, options={options})"
    assert repr(SearchOptions(False, True, 3, 0.5)) == (
        "SearchOptions(canonical_first_matrix=False, signed_monomial_only=True, max_solutions=3, time_budget=0.5)"
    )


def test_equal_ring_specs_compare_and_hash_equal():
    # a spec is the ring identity that NormalForm._check compares
    spec, twin = DQRingSpec(4, rho=True, eps_is_rho=True), DQRingSpec(4, True, True)
    assert spec == twin and hash(spec) == hash(twin) and spec is not twin
    assert DQRingSpec(5, True, True) == DQRingSpec(5, rho=True)  # eps exists only in even rings
    assert DQRingSpec(4, False, True) == DQRingSpec(4)  # and is 0 when rho is
    assert DQRingSpec(4, True) != spec
    assert len({DQRingSpec(4), DQRingSpec(4, False, True), DQRingSpec(4, rho=False)}) == 1
    assert DQClass.gen_a(spec) * DQClass.gen_b(twin) == DQClass.gen_b(spec) * DQClass.gen_a(twin)
    with pytest.raises(ValueError, match="ring mismatch"):
        DQClass.gen_a(spec) + DQClass.gen_a(DQRingSpec(4, True))


def test_defaults_and_fields():
    assert DQRingSpec(3) == DQRingSpec(3, rho=False, eps_is_rho=False)
    assert SearchProblem(2, 2, 2, 3).options == SearchOptions(True, False, None, None)
    result = search(SearchProblem(2, 2, 2, 3))
    assert (result.stop_reason, result.nodes > 0, result.exhausted, result.found) == ("exhausted", True, True, True)
    assert SearchResult([], "timeout")[2:] == (0, 0.0)
    report = hopf_consistency_sweep(1, 1, 2, 3)
    assert report.cells == [SweepCell(1, 1, 1, 3, "found", True), SweepCell(1, 1, 2, 3, "found", True)]
    assert report.violations == [] and report.to_csv() == "r,s,n,p,status\n1,1,1,3,found\n1,1,2,3,found\n"
    assert bound_table(1, 2)[1]._asdict() == {"r": 1, "s": 2, "hopf_lower": 2, "construct_upper": 2, "tight": True}


def test_replace_and_make_check_like_the_constructor():
    with pytest.raises(ValueError):
        DQRingSpec(4)._replace(rho="x")
    with pytest.raises(ValueError):
        SearchOptions()._replace(time_budget=-1)
    with pytest.raises(ValueError):
        SearchProblem(2, 2, 2, 3)._replace(options=None)
    # eps exists only in even rings: the fold to 0 applies here too
    assert DQRingSpec(5, True)._replace(eps_is_rho=True).eps_is_rho is False
    assert DQRingSpec(4, True)._replace(eps_is_rho=True) == DQRingSpec(4, True, True)
    assert DQRingSpec._make([5, True, True]) == DQRingSpec(5, True)
    with pytest.raises(ValueError):
        SearchOptions._make([True, False, None, float("nan")])
    assert SearchProblem(2, 2, 2, 3)._replace(p=5) == SearchProblem(2, 2, 2, 5)



@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_a_value_equals_only_values_of_its_own_class(value):
    assert isinstance(value, ValueTuple)
    twin = tuple.__new__(type(value), value)
    assert value == twin and not value != twin
    if not any(isinstance(field, list) for field in value):  # a list field is unhashable, as before
        assert hash(value) == hash(twin) == hash(tuple(value))  # hashing stays the tuple's
    for other in (tuple(value), list(value)):
        assert value != other and other != value
        assert not (value == other or other == value)
    # another named tuple with the same fields, seen from the value's side
    lookalike = namedtuple("Lookalike", value._fields)(*value)
    assert value != lookalike and not value == lookalike


def test_equal_fields_in_another_value_class_are_not_equal():
    problem = SearchProblem(2, 2, 2, 3)
    entry = BoundEntry(*problem)
    assert tuple(entry) == tuple(problem)
    assert entry != problem and problem != entry and not (entry == problem or problem == entry)
    assert SearchOptions() != (True, False, None, None) and (True, False, None, None) != SearchOptions()
    assert BoundEntry(1, 1, 1, 1, True) != (1, 1, 1, 1, True)
    assert DQRingSpec(4) in {DQRingSpec(4, rho=False)} and (4, False, False) not in {DQRingSpec(4)}
