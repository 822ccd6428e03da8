"""Result records keep their repr text, immutability, equality, hashing and
pickling, and the two value classes keep exact ordering and 1-based
indexing, whatever the records are built from."""

import pickle
from fractions import Fraction as F
from itertools import product

import pytest

from alphabound import (CoeffSequence, EulerLinear, ExactResult, WeightCheck,
                        WitnessResult, bound_report, c_sequence,
                        clipped_sequence, d_sequence, degree_profile,
                        peel_witness)
from alphabound.families import cycle_with_pendants, petersen_graph

RECORDS = {
    "PeelStep": (
        lambda: peel_witness(cycle_with_pendants(10)).trace[0],
        "PeelStep(vertex=10, degree=1, neighbors=(0,), isolated=(20,),"
        " components=((1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17,"
        " 18, 19),), share=Fraction(7, 8), isolated_share=Fraction(5, 8),"
        " handoff_shares=(Fraction(63, 8),), target=Fraction(75, 8),"
        " owed=Fraction(75, 8))"),
    "BaseStep": (
        lambda: peel_witness(cycle_with_pendants(10)).trace[-1],
        "BaseStep(kind='complete', vertices=(9, 19), taken=(9,),"
        " target=Fraction(5, 4), owed=Fraction(1, 1))"),
    "WitnessResult": (
        lambda: WitnessResult((1,), F(1, 2), ()),
        "WitnessResult(independent_set=(1,), certified_bound=Fraction(1, 2), trace=())"),
    "WeightCheck": (
        lambda: WeightCheck(True, F(3, 2)),
        "WeightCheck(ok=True, total=Fraction(3, 2), violating_vertex=None,"
        " violating_clique=None)"),
    "ExactResult": (
        lambda: ExactResult(4, frozenset({2}), 9),
        "ExactResult(alpha=4, optimal_set=frozenset({2}), nodes_explored=9)"),
    "DegreeProfile": (
        lambda: degree_profile(cycle_with_pendants(4)),
        "DegreeProfile(delta_max=4, delta_min=1, counts=(0, 5, 0, 3, 1))"),
    "BoundReport": (
        lambda: bound_report(petersen_graph(), [4]),
        "BoundReport(brooks=Fraction(10, 3), weighted=Fraction(10, 3),"
        " truncated={4: Fraction(5, 2)}, euler=EulerLinear(a=Fraction(10, 1),"
        " b=Fraction(-20, 1)), caro_wei=Fraction(5, 2), best='brooks',"
        " profile=DegreeProfile(delta_max=3, delta_min=3, counts=(0, 0, 0, 10)))"),
    "EulerLinear": (
        lambda: EulerLinear(1, -1),
        "EulerLinear(a=Fraction(1, 1), b=Fraction(-1, 1))"),
    "CoeffSequence": (
        lambda: d_sequence(3),
        "CoeffSequence(kind='d', delta=3, values=(EulerLinear(a=Fraction(1, 1),"
        " b=Fraction(-1, 1)), EulerLinear(a=Fraction(0, 1), b=Fraction(1, 1)),"
        " EulerLinear(a=Fraction(1, 1), b=Fraction(-2, 1))))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, text = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert repr(record) == text
    first_field = text[len(name) + 1:].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, first_field, None)
    assert getattr(record, first_field) == getattr(twin, first_field)
    assert record == twin and record is not twin
    assert pickle.loads(pickle.dumps(record)) == record
    if name == "BoundReport":
        with pytest.raises(TypeError):      # its truncated values sit in a dict
            hash(record)
    else:
        assert hash(record) == hash(twin)


def test_weight_check_defaults():
    check = WeightCheck(True, F(3, 2))
    assert check.violating_vertex is None and check.violating_clique is None


def test_euler_linear_orders_exactly_in_both_directions():
    assert EulerLinear(0, 1) < F(3, 8) <= EulerLinear(1, 0)
    # values with their rank: 1/e < 3/8 = 3/8 + 0/e < 1 = 1 + 0/e
    ranked = [(EulerLinear(0, 1), 0), (F(3, 8), 1), (EulerLinear(F(3, 8), 0), 1),
              (1, 2), (EulerLinear(1, 0), 2)]
    for (x, rx), (y, ry) in product(ranked, repeat=2):
        assert (x < y, x <= y, x > y, x >= y, x == y) == \
            (rx < ry, rx <= ry, rx > ry, rx >= ry, rx == ry), (x, y)
    assert hash(EulerLinear(F(1, 2), 0)) == hash(F(1, 2))


def test_coeff_sequence_indexes_from_one():
    cs = c_sequence(5)
    assert cs[1] == F(19, 30)
    assert len(cs) == 5
    assert list(cs) == [F(19, 30), F(11, 30), F(4, 15), F(1, 5), F(1, 5)]
    for i in (0, 6):
        with pytest.raises(IndexError):
            cs[i]
    assert cs != clipped_sequence(5) and cs != tuple(cs)


@pytest.mark.parametrize("cls", [EulerLinear, CoeffSequence])
def test_value_classes_are_not_tuples(cls):
    # tuple's own ordering, length and indexing would shadow theirs
    assert not issubclass(cls, tuple)
