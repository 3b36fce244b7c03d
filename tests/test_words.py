import copy
import pickle

import pytest

from lexleast.words import Exponent, Occurrence, check_letters


def test_exponent_validation():
    with pytest.raises(ValueError, match="p > q >= 1, got 2/2"):
        Exponent(2, 2)
    with pytest.raises(ValueError):
        Exponent(1, 2)
    with pytest.raises(ValueError, match="6/4 is not in lowest terms"):
        Exponent(6, 4)  # not reduced
    with pytest.raises(ValueError):
        Exponent(3, 0)


def test_exponent_parse():
    assert Exponent.parse("3/2") == Exponent(3, 2)
    assert Exponent.parse("6/4") == Exponent(3, 2)
    for bad in ("1.5", "3", "3/2/1", "a/b", "-3/2", "3/-2", "0/1"):
        with pytest.raises(ValueError):
            Exponent.parse(bad)


def test_occurrence_validation():
    occ = Occurrence(0, 3, 5)
    assert occ.end == 5
    for bad in ((-1, 2, 5), (0, 0, 5), (0, 5, 5), (0, 5, 3)):
        with pytest.raises(ValueError):
            Occurrence(*bad)
    with pytest.raises(ValueError, match=r"malformed occurrence Occurrence\(start=0, period=5, length=5\)"):
        Occurrence(0, 5, 5)


# each value class, built twice alike (by position and by keyword), once
# with another field, and its repr
VALUES = [
    (lambda: Exponent(3, 2), lambda: Exponent(q=2, p=3), Exponent(5, 2), "Exponent(p=3, q=2)"),
    (lambda: Occurrence(1, 2, 3), lambda: Occurrence(start=1, period=2, length=3), Occurrence(1, 2, 4),
     "Occurrence(start=1, period=2, length=3)"),
]


@pytest.mark.parametrize(
    "make,make_by_keyword,other,text", VALUES, ids=["Exponent", "Occurrence"]
)
def test_value_classes_are_immutable_values(make, make_by_keyword, other, text):
    value = make()
    assert value == make_by_keyword() and hash(value) == hash(make_by_keyword())
    assert value is not make() and len({value, make(), make_by_keyword()}) == 1
    assert value != other and other != value
    assert value != tuple(getattr(value, name) for name in value.__slots__)
    assert repr(value) == text
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


def test_check_letters():
    assert check_letters([0, 5, 7]) == [0, 5, 7]
    with pytest.raises(ValueError):
        check_letters([0, -1])
    with pytest.raises(ValueError):
        check_letters([0, True])
    with pytest.raises(ValueError):
        check_letters([0, "1"])
