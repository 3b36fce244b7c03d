import pytest

from lexleast.words import Exponent, Occurrence, check_letters


def test_exponent_validation():
    with pytest.raises(ValueError):
        Exponent(2, 2)
    with pytest.raises(ValueError):
        Exponent(1, 2)
    with pytest.raises(ValueError):
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


def test_check_letters():
    assert check_letters([0, 5, 7]) == [0, 5, 7]
    with pytest.raises(ValueError):
        check_letters([0, -1])
    with pytest.raises(ValueError):
        check_letters([0, True])
    with pytest.raises(ValueError):
        check_letters([0, "1"])
