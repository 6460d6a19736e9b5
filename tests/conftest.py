import pytest

from qkneser import gf, kneser, pg


@pytest.fixture(scope="session")
def f2():
    return gf.make_field(2)


@pytest.fixture(scope="session")
def f3():
    return gf.make_field(3)


@pytest.fixture(scope="session")
def u22(f2):
    return kneser.FlagUniverse(5, (2, 3), f2)


@pytest.fixture(scope="session")
def u23(f3):
    return kneser.FlagUniverse(5, (2, 3), f3)


@pytest.fixture(scope="session")
def u24():
    return kneser.FlagUniverse(5, (2, 3), gf.make_field(4))


@pytest.fixture(scope="session")
def u32(f2):
    return kneser.FlagUniverse(7, (3, 4), f2)


def unit_rows(n):
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


def dual_flag(f):
    """The memberwise orthogonal complement of a flag, its chain reversed."""
    return kneser.Flag(tuple(pg.dual(s) for s in reversed(f.chain)))
