import numpy as np
import pytest

from fenceinj import ElementUniverse, build_G, close, enumerate_FI
from fenceinj.oracle import _census_codes


@pytest.fixture(scope="session")
def u3():
    return enumerate_FI(3)


@pytest.fixture(scope="session")
def u5():
    return enumerate_FI(5)


@pytest.fixture(scope="session")
def u7():
    return enumerate_FI(7)


@pytest.fixture(scope="session")
def u9():
    return enumerate_FI(9)


@pytest.fixture(scope="session")
def u11():
    """The census of FI_11, past the enumeration cap; it shares no code
    with the closure."""
    return ElementUniverse(11, np.sort(_census_codes(11)))


@pytest.fixture(scope="session")
def g5_closure():
    return close(build_G(5))


@pytest.fixture(scope="session")
def g7_closure():
    return close(build_G(7))


@pytest.fixture(scope="session")
def g9_closure():
    return close(build_G(9))
