import pytest

from fenceinj import build_G, close, enumerate_FI


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
def g5_closure():
    return close(build_G(5))


@pytest.fixture(scope="session")
def g7_closure():
    return close(build_G(7))


@pytest.fixture(scope="session")
def g9_closure():
    return close(build_G(9))
