import tracemalloc
import warnings

import pytest

import mixbound as mb
from mixbound.errors import VacuousRegimeWarning


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes of what the call allocated)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True)
def _quiet_vacuous_regime():
    # Desk-scale tests live almost entirely below n = 16 sigma^2.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VacuousRegimeWarning)
        yield


@pytest.fixture(scope="session")
def k2_chain():
    return mb.lazy_simple_walk(mb.complete_graph(2))


@pytest.fixture(scope="session")
def k3_chain():
    return mb.lazy_simple_walk(mb.complete_graph(3))


@pytest.fixture(scope="session")
def path3_chain():
    return mb.lazy_simple_walk(mb.path_graph(3))


@pytest.fixture(scope="session")
def k3_params(k3_chain):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VacuousRegimeWarning)
        return mb.custom_params(k3_chain, T=1, L=2)


@pytest.fixture(scope="session")
def k3_family(k3_chain, k3_params):
    return mb.enumerate_family(k3_chain, k3_params)
