import pytest

from psl2ham import Field, build_quotient
from reference import PSL2
from util import held_graph

INSTANCE_KS = {61: (61, 1), 81: (3, 4), 121: (11, 2)}


@pytest.fixture(scope="session")
def fields():
    return {k: Field(s, m) for k, (s, m) in INSTANCE_KS.items()}


@pytest.fixture(scope="session")
def field61(fields):
    return fields[61]


@pytest.fixture(scope="session")
def field81(fields):
    return fields[81]


@pytest.fixture(scope="session")
def field121(fields):
    return fields[121]


@pytest.fixture(scope="session")
def groups(fields):
    return {k: PSL2(f) for k, f in fields.items()}


@pytest.fixture(scope="session")
def group61(groups):
    return groups[61]


class GraphCache:
    """Builds and memoizes orbital graphs and quotients across the session."""

    def __init__(self, fields):
        self.fields = fields
        self._graphs = {}
        self._quotients = {}

    def graph(self, k, i):
        if (k, i) not in self._graphs:
            self._graphs[(k, i)] = held_graph(self.fields[k], i)
        return self._graphs[(k, i)]

    def quotient(self, k, i):
        if (k, i) not in self._quotients:
            self._quotients[(k, i)] = build_quotient(self.fields[k], i)
        return self._quotients[(k, i)]


@pytest.fixture(scope="session")
def cache(fields):
    return GraphCache(fields)
