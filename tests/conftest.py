import pytest
from hypothesis import settings

from ligraph.fixtures import (
    home_visits_graph,
    home_visits_process,
    independent_pair_process,
    three_cycle_graph,
    three_cycle_process,
    vacuous_dependency_process,
)

# Property tests draw the same bounded set of examples on every run.
settings.register_profile("ligraph", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("ligraph")


@pytest.fixture(scope="session")
def cycle3():
    return three_cycle_graph()


@pytest.fixture(scope="session")
def visits_graph():
    return home_visits_graph()


@pytest.fixture(scope="session")
def cycle3_spec():
    return three_cycle_process()


@pytest.fixture(scope="session")
def visits_spec():
    return home_visits_process()


@pytest.fixture(scope="session")
def independent_spec():
    return independent_pair_process()


@pytest.fixture(scope="session")
def vacuous_spec():
    return vacuous_dependency_process()
