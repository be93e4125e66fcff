import pytest

from dlab import thm1, thm2


@pytest.fixture(scope="session")
def thm1_stage4():
    return thm1.build(4)


@pytest.fixture(scope="session")
def thm1_stage8():
    return thm1.build(8)


@pytest.fixture(scope="session")
def thm2_states():
    """Solver-built states at stages 1..4 (state[r] has stage r+1... index by stage-1)."""
    states = [thm2.initial_state()]
    while states[-1].stage < 4:
        states.append(thm2.solve_spacers(states[-1]))
    return states


@pytest.fixture(scope="session")
def thm2_stage4(thm2_states):
    return thm2_states[-1]


@pytest.fixture(scope="session")
def thm2_transitive4():
    return thm2.build_to_stage(4, transitive=True)
