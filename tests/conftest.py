from fractions import Fraction

import pytest
from hypothesis import settings

from fairmarket import Allocation, EngineState, Instance, Solution
from fairmarket.core import _common_denominator

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")

# Three agents, five goods; the running demo instance used across the suite.
DEMO_VALUES = [
    [6, 5, 0, 0, 0],
    [0, 1, 7, 3, 0],
    [2, 3, 6, 3, 4],
]

# A hand-checkable intermediate state on the demo instance: not yet fair,
# agent 2 is the only minimum spender, agent 0 the only maximum violator.
DEMO_BUNDLES = [[0, 1], [2, 3], [4]]
DEMO_PRICES = (6, 5, 7, 3, 4)


@pytest.fixture
def demo_instance() -> Instance:
    return Instance.from_values(DEMO_VALUES)


@pytest.fixture
def demo_state_solution(demo_instance) -> Solution:
    return Solution(
        Allocation.from_lists(DEMO_BUNDLES),
        tuple(Fraction(p) for p in DEMO_PRICES),
    )


def unchecked_state(inst: Instance, bundles, prices) -> EngineState:
    """The state `from_solution` builds, without its entry checks: for kernels that take any partition.

    Agents 0..len(bundles)-1 are active; a good priced 0 has not joined.
    """
    state = EngineState(inst, check=False)
    state.num_agents = len(bundles)
    state.nums, state.den = _common_denominator(prices)
    state.bundles = [set(b) for b in bundles]
    state.track_new_agents()
    return state
