import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmarket import (
    Allocation,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
    build_graph,
    compute_alphas,
    reach_from,
)
from fairmarket.core import _common_denominator
from fairmarket.market import bang_per_buck, best_ratios, shortest_violator_path, split_valuations

F = Fraction


def test_bang_per_buck_conventions():
    assert bang_per_buck(F(0), F(0)) == 0
    assert bang_per_buck(F(3), F(2)) == F(3, 2)
    with pytest.raises(InternalInvariantError):
        bang_per_buck(F(1), F(0))


def test_alphas_on_demo_state(demo_instance, demo_state_solution):
    alphas = compute_alphas(demo_instance, demo_state_solution.prices)
    assert alphas == {0: F(1), 1: F(1), 2: F(1)}


def test_alpha_single_agent():
    inst = Instance.from_values([[2]])
    assert compute_alphas(inst, (F(1),)) == {0: F(2)}


def test_alphas_scale_inversely_with_prices(demo_instance, demo_state_solution):
    doubled = tuple(2 * p for p in demo_state_solution.prices)
    base = compute_alphas(demo_instance, demo_state_solution.prices)
    halved = compute_alphas(demo_instance, doubled)
    assert halved == {i: a / 2 for i, a in base.items()}


def test_graph_on_demo_state(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    assert g.mbb == {0: (0, 1), 1: (2, 3), 2: (3, 4)}
    assert g.owner == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}


def test_uniform_everything_gives_complete_mbb_edges():
    inst = Instance.from_values([[1, 1, 1]])
    sol = Solution(Allocation.from_lists([[0, 1, 2]]), (F(1), F(1), F(1)))
    g = build_graph(inst, sol)
    assert g.mbb[0] == (0, 1, 2)


def test_price_raise_removes_mbb_edge():
    inst = Instance.from_values([[1, 1]])
    cheap = build_graph(inst, Solution(Allocation.from_lists([[0, 1]]), (F(1), F(1))))
    assert cheap.mbb[0] == (0, 1)
    raised = build_graph(inst, Solution(Allocation.from_lists([[0, 1]]), (F(1), F(2))))
    assert raised.mbb[0] == (0,)


@pytest.mark.parametrize(
    "bundles, prices",
    [
        ([[0, 1], [1, 2, 3], [4]], (6, 5, 7, 3, 4)),  # good 1 is owned twice
        ([[0, 1], [2, 3], [4, 5]], (6, 5, 7, 3, 4, 1)),  # good 5 is not in the instance
    ],
)
def test_build_graph_validates_its_solution(demo_instance, bundles, prices):
    sol = Solution(Allocation.from_lists(bundles), tuple(F(p) for p in prices))
    with pytest.raises(InvalidInputError):
        build_graph(demo_instance, sol)


def test_graph_dump_is_json_ready(demo_instance, demo_state_solution):
    import json

    dump = build_graph(demo_instance, demo_state_solution).as_dict()
    assert json.loads(json.dumps(dump)) == dump
    assert [2, 3] in dump["mbb_edges"] or [2, 3] == dump["mbb_edges"][2]


# Few distinct values and prices, so ties and zeros are common.
small_rationals = st.sampled_from([F(0), F(1), F(2), F(1, 3), F(2, 3), F(5, 7)]) | st.fractions(
    min_value=0, max_value=9, max_denominator=60
)


@given(data=st.data())
def test_best_ratio_matches_bang_per_buck(data):
    """The integer kernel against the `Fraction` definition: same maximum, every attaining good."""
    row_of_four = st.lists(small_rationals, min_size=4, max_size=4)
    rows = data.draw(st.lists(row_of_four, min_size=1, max_size=3))
    # Zero prices only where every value is zero: positive value over zero price is checked below.
    prices = [
        data.draw(small_rationals.filter(bool) if any(row[g] for row in rows) else small_rationals)
        for g in range(4)
    ]
    goods = sorted(data.draw(st.sets(st.integers(0, 3), min_size=1)))
    agents = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    inst = Instance(tuple(tuple(row) for row in rows))
    nums, den = _common_denominator(prices)
    results = list(best_ratios(split_valuations(inst), agents, goods, nums, den))
    assert len(results) == len(agents)
    for i, (alpha, attaining) in zip(agents, results):
        ratios = {g: bang_per_buck(rows[i][g], prices[g]) for g in goods}
        assert alpha == max(ratios.values())
        assert attaining == [g for g in goods if ratios[g] == alpha]
    assert compute_alphas(inst, prices) == {
        i: max(map(bang_per_buck, row, prices)) for i, row in enumerate(rows)
    }


def test_best_ratio_rejects_positive_value_over_zero_price():
    rows = split_valuations(Instance.from_values([[0, 3]]))
    with pytest.raises(InternalInvariantError):
        list(best_ratios(rows, [0], [0, 1], [0, 0], 1))
    assert list(best_ratios(rows, [0], [0], [0], 1)) == [(0, [0])]  # 0/0 counts as ratio 0


# ---------------------------------------------------------------------------
# reachability


def test_reach_on_demo_state(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    r = reach_from(g, [2], 3)
    assert r.agents == frozenset({1, 2})
    assert r.goods == frozenset({2, 3, 4})
    assert r.levels == {0: 3, 1: 1, 2: 0}


def test_reach_with_all_sources(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    r = reach_from(g, [0, 1, 2], 3)
    assert r.agents == frozenset({0, 1, 2})


def test_reach_without_edges_returns_sources():
    inst = Instance.from_values([[0, 1], [1, 0]])
    g = build_graph(inst, Solution(Allocation.from_lists([[1], [0]]), (F(1), F(1))))
    # agent 0's best-ratio edge goes to its own good 1 only
    r = reach_from(g, [0], 2)
    assert r.agents == frozenset({0})
    assert r.goods == frozenset({1})


def test_reach_degenerate_graph_without_ratio_edges():
    from fairmarket import MbbGraph

    bare = MbbGraph(agents=(0, 1), goods=(), mbb={0: (), 1: ()}, owner={}, alphas={0: F(0), 1: F(0)})
    r = reach_from(bare, [1], 2)
    assert r.agents == frozenset({1})
    assert r.goods == frozenset()
    assert r.levels == {0: 2, 1: 0}


def test_reach_monotone_in_sources(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    small = reach_from(g, [2], 3)
    big = reach_from(g, [1, 2], 3)
    assert small.agents <= big.agents
    assert small.goods <= big.goods


def test_reach_idempotent(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    first = reach_from(g, [2], 3)
    again = reach_from(g, sorted(first.agents), 3)
    assert again.agents == first.agents
    assert again.goods == first.goods


def test_no_mbb_edge_leaves_reachable_set(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    r = reach_from(g, [2], 3)
    for i in r.agents:
        assert set(g.mbb[i]) <= r.goods


# ---------------------------------------------------------------------------
# shortest paths


def _two_agent_hoard_graph():
    inst = Instance.from_values([[1, 1, 1], [1, 1, 1]])
    sol = Solution(Allocation.from_lists([[0, 1, 2], []]), (F(1), F(1), F(1)))
    return build_graph(inst, sol)


def test_shortest_path_two_agents():
    g = _two_agent_hoard_graph()
    assert shortest_violator_path(g, reach_from(g, [1], 2), [0]) == (1, 0, 0)


def test_shortest_path_unreachable_target():
    inst = Instance.from_values([[1, 0], [0, 1]])
    g = build_graph(inst, Solution(Allocation.from_lists([[0], [1]]), (F(1), F(1))))
    assert shortest_violator_path(g, reach_from(g, [0], 2), [1]) is None


def test_shortest_path_rejects_reach_of_another_graph():
    hoard = _two_agent_hoard_graph()
    inst = Instance.from_values([[1, 0], [0, 1]])
    apart = build_graph(inst, Solution(Allocation.from_lists([[0], [1]]), (F(1), F(1))))
    with pytest.raises(InternalInvariantError, match="lost the trail"):
        shortest_violator_path(apart, reach_from(hoard, [1], 2), [0])


def test_shortest_path_adjacent_is_length_two(demo_instance, demo_state_solution):
    g = build_graph(demo_instance, demo_state_solution)
    # agent 2's best goods include good 3, owned by agent 1
    path = shortest_violator_path(g, reach_from(g, [2], 3), [1])
    assert path == (2, 3, 1)
    assert len(path) == 3


def test_path_alternates_and_respects_edges():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(n, 6)
        inst = Instance.from_values(
            [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
        )
        prices = tuple(F(rng.randint(1, 6)) for _ in range(m))
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        sol = Solution(Allocation.from_lists(bundles), prices)
        graph = build_graph(inst, sol)
        source = 0
        targets = [i for i in range(1, n)]
        reach = reach_from(graph, [source], n)
        path = shortest_violator_path(graph, reach, targets)
        if path is None:
            continue
        assert path[0] == source and path[-1] in targets
        assert len(path) % 2 == 1
        agents, goods = path[0::2], path[1::2]
        for idx, g in enumerate(goods):
            assert g in graph.mbb[agents[idx]]      # ratio edge out of the agent
            assert graph.owner[g] == agents[idx + 1]  # ownership edge into the next
        # breadth-first levels agree with path positions (shortest => level r at hop r)
        for r, agent in enumerate(agents):
            assert reach.levels[agent] == r
