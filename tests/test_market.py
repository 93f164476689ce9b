import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmarket import (
    EngineState,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    MbbGraph,
    reach_from,
)
from fairmarket.core import _common_denominator
from fairmarket.market import Reachability, best_ratios, shortest_violator_path, split_valuations

import reference
from conftest import unchecked_state

F = Fraction


def test_bang_per_buck_conventions():
    assert reference.bang_per_buck(F(0), F(0)) == 0
    assert reference.bang_per_buck(F(3), F(2)) == F(3, 2)
    with pytest.raises(InternalInvariantError):
        reference.bang_per_buck(F(1), F(0))


@pytest.fixture
def demo_state(demo_instance, demo_state_solution) -> EngineState:
    """The demo state as the engine holds and searches it."""
    sol = demo_state_solution
    return EngineState.from_solution(demo_instance, sol.allocation.bundles, sol.prices)


def test_graph_on_demo_state(demo_state):
    assert demo_state.mbb == [{0, 1}, {2, 3}, {3, 4}]
    assert demo_state.bundles == [{0, 1}, {2, 3}, {4}]


def test_uniform_everything_gives_complete_mbb_edges():
    inst = Instance.from_values([[1, 1, 1]])
    assert EngineState.from_solution(inst, [[0, 1, 2]], [F(1)] * 3).mbb == [{0, 1, 2}]


def test_price_raise_removes_mbb_edge():
    inst = Instance.from_values([[1, 1]])
    assert MbbGraph.from_state(inst, [[0, 1]], [F(1), F(1)], [0], [0, 1]).mbb == {0: (0, 1)}
    assert MbbGraph.from_state(inst, [[0, 1]], [F(1), F(2)], [0], [0, 1]).mbb == {0: (0,)}


@pytest.mark.parametrize(
    "bundles, prices",
    [
        ([[0, 1], [1, 2, 3], [4]], (6, 5, 7, 3, 4)),  # good 1 is owned twice
        ([[0, 1], [2, 3], [4, 5]], (6, 5, 7, 3, 4, 1)),  # good 5 is not in the instance
    ],
)
def test_build_graph_validates_its_solution(demo_instance, bundles, prices):
    # Building the searched graph from a solution checks the solution first.
    with pytest.raises(InvalidInputError):
        EngineState.from_solution(demo_instance, bundles, [F(p) for p in prices])


# Few distinct values and prices, so ties and zeros are common.
small_rationals = st.sampled_from([F(0), F(1), F(2), F(1, 3), F(2, 3), F(5, 7)]) | st.fractions(
    min_value=0, max_value=9, max_denominator=60
)


@given(data=st.data())
def test_best_ratio_matches_bang_per_buck(data):
    """The integer kernel against the literal `Fraction` definition: same maximum, same goods."""
    row_of_four = st.lists(small_rationals, min_size=4, max_size=4)
    rows = data.draw(st.lists(row_of_four, min_size=1, max_size=3))
    # Positive prices only: the kernel is handed joined goods alone.
    prices = [data.draw(small_rationals.filter(bool)) for _ in range(4)]
    goods = sorted(data.draw(st.sets(st.integers(0, 3), min_size=1)))
    agents = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    inst = Instance(tuple(tuple(row) for row in rows))
    nums, den = _common_denominator(prices)
    results = list(best_ratios(split_valuations(inst), agents, goods, nums))
    assert len(results) == len(agents)
    expected = reference.alphas(inst, prices, agents, goods)
    attainers = reference.mbb(inst, prices, agents, goods)
    for i, (v, p, attaining), best in zip(agents, results, attainers):
        assert F(v * den, p) == expected[i]
        assert attaining == sorted(best)


def test_graph_rejects_a_good_priced_at_zero():
    """The graph takes its prices from outside, so it checks that its goods are priced; the kernel does not."""
    inst = Instance.from_values([[0, 3]])
    for prices in ([F(0), F(1)], [F(1), F(0)], [F(-1), F(1)]):
        with pytest.raises(InvalidInputError, match="positive prices"):
            MbbGraph.from_state(inst, [[0, 1]], prices, [0], [0, 1])
    # A good outside the graph's goods may go unpriced.
    assert MbbGraph.from_state(inst, [[1]], [F(0), F(1)], [0], [1]).mbb == {0: (1,)}


# ---------------------------------------------------------------------------
# reachability


def test_reach_on_demo_state(demo_state):
    r = reach_from(demo_state, [2])
    assert r.agents == frozenset({1, 2})
    assert r.goods == frozenset({2, 3, 4})
    assert r.levels == {0: 3, 1: 1, 2: 0}


def test_reach_with_all_sources(demo_state):
    r = reach_from(demo_state, [0, 1, 2])
    assert r.agents == frozenset({0, 1, 2})


def test_reach_without_edges_returns_sources():
    inst = Instance.from_values([[0, 1], [1, 0]])
    g = EngineState.from_solution(inst, [[1], [0]], [F(1), F(1)])
    # agent 0's best-ratio edge goes to its own good 1 only
    r = reach_from(g, [0])
    assert r.agents == frozenset({0})
    assert r.goods == frozenset({1})


def test_reach_degenerate_graph_without_ratio_edges():
    # Two active agents and no good joined yet: no edge of either kind.
    bare = unchecked_state(Instance.from_values([[1, 2], [2, 1]]), [[], []], [F(0), F(0)])
    assert bare.mbb == [set(), set()]
    r = reach_from(bare, [1])
    assert r.agents == frozenset({1})
    assert r.goods == frozenset()
    assert r.levels == {0: 2, 1: 0}
    assert r.goods_per_level == (0, 0, 0)


@pytest.mark.parametrize("sources", [[], [-1], [3], [2, 3], ["2"]])
def test_reach_rejects_sources_outside_the_graph(demo_instance, demo_state_solution, demo_state, sources):
    # -1 would alias agent 2 and 3 is past the last agent, on the checked state and on a
    # state rebuilt from its prices.
    sol = demo_state_solution
    rebuilt = unchecked_state(demo_instance, sol.allocation.bundles, sol.prices)
    assert reach_from(rebuilt, [2]) == reach_from(demo_state, [2])
    for state in (rebuilt, demo_state):
        assert reach_from(state, [2]).agents == frozenset({1, 2})
        with pytest.raises(InvalidInputError, match="sources among the graph's agents"):
            reach_from(state, sources)


def test_reachability_is_a_frozen_record():
    args = (frozenset({1, 2}), frozenset({2, 3, 4}), {0: 3, 1: 1, 2: 0}, (3, 0, 0, 2))
    reach = Reachability(*args)
    assert reach == Reachability(agents=args[0], goods=args[1], levels=args[2], goods_per_level=args[3])
    assert Reachability(*args[:3]) == Reachability(*args[:3], ()) != reach
    with pytest.raises(FrozenInstanceError):
        reach.agents = frozenset()


def test_reach_monotone_in_sources(demo_state):
    small = reach_from(demo_state, [2])
    big = reach_from(demo_state, [1, 2])
    assert small.agents <= big.agents
    assert small.goods <= big.goods


def test_reach_idempotent(demo_state):
    first = reach_from(demo_state, [2])
    again = reach_from(demo_state, sorted(first.agents))
    assert again.agents == first.agents
    assert again.goods == first.goods


def test_no_mbb_edge_leaves_reachable_set(demo_state):
    r = reach_from(demo_state, [2])
    for i in r.agents:
        assert demo_state.mbb[i] <= r.goods


# ---------------------------------------------------------------------------
# shortest paths


def _two_agent_hoard_graph():
    inst = Instance.from_values([[1, 1, 1], [1, 1, 1]])
    return EngineState.from_solution(inst, [[0, 1, 2], []], [F(1)] * 3)


def test_shortest_path_two_agents():
    g = _two_agent_hoard_graph()
    assert shortest_violator_path(g, reach_from(g, [1]), [0]) == (1, 0, 0)


def test_shortest_path_unreachable_target():
    inst = Instance.from_values([[1, 0], [0, 1]])
    g = EngineState.from_solution(inst, [[0], [1]], [F(1), F(1)])
    assert shortest_violator_path(g, reach_from(g, [0]), [1]) is None


def test_shortest_path_rejects_reach_of_another_graph():
    hoard = _two_agent_hoard_graph()
    inst = Instance.from_values([[1, 0], [0, 1]])
    apart = EngineState.from_solution(inst, [[0], [1]], [F(1), F(1)])
    with pytest.raises(InternalInvariantError, match="lost the trail"):
        shortest_violator_path(apart, reach_from(hoard, [1]), [0])


def test_shortest_path_adjacent_is_length_two(demo_state):
    # agent 2's best goods include good 3, owned by agent 1
    path = shortest_violator_path(demo_state, reach_from(demo_state, [2]), [1])
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
        prices = [F(rng.randint(1, 6)) for _ in range(m)]
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        state = unchecked_state(inst, bundles, prices)
        source = 0
        targets = [i for i in range(1, n)]
        reach = reach_from(state, [source])
        path = shortest_violator_path(state, reach, targets)
        if path is None:
            continue
        assert path[0] == source and path[-1] in targets
        assert len(path) % 2 == 1
        agents, goods = path[0::2], path[1::2]
        mbb = reference.mbb(inst, prices, range(n), range(m))
        for idx, g in enumerate(goods):
            assert g in mbb[agents[idx]]      # ratio edge out of the agent, by the literal definition
            assert g in bundles[agents[idx + 1]]  # allocation edge into the next
        # breadth-first levels agree with path positions (shortest => level r at hop r)
        for r, agent in enumerate(agents):
            assert reach.levels[agent] == r


# ---------------------------------------------------------------------------
# reference search: sorted scans and a backward search from the target


def _reference_reach(graph, sources, agent_count):
    """Breadth-first reachability scanning sources, goods and frontiers in index order."""
    source_list = sorted(set(sources))
    if not source_list:
        raise InvalidInputError("reachability needs at least one source agent")
    levels = {i: agent_count for i in range(graph.num_agents)}
    reached = set(source_list)
    seen_goods = set()
    for s in source_list:
        levels[s] = 0
    frontier = source_list
    depth = 0
    while frontier:
        new_goods = []
        for i in frontier:
            for g in graph.mbb[i]:
                if g not in seen_goods:
                    seen_goods.add(g)
                    new_goods.append(g)
        next_frontier = []
        for g in sorted(new_goods):
            j = graph.owner.get(g)
            if j is not None and j not in reached:
                levels[j] = depth + 1
                reached.add(j)
                next_frontier.append(j)
        frontier = sorted(next_frontier)
        depth += 1
    return frozenset(reached), frozenset(seen_goods), levels


def _reference_path(graph, reach, violators):
    """Shortest violator path from edge-hop distances of a backward search."""
    agents, goods, levels = reach
    targets = sorted(set(violators) & agents)
    if any(levels[v] == 0 for v in targets):
        raise InvalidInputError("source agent must not itself be a violator")
    if not targets:
        return None
    depth = min(levels[v] for v in targets)
    target = min(v for v in targets if levels[v] == depth)
    rev_mbb, owned = {}, {}
    for i in agents:
        for g in graph.mbb[i]:
            rev_mbb.setdefault(g, []).append(i)
    for g in goods:
        i = graph.owner.get(g)
        if i is not None:
            owned.setdefault(i, []).append(g)
    back_agent, back_good = {target: 0}, {}
    frontier = [target]
    while frontier:
        new_goods = []
        for j in frontier:
            for g in owned.get(j, ()):
                if g not in back_good:
                    back_good[g] = back_agent[j] + 1
                    new_goods.append(g)
        frontier = []
        for g in new_goods:
            for i in rev_mbb.get(g, ()):
                if i not in back_agent:
                    back_agent[i] = back_good[g] + 1
                    frontier.append(i)
    remaining = 2 * depth
    try:
        current = min(s for s in agents if levels[s] == 0 and back_agent.get(s) == remaining)
        path = [current]
        while current != target:
            g = min(g for g in graph.mbb[current] if back_good.get(g) == remaining - 1)
            current = graph.owner[g]
            path.extend((g, current))
            remaining -= 2
    except ValueError:
        raise InternalInvariantError("shortest-path walk lost the trail") from None
    return tuple(path)


def _outcome(call):
    try:
        return call()
    except (InvalidInputError, InternalInvariantError) as exc:
        return type(exc)


def test_search_matches_backward_search_reference():
    # Arbitrary edges in shuffled order, unowned goods, several sources;
    # violators are mostly reached non-sources, so most draws have a path.
    # The reference breaks every tie by index order; the search under test
    # must give the same result whatever the order of its inputs.
    rng = random.Random(8)
    lengths = Counter()
    for _ in range(4000):
        n, m = rng.randint(1, 7), rng.randint(0, 9)
        owner = {g: rng.randrange(n) for g in range(m) if rng.random() < 0.8}
        density = rng.random()
        mbb = {i: [g for g in rng.sample(range(m), m) if rng.random() < density] for i in range(n)}
        bundles = {i: {g for g, j in owner.items() if j == i} for i in range(n)}
        graph = SimpleNamespace(num_agents=n, mbb=mbb, bundles=bundles, owner=owner)  # an engine state's fields
        sources = rng.sample(range(n), rng.randint(1, min(n, 2)))
        expected = _reference_reach(graph, sources, n)
        pool = [i for i in range(n) if i in expected[0] and i not in sources or rng.random() < 0.1]
        violators = rng.sample(pool, min(len(pool), rng.randint(0, 2)))
        reach = reach_from(graph, sources)
        assert (reach.agents, reach.goods, reach.levels) == expected
        # The goods held at each level, by the reference's levels; unreached agents sit at n, last.
        counts = [0] * (n + 1)
        for j in owner.values():
            counts[expected[2][j]] += 1
        assert reach.goods_per_level == tuple(counts)
        path = _outcome(lambda: shortest_violator_path(graph, reach, violators))
        assert path == _outcome(lambda: _reference_path(graph, expected, violators))
        lengths[len(path) if isinstance(path, tuple) else path] += 1
    # every outcome is drawn, including paths through intermediate agents
    assert lengths[None] and lengths[InvalidInputError] and lengths[3] > 500
    assert lengths[5] + lengths[7] > 20
