"""Bang-per-buck structure over a priced instance.

Builds the directed bipartite graph whose agent-to-good edges mark goods
attaining an agent's best value-per-price ratio and whose good-to-agent
edges point from each good to its owner, plus breadth-first reachability
(with per-agent levels) and deterministic shortest alternating paths over
that graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Prices,
    Solution,
    _common_denominator,
    valid_goods,
)


def bang_per_buck(value: Fraction, price: Fraction) -> Fraction:
    """value/price with the 0/0 = 0 convention; positive value at zero price is a bug."""
    if price == 0:
        if value == 0:
            return Fraction(0)
        raise InternalInvariantError("positive value over zero price")
    return value / price


def split_valuations(inst: Instance) -> list[list[tuple[int, int]]]:
    """Each agent's valuations as integer (numerator, denominator) pairs."""
    return [[v.as_integer_ratio() for v in row] for row in inst.valuations]


def best_ratios(
    rows: Sequence[Sequence[tuple[int, int]]],
    agents: Iterable[int],
    goods: Iterable[int],
    nums: Sequence[int] | Mapping[int, int],
    den: int,
) -> Iterator[tuple[Fraction, list[int]]]:
    """Per agent, its best value/price ratio over `goods` and the goods attaining it.

    `rows` holds split valuations (as `split_valuations` makes them) and
    good g costs `nums[g] / den`.  The denominator is common to every
    price, so the comparisons leave it out and cross-multiply integers;
    only the returned ratio uses it.  Follows `bang_per_buck`'s conventions.
    """
    for i in agents:
        row = rows[i]
        best_v, best_p, attaining = 0, 1, []
        for g in goods:
            v, d = row[g]
            p = d * nums[g]
            if not p:
                if v:
                    raise InternalInvariantError("positive value over zero price")
                p = 1  # 0/0 counts as a zero ratio
            lhs, rhs = v * best_p, best_v * p
            if lhs > rhs:
                best_v, best_p, attaining = v, p, [g]
            elif lhs == rhs:
                attaining.append(g)
        yield Fraction(best_v * den, best_p), attaining


def compute_alphas(
    inst: Instance,
    prices: Prices,
    agents: Iterable[int] | None = None,
    goods: Sequence[int] | None = None,
) -> dict[int, Fraction]:
    """Best value-per-price ratio per agent over the given goods (default: all)."""
    good_ids = valid_goods(prices, range(inst.m) if goods is None else goods)
    agent_ids = range(inst.n) if agents is None else agents
    # The graph's alphas; with empty bundles it has no ownership edges.
    return MbbGraph.from_state(inst, [()] * inst.n, prices, agent_ids, good_ids).alphas


@dataclass(frozen=True)
class MbbGraph:
    """Directed bipartite graph of best-ratio edges and ownership edges.

    `mbb[i]` lists, in ascending order, the goods attaining agent i's best
    ratio; `owner[g]` is the agent holding good g.  Both edge families are
    traversed agent -> good -> owning agent.
    """

    agents: tuple[int, ...]
    goods: tuple[int, ...]
    mbb: dict[int, tuple[int, ...]]
    owner: dict[int, int]
    alphas: dict[int, Fraction]

    @classmethod
    def from_state(
        cls,
        inst: Instance,
        bundles: Sequence[Iterable[int]],
        prices: Prices,
        agents: Sequence[int],
        goods: Sequence[int],
    ) -> "MbbGraph":
        """Graph of a state whose bundles partition `goods`, all priced (not re-checked)."""
        agents = tuple(sorted(agents))
        goods = tuple(sorted(goods))
        scaled, den = _common_denominator(prices[g] for g in goods)
        ratios = best_ratios(split_valuations(inst), agents, goods, dict(zip(goods, scaled)), den)
        alphas, mbb = {}, {}
        for i, (alpha, attaining) in zip(agents, ratios):
            alphas[i], mbb[i] = alpha, tuple(attaining)
        owner = {g: i for i in agents for g in bundles[i]}
        return cls(agents, goods, mbb, owner, alphas)

    def as_dict(self) -> dict:
        """JSON-ready dump for debugging and test assertions."""
        return {
            "agents": list(self.agents),
            "goods": list(self.goods),
            "mbb_edges": [[i, g] for i in self.agents for g in self.mbb[i]],
            "allocation_edges": [[g, self.owner[g]] for g in sorted(self.owner)],
            "alphas": {str(i): str(self.alphas[i]) for i in self.agents},
        }


def build_graph(inst: Instance, sol: Solution) -> MbbGraph:
    """Graph for a full-instance solution (every agent and good in play)."""
    sol.validate(inst)
    return MbbGraph.from_state(
        inst, sol.allocation.bundles, sol.prices, range(inst.n), range(inst.m)
    )


@dataclass(frozen=True)
class Reachability:
    """Closure of the alternating-edge walk from a set of source agents.

    `levels` maps every graph agent to its breadth-first depth in agent
    layers (half the edge count of a shortest path); agents that cannot be
    reached carry the sentinel level passed to `reach_from`.
    """

    agents: frozenset[int]
    goods: frozenset[int]
    levels: dict[int, int]


def reach_from(graph: MbbGraph, sources: Iterable[int], agent_count: int) -> Reachability:
    """Breadth-first reachability from `sources`, scanning indices ascending.

    Alternates best-ratio edges (agent to good) with ownership edges (good
    to owning agent).  Besides an `MbbGraph`, `graph` may be any object with
    the same `agents`, agent-indexed `mbb` and `owner`, such as the engine's
    maintained state; the order of each edge set does not matter.
    `agent_count` is the level assigned to unreachable agents.
    """
    source_list = sorted(set(sources))
    if not source_list:
        raise InvalidInputError("reachability needs at least one source agent")
    levels = {i: agent_count for i in graph.agents}
    reached = set(source_list)
    seen_goods: set[int] = set()
    for s in source_list:
        levels[s] = 0
    frontier = source_list
    depth = 0
    while frontier:
        new_goods: list[int] = []
        for i in frontier:
            for g in graph.mbb[i]:
                if g not in seen_goods:
                    seen_goods.add(g)
                    new_goods.append(g)
        next_frontier: list[int] = []
        for g in sorted(new_goods):
            j = graph.owner.get(g)
            if j is not None and j not in reached:
                levels[j] = depth + 1
                reached.add(j)
                next_frontier.append(j)
        frontier = sorted(next_frontier)
        depth += 1
    return Reachability(frozenset(reached), frozenset(seen_goods), levels)


def shortest_violator_path(
    graph: MbbGraph, reach: Reachability, violators: Iterable[int]
) -> tuple[int, ...] | None:
    """Shortest alternating path from the sources of `reach` to any violator, or None.

    `reach` is `reach_from` over the same graph, whose levels give the
    forward distances: agent j lies 2·level(j) edges from the sources.
    Ties are broken deterministically: the nearest violator with the
    smallest index is targeted, and among equal-length paths the
    lexicographically smallest node sequence is returned.  The result is a
    flat tuple (agent, good, agent, ..., good, agent).
    """
    levels = reach.levels
    targets = sorted(set(violators) & reach.agents)
    if any(levels[v] == 0 for v in targets):
        raise InvalidInputError("source agent must not itself be a violator")
    if not targets:
        return None
    depth = min(levels[v] for v in targets)
    target = min(v for v in targets if levels[v] == depth)

    # Backward edge-hop distances from the target over reversed edges.  Every
    # path out of a reachable agent stays reachable, so only the reachable
    # agents' edges can lie on a path.
    rev_mbb: dict[int, list[int]] = {}
    for i in reach.agents:
        for g in graph.mbb[i]:
            rev_mbb.setdefault(g, []).append(i)
    owned: dict[int, list[int]] = {}
    for g, i in graph.owner.items():
        owned.setdefault(i, []).append(g)
    back_agent: dict[int, int] = {target: 0}
    back_good: dict[int, int] = {}
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

    # Greedy walk: at each step take the smallest good that still lies on
    # some shortest path; the ownership edge then fixes the next agent.  The
    # target is `remaining` edges away, so a good one edge nearer to it than
    # the current agent is also one edge further from the sources.
    # An empty candidate set means `reach` does not describe `graph`.
    remaining = 2 * depth
    try:
        current = min(s for s in reach.agents if levels[s] == 0 and back_agent.get(s) == remaining)
        path: list[int] = [current]
        while current != target:
            g = min(g for g in graph.mbb[current] if back_good.get(g) == remaining - 1)
            current = graph.owner[g]
            path.extend((g, current))
            remaining -= 2
    except ValueError:
        raise InternalInvariantError("shortest-path walk lost the trail") from None
    return tuple(path)
