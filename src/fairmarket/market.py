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
from typing import Iterable, Sequence

from .core import (
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Prices,
    Solution,
    price_at,
)


def bang_per_buck(value: Fraction, price: Fraction) -> Fraction:
    """value/price with the 0/0 = 0 convention; positive value at zero price is a bug."""
    if price == 0:
        if value == 0:
            return Fraction(0)
        raise InternalInvariantError("positive value over zero price")
    return value / price


def best_ratio(
    row: Sequence[Fraction], goods: Sequence[int], cost: Sequence[Fraction]
) -> tuple[Fraction, list[int]]:
    """Best value/price ratio over `goods` priced `cost`, and the goods attaining it.

    Compares by integer cross-multiplication, with `bang_per_buck`'s conventions.
    """
    best_num, best_den, attaining = 0, 1, []
    for g, p in zip(goods, cost):
        v = row[g]
        num, den = v.numerator * p.denominator, v.denominator * p.numerator
        if not den:
            if num:
                raise InternalInvariantError("positive value over zero price")
            num, den = 0, 1
        lhs, rhs = num * best_den, best_num * den
        if lhs > rhs:
            best_num, best_den, attaining = num, den, [g]
        elif lhs == rhs:
            attaining.append(g)
    return Fraction(best_num, best_den), attaining


def compute_alphas(
    inst: Instance,
    prices: Prices,
    agents: Iterable[int] | None = None,
    goods: Sequence[int] | None = None,
) -> dict[int, Fraction]:
    """Best value-per-price ratio per agent over the given goods (default: all)."""
    good_ids = range(inst.m) if goods is None else goods
    cost = [price_at(prices, g) for g in good_ids]
    agent_ids = range(inst.n) if agents is None else agents
    return {i: best_ratio(inst.valuations[i], good_ids, cost)[0] for i in agent_ids}


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
        agents = tuple(sorted(agents))
        goods = tuple(sorted(goods))
        cost = [price_at(prices, g) for g in goods]
        alphas, mbb = {}, {}
        for i in agents:
            alphas[i], attaining = best_ratio(inst.valuations[i], goods, cost)
            mbb[i] = tuple(attaining)
        owner: dict[int, int] = {}
        for i in agents:
            for g in bundles[i]:
                if g in owner:
                    raise InvalidInputError(f"good {g} is owned twice")
                owner[g] = i
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
    return MbbGraph.from_state(
        inst, sol.allocation.bundles, sol.prices, range(inst.n), range(inst.m)
    )


@dataclass(frozen=True)
class Reachability:
    """Closure of the alternating-edge walk from a set of source agents.

    `levels` maps every graph agent to its breadth-first depth in agent
    layers (half the edge count of a shortest path); agents that cannot be
    reached carry the sentinel level passed to `reach_from`.  `parent_good`
    and `parent_agent` record the discovery tree.
    """

    agents: frozenset[int]
    goods: frozenset[int]
    levels: dict[int, int]
    parent_good: dict[int, int]
    parent_agent: dict[int, int | None]


def reach_from(graph: MbbGraph, sources: Iterable[int], agent_count: int) -> Reachability:
    """Breadth-first reachability from `sources`, scanning indices ascending.

    Alternates best-ratio edges (agent to good) with ownership edges (good
    to owning agent).  `agent_count` is the level assigned to unreachable
    agents.
    """
    source_list = sorted(set(sources))
    if not source_list:
        raise InvalidInputError("reachability needs at least one source agent")
    levels = {i: agent_count for i in graph.agents}
    parent_good: dict[int, int] = {}
    parent_agent: dict[int, int | None] = {}
    seen_goods: set[int] = set()
    for s in source_list:
        levels[s] = 0
        parent_agent[s] = None
    frontier = source_list
    depth = 0
    while frontier:
        new_goods: list[int] = []
        for i in frontier:
            for g in graph.mbb.get(i, ()):
                if g not in seen_goods:
                    seen_goods.add(g)
                    parent_good[g] = i
                    new_goods.append(g)
        next_frontier: list[int] = []
        for g in sorted(new_goods):
            j = graph.owner.get(g)
            if j is not None and j not in parent_agent:
                levels[j] = depth + 1
                parent_agent[j] = g
                next_frontier.append(j)
        frontier = sorted(next_frontier)
        depth += 1
    reached = frozenset(parent_agent)
    return Reachability(reached, frozenset(seen_goods), levels, parent_good, parent_agent)


def shortest_violator_path(
    graph: MbbGraph, source: int, violators: Iterable[int]
) -> tuple[int, ...] | None:
    """Shortest alternating path from `source` to any violator, or None.

    Ties are broken deterministically: the nearest violator with the
    smallest index is targeted, and among equal-length paths the
    lexicographically smallest node sequence is returned.  The result is a
    flat tuple (agent, good, agent, ..., good, agent).
    """
    targets = sorted(set(violators))
    if source in targets:
        raise InvalidInputError("source agent must not itself be a violator")

    # Forward edge-hop distances from the source.
    dist_agent: dict[int, int] = {source: 0}
    dist_good: dict[int, int] = {}
    frontier = [source]
    while frontier:
        new_goods: list[int] = []
        for i in frontier:
            for g in graph.mbb.get(i, ()):
                if g not in dist_good:
                    dist_good[g] = dist_agent[i] + 1
                    new_goods.append(g)
        frontier = []
        for g in new_goods:
            j = graph.owner.get(g)
            if j is not None and j not in dist_agent:
                dist_agent[j] = dist_good[g] + 1
                frontier.append(j)

    reachable = [v for v in targets if v in dist_agent]
    if not reachable:
        return None
    total = min(dist_agent[v] for v in reachable)
    target = min(v for v in reachable if dist_agent[v] == total)

    # Backward edge-hop distances from the target over reversed edges.
    rev_mbb: dict[int, list[int]] = {}
    for i in graph.agents:
        for g in graph.mbb.get(i, ()):
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
    # some shortest path; the ownership edge then fixes the next agent.
    path: list[int] = [source]
    current = source
    travelled = 0
    while current != target:
        candidates = [
            g
            for g in graph.mbb.get(current, ())
            if dist_good.get(g) == travelled + 1
            and back_good.get(g) == total - travelled - 1
        ]
        if not candidates:
            raise InternalInvariantError("shortest-path walk lost the trail")
        g = min(candidates)
        current = graph.owner[g]
        path.extend((g, current))
        travelled += 2
    return tuple(path)
