"""Bang-per-buck structure over a priced instance.

Builds the directed bipartite graph whose agent-to-good edges mark goods
attaining an agent's best value-per-price ratio and whose good-to-agent
edges point from each good to the agent whose bundle holds it, plus
breadth-first reachability (with per-agent levels) and deterministic
shortest alternating paths over that graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    Instance,
    InternalInvariantError,
    InvalidInputError,
    _common_denominator,
)


def split_valuations(inst: Instance) -> list[list[tuple[int, int]]]:
    """Each agent's valuations as integer (numerator, denominator) pairs."""
    return [[v.as_integer_ratio() for v in row] for row in inst.valuations]


def best_ratios(
    rows: Sequence[Sequence[tuple[int, int]]],
    agents: Iterable[int],
    goods: Iterable[int],
    nums: Sequence[int],
) -> Iterator[tuple[int, int, list[int]]]:
    """Per agent, its best value/price ratio over `goods` and the goods attaining it.

    `rows` holds split valuations (as `split_valuations` makes them) and
    good g costs `nums[g]` over a denominator common to every price, which
    the comparisons leave out: they cross-multiply integers.  Yields
    (v, p, attaining), the best ratio being v/p times that denominator.
    Every good in `goods` has a positive price.
    """
    for i in agents:
        row = rows[i]
        best_v, best_p, attaining = 0, 1, []
        for g in goods:
            v, d = row[g]
            p = d * nums[g]
            lhs, rhs = v * best_p, best_v * p
            if lhs > rhs:
                best_v, best_p, attaining = v, p, [g]
            elif lhs == rhs:
                attaining.append(g)
        yield best_v, best_p, attaining


@dataclass(frozen=True)
class MbbGraph:
    """Directed bipartite graph of best-ratio edges and allocation edges.

    `mbb[i]` lists, in ascending order, the goods attaining agent i's best
    ratio; `bundles[i]` holds the goods allocated to agent i.  Both edge
    families are traversed agent -> good -> agent holding it.
    """

    agents: tuple[int, ...]
    mbb: dict[int, tuple[int, ...]]
    bundles: dict[int, frozenset[int]]

    @classmethod
    def from_state(
        cls,
        inst: Instance,
        bundles: Sequence[Iterable[int]],
        prices: Sequence[Fraction],
        agents: Sequence[int],
        goods: Sequence[int],
    ) -> "MbbGraph":
        """Graph of a state whose bundles partition `goods` (not re-checked), each priced above 0."""
        agents, goods = tuple(sorted(agents)), sorted(goods)
        if any(prices[g] <= 0 for g in goods):
            raise InvalidInputError("graph goods must have positive prices")
        scaled, _ = _common_denominator(prices)
        ratios = best_ratios(split_valuations(inst), agents, goods, scaled)
        mbb = {i: tuple(attaining) for i, (_, _, attaining) in zip(agents, ratios)}
        return cls(agents, mbb, {i: frozenset(bundles[i]) for i in agents})


@dataclass(frozen=True, init=False)
class Reachability:
    """Closure of the alternating-edge walk from a set of source agents.

    `levels` maps every graph agent to its breadth-first depth in agent
    layers (half the edge count of a shortest path); agents that cannot be
    reached carry the sentinel level `len(graph.agents)`.  `goods_per_level`
    counts the goods held at each level, the sentinel's last.
    """

    agents: frozenset[int]
    goods: frozenset[int]
    levels: dict[int, int]
    goods_per_level: tuple[int, ...] = ()

    def __init__(self, agents, goods, levels, goods_per_level=()) -> None:
        # One dict update, as for `TraceEvent`: no `object.__setattr__` per field.
        vars(self).update(agents=agents, goods=goods, levels=levels, goods_per_level=goods_per_level)


def reach_from(graph: MbbGraph, sources: Iterable[int]) -> Reachability:
    """Breadth-first reachability from `sources`, with each agent's level.

    Alternates best-ratio edges (agent to good) with allocation edges (good
    to the agent holding it): the next level is every unreached agent whose
    bundle meets the goods seen so far, as one that met an earlier level's
    goods would have been reached then.  Besides an `MbbGraph`, `graph` may
    be any object with the same `agents` and agent-indexed `mbb` (any
    iterables) and `bundles` (sets), such as the engine's maintained state.
    Levels do not depend on the order of the sources or of any edge set.
    Unreachable agents get level `len(graph.agents)`.  The sources must be
    one or more of the graph's agents.
    """
    mbb, bundles, agents = graph.mbb, graph.bundles, graph.agents
    levels = dict.fromkeys(agents, len(agents))
    sources = set(sources)
    if not sources or not sources <= levels.keys():
        raise InvalidInputError(f"reachability needs sources among the graph's agents, got {sources}")
    frontier, unreached = list(sources), [j for j in levels if j not in sources]
    seen: set[int] = set()
    depth, counts = 0, [0] * (len(levels) + 1)
    while frontier:
        for i in frontier:
            levels[i] = depth
            seen.update(mbb[i])
            counts[depth] += len(bundles[i])
        depth += 1
        frontier, rest = [], []
        for j in unreached:
            (rest if seen.isdisjoint(bundles[j]) else frontier).append(j)
        unreached = rest
    counts[-1] = sum([len(bundles[j]) for j in unreached])
    return Reachability(frozenset(levels).difference(unreached), frozenset(seen), levels, tuple(counts))


def shortest_violator_path(
    graph: MbbGraph, reach: Reachability, violators: Iterable[int]
) -> tuple[int, ...] | None:
    """Shortest alternating path from the sources of `reach` to any violator, or None.

    `reach` is `reach_from` over the same graph; its levels are all the
    search needs, as each step of a shortest path moves one level out.
    Ties are broken deterministically: the nearest violator with the
    smallest index is targeted, and among equal-length paths the
    lexicographically smallest node sequence is returned.  The result is a
    flat tuple (agent, good, agent, ..., good, agent).
    """
    levels = reach.levels
    if not (targets := sorted(set(violators) & reach.agents)):
        return None
    target = min(targets, key=levels.__getitem__)  # the first, so the smallest, of the nearest
    if not (depth := levels[target]):
        raise InvalidInputError("source agent must not itself be a violator")

    # Mark the agents on some shortest path to the target, one level at a time
    # from the outermost: such an agent has a best-ratio good in the bundle of a
    # marked agent one level out.
    mbb, bundles = graph.mbb, graph.bundles
    marked = [[] for _ in range(depth)] + [[target]]  # by level: its agents, then its marked ones
    for i in reach.agents:
        if levels[i] < depth:
            marked[levels[i]].append(i)
    for d in range(depth - 1, -1, -1):
        level, marked[d] = marked[d], []
        for i in level:
            for j in marked[d + 1]:
                if not bundles[j].isdisjoint(mbb[i]):
                    marked[d].append(i)
                    break

    # Greedy walk from the smallest marked source: take the smallest good that
    # steps onto the trail; `depth` steps out, the one marked agent is the
    # target.  No marked source means `reach` does not describe `graph`.
    try:
        current = min(marked[0])
    except ValueError:
        raise InternalInvariantError("shortest-path walk lost the trail") from None
    path = [current]
    for out in marked[1:]:
        g, current = min((min(shared), j) for j in out if (shared := bundles[j].intersection(mbb[current])))
        path += g, current
    return tuple(path)
