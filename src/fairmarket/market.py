"""The best-ratio graph of a state given from outside the engine, built by the engine's kernels.

Nothing in the solve pipeline builds it, as the engine searches its own
state; it is kept for perfbench's `market.graph_build` span until that
span goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Instance, InvalidInputError, _common_denominator
from .engine import best_ratios, split_valuations


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
