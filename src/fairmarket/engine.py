"""Incremental market solver.

Agents join one at a time; each newcomer brings the not-yet-priced goods
it values, priced low enough that nobody envies it.  A rebalancing loop
then alternates two moves until the solution is price envy-free up to one
good: transfer a chain of goods along a shortest alternating path from
the newcomer to a maximum violator, or uniformly raise the prices of all
reachable goods until the graph structure changes.  Every owned good
stays a best-ratio good for its owner throughout, which makes the final
price vector a market-equilibrium certificate of fractional Pareto
optimality.

The engine keeps an append-only event trace and, when `check` is on,
re-validates its own invariants after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .core import (
    Allocation,
    HallViolationError,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
    _common_denominator,
    _spend_and_hat,
    check_hall,
    denormalize,
    hat_profile,  # unused here, like spending_profile; perfbench's span table names both
    normalize_instance,
    spending_profile,
)
from .market import (
    Reachability,
    best_ratios,
    reach_from,
    shortest_violator_path,
    split_valuations,
)

# Rational upper bound on Euler's number; only used to over-approximate the
# iteration watchdog, so erring high is safe.
E_UPPER = Fraction(27182818285, 10**10)


def iteration_bound(agent_count: int, total_goods: int) -> Fraction:
    """Watchdog ceiling on rebalancing iterations for a given agent count."""
    k = agent_count
    if k <= 1:
        return Fraction(0)
    return (k - 1) * (Fraction(total_goods + k, k) * E_UPPER) ** k


@dataclass(frozen=True)
class BetaBreakdown:
    """The three candidate price-rise rates and the chosen minimum.

    `b1` stops when a new best-ratio edge would appear out of the reachable
    set, `b2` when a reachable agent would become a maximum violator, `b3`
    when the newcomer's spending would reach the violation level.  None
    means the event cannot occur (no finite rate).
    """

    b1: Fraction | None
    b2: Fraction | None
    b3: Fraction | None
    beta: Fraction
    chosen: str
    # (agent, good) pairs whose best-ratio edge appears when prices rise by b1.
    b1_edges: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "b1": None if self.b1 is None else str(self.b1),
            "b2": None if self.b2 is None else str(self.b2),
            "b3": None if self.b3 is None else str(self.b3),
            "chosen": self.chosen,
        }


@dataclass(frozen=True)
class TraceEvent:
    """Snapshot of one iteration, taken just before its step executes."""

    k: int
    step: int
    kind: str
    beta: BetaBreakdown | None
    path: tuple[int, ...] | None
    a: int | None
    b: int | None
    potential: tuple[int, ...]
    min_spend: Fraction
    max_hat: Fraction
    min_price: Fraction

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "step": self.step,
            "kind": self.kind,
            "beta": None if self.beta is None else self.beta.to_json_dict(),
            "path": None if self.path is None else list(self.path),
            "a": self.a,
            "b": self.b,
            "potential": list(self.potential),
            "min_spend": str(self.min_spend),
            "max_hat": str(self.max_hat),
            "min_price": str(self.min_price),
        }


@dataclass
class CallStats:
    """Per-rebalancing-call counters (one call per added agent)."""

    agent_count: int
    bound: Fraction
    iterations: int = 0
    transfers: int = 0
    price_rises: int = 0


class SolveTrace:
    """Complete event log plus per-call counters for a whole solve run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.calls: list[CallStats] = []

    def start_call(self, agent_count: int, bound: Fraction) -> CallStats:
        stats = CallStats(agent_count=agent_count, bound=bound)
        self.calls.append(stats)
        return stats

    @property
    def total_iterations(self) -> int:
        return sum(c.iterations for c in self.calls)

    def iter_json_dicts(self) -> Iterable[dict]:
        for event in self.events:
            yield event.to_json_dict()


@dataclass
class EngineState:
    """Mutable solver state: the grown sub-instance and its current solution.

    Agents 0..num_agents-1 of `inst` are active; `goods` lists the active
    good ids (a subset of the instance's columns), and good g costs
    `nums[g] / den` with `den` kept reduced: `gcd(den, *nums) == 1`.  `rows`
    holds the valuations split into integer pairs.  Per active agent, every
    event updates the best ratio (`alphas`), the goods attaining it (`mbb`),
    the bundle price (`spends`) and the drop-one bundle price (`hats`, both
    numerators over `den`) in place.  A single state is strictly
    sequential; run separate states for parallel solves.
    """

    inst: Instance
    check: bool = True
    trace: SolveTrace = field(default_factory=SolveTrace)
    num_agents: int = 0
    goods: list[int] = field(default_factory=list)
    nums: dict[int, int] = field(default_factory=dict)
    den: int = 1
    bundles: list[set[int]] = field(default_factory=list)
    owner: dict[int, int] = field(default_factory=dict)
    alphas: list[Fraction] = field(default_factory=list)
    mbb: list[set[int]] = field(default_factory=list)
    spends: list[int] = field(default_factory=list)
    hats: list[int] = field(default_factory=list)
    rows: list[list[tuple[int, int]]] = field(init=False, repr=False)
    _prev_potential: tuple[int, ...] | None = None
    _current_call: CallStats | None = None

    def __post_init__(self) -> None:
        self.rows = split_valuations(self.inst)

    @property
    def k(self) -> int:
        """Index of the most recently added agent."""
        return self.num_agents - 1

    @property
    def agents(self) -> range:
        """The active agents, so the state can be searched like an `MbbGraph`."""
        return range(self.num_agents)

    @classmethod
    def from_solution(
        cls,
        inst: Instance,
        bundles: Sequence[Iterable[int]],
        prices: Sequence[Fraction],
        *,
        check: bool = True,
    ) -> "EngineState":
        """State with every agent active, for driving the rebalancer directly.

        `prices` holds one positive price per good, indexed by good.
        """
        sol = Solution(Allocation.from_lists(bundles), tuple(prices))
        sol.validate(inst)
        if any(p <= 0 for p in sol.prices):
            raise InvalidInputError("active goods must have positive prices")
        state = cls(inst=inst, check=check)
        state.num_agents = inst.n
        state.goods = list(range(inst.m))
        scaled, state.den = _common_denominator(sol.prices)
        state.nums = dict(enumerate(scaled))
        state.bundles = [set(b) for b in sol.allocation]
        state.owner = {g: i for i, bundle in enumerate(state.bundles) for g in bundle}
        state.track_new_agents()
        return state

    def track_new_agents(self) -> None:
        """Derive the market quantities of the active agents not tracked yet."""
        new = range(len(self.alphas), self.num_agents)
        ratios = best_ratios(self.rows, new, self.goods, self.nums, self.den)
        for i, (alpha, edges) in zip(new, ratios):
            self.alphas.append(alpha)
            self.mbb.append(set(edges))
            spend, hat = _spend_and_hat([self.nums[g] for g in self.bundles[i]])
            self.spends.append(spend)
            self.hats.append(hat)

    def fraction_prices(self) -> dict[int, Fraction]:
        """The active goods' prices as `Fraction`s, built afresh on every call."""
        return {g: Fraction(num, self.den) for g, num in self.nums.items()}

    def to_solution(self) -> Solution:
        if set(self.goods) != set(range(self.inst.m)):
            raise InternalInvariantError("state does not cover every good yet")
        return Solution(
            Allocation(tuple(frozenset(b) for b in self.bundles)),
            tuple(Fraction(self.nums[g], self.den) for g in range(self.inst.m)),
        )


# ---------------------------------------------------------------------------
# growing the instance


def initial_prices_for_agent(
    state: EngineState, agent: int
) -> tuple[tuple[int, ...], dict[int, Fraction]]:
    """New goods brought by `agent` and their introduction prices.

    Each new good g gets price v[agent][g] * (min existing price) divided
    by (total good count * the agent's largest value), which keeps the
    whole batch cheaper than any existing single good and makes every new
    good a best-ratio good for the newcomer.  The minimum over an empty
    market is taken to be 1.
    """
    if agent != state.num_agents:
        raise InvalidInputError(f"agent {agent} is not the next to join")
    row = state.inst.valuations[agent]
    max_value = max(row)
    if max_value == 0:
        raise InternalInvariantError(f"agent {agent} values nothing; normalization missed it")
    new_goods = tuple(g for g in range(state.inst.m) if g not in state.nums and row[g] > 0)
    min_price = Fraction(min(state.nums.values()), state.den) if state.nums else Fraction(1)
    denom = state.inst.m * max_value
    return new_goods, {g: row[g] * min_price / denom for g in new_goods}


def add_agent(state: EngineState) -> None:
    """Activate the next agent, hand it its new goods, and price them."""
    agent = state.num_agents
    new_goods, new_prices = initial_prices_for_agent(state, agent)
    if state.check:
        for j in range(agent):
            for g in new_goods:
                if state.inst.valuations[j][g] != 0:
                    raise InternalInvariantError(
                        f"agent {j} values good {g} which only joined with agent {agent}"
                    )
    # Rebase every price onto the lcm of the old and the new denominators, which stays reduced.
    den = lcm(state.den, *(p.denominator for p in new_prices.values()))
    scale, state.den = den // state.den, den
    state.nums = {g: num * scale for g, num in state.nums.items()}
    state.nums.update((g, p.numerator * (den // p.denominator)) for g, p in new_prices.items())
    state.spends = [spend * scale for spend in state.spends]
    state.hats = [hat * scale for hat in state.hats]
    state.goods = sorted(state.nums)
    state.bundles.append(set(new_goods))
    for g in new_goods:
        state.owner[g] = agent
    state.num_agents += 1
    state.track_new_agents()


# ---------------------------------------------------------------------------
# one rebalancing iteration


def compute_betas(state: EngineState, reach: Reachability) -> BetaBreakdown:
    """Candidate uniform price-rise rates for the reachable goods."""
    k = state.k
    spends, hats = state.spends, state.hats
    max_hat = max(hats)

    # An agent's b1 rate is its alpha over its best ratio outside the reach.
    b1: Fraction | None = None
    b1_edges: list[tuple[int, int]] = []
    outside = [g for g in state.goods if g not in reach.goods]
    agents = sorted(reach.agents)
    ratios = best_ratios(state.rows, agents, outside, state.nums, state.den)
    for j, (out_ratio, attaining) in zip(agents, ratios):
        if out_ratio > 0:
            rate = state.alphas[j] / out_ratio
            if b1 is None or rate < b1:
                b1, b1_edges = rate, []
            if rate == b1:
                b1_edges.extend((j, g) for g in attaining)

    reach_hat = max((hats[j] for j in reach.agents), default=0)
    b2: Fraction | None = Fraction(max_hat, reach_hat) if reach_hat > 0 else None
    b3: Fraction | None = Fraction(max_hat, spends[k]) if spends[k] > 0 else None

    finite = [x for x in (b1, b2, b3) if x is not None]
    if not finite:
        raise InternalInvariantError("no finite price-rise rate exists")
    beta = min(finite)
    if beta <= 1:
        raise InternalInvariantError(f"price-rise rate {beta} is not above 1")
    if b3 is not None and beta == b3:
        chosen = "b3"
    elif b2 is not None and beta == b2:
        chosen = "b2"
    else:
        chosen = "b1"
    return BetaBreakdown(b1, b2, b3, beta, chosen, tuple(b1_edges))


def apply_price_rise(
    state: EngineState, reach: Reachability, betas: BetaBreakdown
) -> None:
    """Multiply the prices of exactly the reachable goods by the chosen rate.

    The allocation is untouched; the maximum drop-one bundle price must not
    move.  Reachable agents own and point only into reachable goods, so their
    alphas divide by the rate and their spends and hats grow by it; at rate
    b1 they gain the edges attaining it.  Unreachable agents lose their
    edges into the reachable goods.  With the rate p/q, reachable numerators
    multiply by p, the others and `den` by q, and one gcd reduces them all.
    """
    beta = betas.beta
    if not 1 < beta:
        raise InternalInvariantError(f"price-rise rate must exceed 1, got {beta}")
    up, down = beta.numerator, beta.denominator
    scaled = {g: num * (up if g in reach.goods else down) for g, num in state.nums.items()}
    common = gcd(state.den * down, *scaled.values())
    state.nums = {g: num // common for g, num in scaled.items()}
    state.den = state.den * down // common
    stranded = []  # unreachable agents whose every edge went into the reach
    for i in range(state.num_agents):
        factor = up if i in reach.agents else down
        state.spends[i] = state.spends[i] * factor // common
        state.hats[i] = state.hats[i] * factor // common
        if i in reach.agents:
            state.alphas[i] /= beta
        elif state.mbb[i] <= reach.goods:
            stranded.append(i)
        else:
            state.mbb[i] -= reach.goods
    ratios = best_ratios(state.rows, stranded, state.goods, state.nums, state.den)
    for i, (alpha, edges) in zip(stranded, ratios):
        state.alphas[i], state.mbb[i] = alpha, set(edges)
    if betas.b1 == beta:
        for j, g in betas.b1_edges:
            state.mbb[j].add(g)


def transfer(state: EngineState, path: tuple[int, ...]) -> tuple[int, int]:
    """Shift goods one hop back along an alternating path.

    With path (i0, g1, i1, ..., gl, il): the cut index `a` is the smallest
    position whose agent can give up its path good and still spend at
    least the violation level; `b` is the largest earlier position whose
    agent can absorb the next path good without crossing that level (0,
    meaning the path's first agent, when none qualifies).  Goods g_{b+1}..g_a
    then each move one agent towards the start of the path.  Returns (a, b).
    """
    if len(path) < 3 or len(path) % 2 == 0:
        raise InvalidInputError("path must alternate agent, good, ..., agent")
    agents_on = path[0::2]
    goods_on = path[1::2]
    length = len(goods_on)
    for c in range(1, length + 1):
        if state.owner.get(goods_on[c - 1]) != agents_on[c]:
            raise InvalidInputError("path ownership edges do not match the allocation")

    spends, nums = state.spends, state.nums
    max_hat = max(state.hats)

    a = next(
        (c for c in range(1, length + 1) if spends[agents_on[c]] - nums[goods_on[c - 1]] >= max_hat),
        None,
    )
    if a is None:
        raise InternalInvariantError("no agent on the path can release its good")
    b = next(
        (
            c
            for c in range(a - 1, 0, -1)
            if max_hat >= spends[agents_on[c]] + nums[goods_on[c]] - nums[goods_on[c - 1]]
        ),
        0,
    )

    for c in range(b + 1, a + 1):
        g = goods_on[c - 1]
        giver = agents_on[c]
        taker = agents_on[c - 1]
        state.bundles[giver].discard(g)
        state.bundles[taker].add(g)
        state.owner[g] = taker
    for i in agents_on[b : a + 1]:
        spends[i], state.hats[i] = _spend_and_hat([nums[g] for g in state.bundles[i]])
    return a, b


def compute_potential(state: EngineState, reach: Reachability) -> tuple[int, ...]:
    """Count goods by their owner's level and append the violator count.

    Potentials compare lexicographically.
    """
    na = state.num_agents
    counts = [0] * (na + 1)
    for i in range(na):
        counts[reach.levels[i]] += len(state.bundles[i])
    if sum(counts) != len(state.goods):
        raise InternalInvariantError("level counts do not partition the goods")
    max_hat = max(state.hats)
    return (*counts, state.hats.count(max_hat))


def _check_state(state: EngineState, floor_max_hat: Fraction | None = None) -> None:
    """Post-step audit: partition, positive reduced prices, ratio containment, fairness.

    Also holds the maintained alphas, edges, spends and hats to a rebuild
    from the price numerators, `den` and the split valuations.
    """
    covered: set[int] = set()
    for bundle in state.bundles:
        if covered & bundle:
            raise InternalInvariantError("bundles overlap")
        covered |= bundle
    if covered != set(state.goods):
        raise InternalInvariantError("bundles do not partition the active goods")
    nums, den = state.nums, state.den
    for g in state.goods:
        if nums[g] <= 0:
            raise InternalInvariantError(f"price of good {g} is not positive")
    if den < 1 or gcd(den, *nums.values()) != 1:
        raise InternalInvariantError(f"price denominator {den} is not reduced")
    ratios = list(best_ratios(state.rows, state.agents, state.goods, nums, den))
    alphas, mbb = [alpha for alpha, _ in ratios], [set(edges) for _, edges in ratios]
    for i, bundle in enumerate(state.bundles):
        for g in bundle - mbb[i]:
            raise InternalInvariantError(f"agent {i} owns good {g} outside its best-ratio set")
    pairs = [_spend_and_hat([nums[g] for g in bundle]) for bundle in state.bundles]
    spends, hats = [spend for spend, _ in pairs], [hat for _, hat in pairs]
    if (alphas, mbb, spends, hats) != (state.alphas, state.mbb, state.spends, state.hats):
        raise InternalInvariantError("maintained market state differs from a rebuild")
    level = max(hats) if floor_max_hat is None else floor_max_hat * den
    for i in range(state.num_agents):
        if i != state.k and spends[i] < level:
            raise InternalInvariantError(f"agent {i} fell below the violation level")


def step(state: EngineState) -> TraceEvent | None:
    """Run one rebalancing iteration and return its event; None when already fair."""
    na = state.num_agents
    k = state.k
    spends, hats, den = state.spends, state.hats, state.den  # a price rise changes den
    min_spend = min(spends)
    max_hat = max(hats)
    if min_spend >= max_hat:
        return None

    stats = state._current_call
    if stats is None:
        raise InternalInvariantError("step called outside a rebalancing call")

    lowest = [i for i in range(na) if spends[i] == min_spend]
    violators = [i for i in range(na) if hats[i] == max_hat]
    if state.check:
        if lowest != [k]:
            raise InternalInvariantError(
                f"minimum spenders {lowest} should be exactly the newest agent {k}"
            )
        if not 1 <= len(violators) <= na - 1:
            raise InternalInvariantError(f"violator count {len(violators)} out of range")

    reach = reach_from(state, [k], na)
    potential = compute_potential(state, reach)
    if state.check and state._prev_potential is not None and not state._prev_potential < potential:
        raise InternalInvariantError(
            f"potential did not increase: {state._prev_potential} -> {potential}"
        )
    state._prev_potential = potential

    stats.iterations += 1
    if stats.iterations > stats.bound:
        raise InternalInvariantError(f"rebalancing exceeded its iteration ceiling {stats.bound}")

    min_price = Fraction(min(state.nums.values()), den)
    level = Fraction(max_hat, den)
    betas = path = a = b = None
    if set(violators) & reach.agents:
        path = shortest_violator_path(state, reach, violators)
        a, b = transfer(state, path)
        stats.transfers += 1
    else:
        betas = compute_betas(state, reach)
        apply_price_rise(state, reach, betas)
        stats.price_rises += 1
    if state.check:
        # A price rise keeps the violation level exactly; a transfer does not raise it.
        _check_state(state, level)
        new_level = Fraction(max(state.hats), state.den)
        if path is None and new_level != level:
            raise InternalInvariantError(
                f"price rise moved the violation level: {level} -> {new_level}"
            )
        if new_level > level:
            raise InternalInvariantError("transfer raised the violation level")

    event = TraceEvent(
        k=na,
        step=stats.iterations,
        kind="price_rise" if path is None else "transfer",
        beta=betas,
        path=path,
        a=a,
        b=b,
        potential=potential,
        min_spend=Fraction(min_spend, den),
        max_hat=level,
        min_price=min_price,
    )
    state.trace.events.append(event)
    return event


def find_solution(state: EngineState) -> EngineState:
    """Rebalance until price envy-free up to one good; returns the same state."""
    if state.num_agents < 1:
        raise InvalidInputError("no active agents to rebalance")
    if state.check:
        _check_state(state)
    stats = state.trace.start_call(
        state.num_agents, iteration_bound(state.num_agents, state.inst.m)
    )
    state._current_call = stats
    state._prev_potential = None
    while step(state) is not None:
        pass
    state._current_call = None
    return state


# ---------------------------------------------------------------------------
# the full pipeline


def solve(
    inst: Instance,
    *,
    order: Sequence[int] | None = None,
    check: bool = True,
) -> tuple[Solution, SolveTrace]:
    """Compute an EF1 and fractionally Pareto optimal solution for `inst`.

    Normalizes away worthless goods and indifferent agents, requires the
    core instance to satisfy the matching condition, adds agents in
    `order` (input order by default), rebalances after each addition, and
    re-embeds the result into the original index space.  Returns the
    solution and the event trace.
    """
    if order is not None:
        order = list(order)
        if sorted(order) != list(range(inst.n)):
            raise InvalidInputError(f"order must be a permutation of 0..{inst.n - 1}")
    core, rec = normalize_instance(inst)
    if core is None:
        return denormalize(Solution(Allocation(()), ()), rec), SolveTrace()
    if not check_hall(core):
        raise HallViolationError(
            "some agent set values fewer goods than its size; instance rejected"
        )
    # The order on core indices, skipping dropped agents.
    core_index = {orig: ci for ci, orig in enumerate(rec.kept_agents)}
    raw_order = range(inst.n) if order is None else order
    insertion = [core_index[orig] for orig in raw_order if orig in core_index]

    permuted = Instance(tuple(core.valuations[c] for c in insertion))
    state = EngineState(permuted, check=check)
    for _ in range(permuted.n):
        add_agent(state)
        find_solution(state)
    permuted_sol = state.to_solution()

    core_bundles: list[frozenset[int]] = [frozenset()] * core.n
    for pos, c in enumerate(insertion):
        core_bundles[c] = permuted_sol.allocation[pos]
    core_sol = Solution(Allocation(tuple(core_bundles)), permuted_sol.prices)
    return denormalize(core_sol, rec), state.trace
