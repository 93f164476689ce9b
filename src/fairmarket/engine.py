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

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

from .core import (
    RATES,
    Allocation,
    HallViolationError,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
    SolveTrace,
    TraceEvent,
    _common_denominator,
    _reduced,
    _spend_and_hat,
    _text,
    check_hall,
    denormalize,
    hat_profile,  # unused here, like spending_profile; perfbench's span table names both
    iteration_bound,
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
from .oracles import _over_lcm


class EngineState:
    """Mutable solver state: the grown sub-instance and its current solution.

    A new state has no active agent: `add_agent` activates the next one,
    `from_solution` all of them.  Agents 0..num_agents-1 of `inst` are
    active.  Good g costs `nums[g] / den` with `den` kept reduced:
    `gcd(den, *nums) == 1`.  A good has joined exactly when its numerator
    is nonzero (it is then positive); `joined` lists those goods.  `rows`
    holds the valuations split into integer pairs.  Per active agent, every
    event updates the goods attaining its best ratio (`mbb`), the bundle
    price (`spends`) and the drop-one bundle price (`hats`, both numerators
    over `den`) in place, and `ceiling` is the active agents'
    `iteration_bound`.  A single state is strictly sequential; run separate
    states for parallel solves.
    """

    def __init__(self, inst: Instance, check: bool = True) -> None:
        self.inst, self.check, self.trace = inst, check, SolveTrace()
        self.num_agents, self.nums, self.den = 0, [0] * inst.m, 1
        self.bundles: list[set[int]] = []
        self.mbb: list[set[int]] = []
        self.spends: list[int] = []
        self.hats: list[int] = []
        self.rows = split_valuations(inst)
        self.ceiling = 0
        # The last audit's price part and its integer rows, keyed by a copy of (num_agents, den, nums).
        self._price_audit: tuple | None = None

    @property
    def k(self) -> int:
        """Index of the most recently added agent."""
        return self.num_agents - 1

    @property
    def agents(self) -> range:
        """The active agents, so the state can be searched like an `MbbGraph`."""
        return range(self.num_agents)

    @property
    def joined(self) -> list[int]:
        """The goods that have joined, in ascending order: those with a nonzero numerator."""
        return list(compress(range(len(self.nums)), self.nums))

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
        sol.allocation.validate_partition(inst.m, inst.n)
        if any(p <= 0 for p in sol.prices):
            raise InvalidInputError("active goods must have positive prices")
        state = cls(inst, check)
        state.num_agents = inst.n
        state.nums, state.den = _common_denominator(sol.prices)
        state.bundles = [set(b) for b in sol.allocation]
        state.track_new_agents()
        return state

    def track_new_agents(self) -> None:
        """Derive the market quantities of the active agents not tracked yet, and their ceiling."""
        self.ceiling = iteration_bound(self.num_agents, self.inst.m)
        new = range(len(self.mbb), self.num_agents)
        ratios = best_ratios(self.rows, new, self.joined, self.nums)
        for i, (_, _, edges) in zip(new, ratios):
            self.mbb.append(set(edges))
            spend, hat = _spend_and_hat([self.nums[g] for g in self.bundles[i]])
            self.spends.append(spend)
            self.hats.append(hat)

    def to_solution(self) -> Solution:
        if not all(self.nums):
            raise InternalInvariantError("state does not cover every good yet")
        prices = tuple(Fraction(num, self.den) for num in self.nums)
        return Solution(Allocation(tuple(frozenset(b) for b in self.bundles)), prices)


# ---------------------------------------------------------------------------
# growing the instance


def initial_prices_for_agent(state: EngineState) -> tuple[tuple[int, ...], dict[int, tuple[int, int]]]:
    """The next agent's new goods and their introduction prices, as reduced pairs (p, q) for p/q.

    Each new good g gets price v[agent][g] * (min existing price) divided
    by (total good count * the agent's largest value), which keeps the
    whole batch cheaper than any existing single good and makes every new
    good a best-ratio good for the newcomer.  The minimum over an empty
    market is taken to be 1.
    """
    agent = state.num_agents
    row = state.rows[agent]
    top, top_den = 0, 1  # the agent's largest value
    for v, d in row:
        if v * top_den > top * d:
            top, top_den = v, d
    if top == 0:
        raise InternalInvariantError(f"agent {agent} values nothing; normalization missed it")
    new_goods = tuple(g for g in range(state.inst.m) if not state.nums[g] and row[g][0])
    low = min(filter(None, state.nums), default=0)
    low, low_den = (low, state.den) if low else (1, 1)
    p, q = low * top_den, low_den * state.inst.m * top
    return new_goods, {g: _reduced(row[g][0] * p, row[g][1] * q) for g in new_goods}


def add_agent(state: EngineState) -> None:
    """Activate the next agent, hand it its new goods, and price them."""
    new_goods, new_prices = initial_prices_for_agent(state)
    # Rebase every price onto the lcm of the old and the new denominators, which stays reduced.
    den = lcm(state.den, *(q for _, q in new_prices.values()))
    scale, state.den = den // state.den, den
    state.nums = [num * scale for num in state.nums]
    for g, (p, q) in new_prices.items():
        state.nums[g] = p * (den // q)
    state.spends = [spend * scale for spend in state.spends]
    state.hats = [hat * scale for hat in state.hats]
    state.bundles.append(set(new_goods))
    state.num_agents += 1
    state.track_new_agents()


# ---------------------------------------------------------------------------
# one rebalancing iteration


def compute_betas(state: EngineState, reach: Reachability) -> tuple[tuple, str, tuple]:
    """Candidate uniform price-rise rates for the reachable goods.

    Returns the `rates` and `chosen` of the rise's `TraceEvent`, and the (agent, good)
    best-ratio edges the rise adds: those attaining b1 when b1 is chosen.
    """
    rows, nums, hats, reached = state.rows, state.nums, state.hats, reach.agents
    max_hat, spend = max(hats), state.spends[state.k]

    # Each rate is a ratio of two numbers over `den`: an integer pair (p, q), None
    # when infinite, compared by cross-multiplying.  Agent j's b1 rate is its best
    # ratio, that of any good g in its `mbb`, over its best ratio outside the reach,
    # attained by h: v_jg*d_jh*num_h / (d_jg*num_g*v_jh).
    b1: tuple[int, int] | None = None
    new_edges: list[tuple[int, int]] = []
    # Every joined good is owned, and the reach holds exactly its agents' bundles.
    outside = [g for i in range(state.num_agents) if i not in reached for g in state.bundles[i]]
    agents = sorted(reached)
    for j, (v_h, p_h, attaining) in zip(agents, best_ratios(rows, agents, outside, nums)):
        if v_h:
            g = next(iter(state.mbb[j]))
            p, q = rows[j][g][0] * p_h, rows[j][g][1] * nums[g] * v_h
            if b1 is None or p * b1[1] < b1[0] * q:
                b1, new_edges = (p, q), [(j, h) for h in attaining]
            elif p * b1[1] == b1[0] * q:
                new_edges += [(j, h) for h in attaining]

    reach_hat = max(map(hats.__getitem__, reached), default=0)
    b1 = b1 and _reduced(*b1)
    b2 = _reduced(max_hat, reach_hat) if reach_hat > 0 else None
    b3 = _reduced(max_hat, spend) if spend > 0 else None
    chosen, beta = "", None  # the smallest finite rate, b3 and then b2 first on ties
    for name, rate in (("b3", b3), ("b2", b2), ("b1", b1)):
        if rate is not None and (beta is None or rate[0] * beta[1] < beta[0] * rate[1]):
            chosen, beta = name, rate
    if beta is None:
        raise InternalInvariantError("no finite price-rise rate exists")
    return (b1, b2, b3), chosen, tuple(new_edges) if b1 == beta else ()  # reduced pairs: equal values


def apply_price_rise(
    state: EngineState, reach: Reachability, rate: tuple[int, int], new_edges: Iterable[tuple[int, int]]
) -> None:
    """Multiply the prices of exactly the reachable goods by `rate`, a pair (p, q) for p/q.

    The allocation is untouched; the maximum drop-one bundle price must not
    move.  Reachable agents own and point only into reachable goods, so their
    edges stay and their spends and hats grow by the rate; they gain the
    (agent, good) edges `new_edges`, those attaining b1 at rate b1.
    Unreachable agents lose their edges into the reachable goods.  With the
    rate p/q, `den` and the other numerators multiply by q, the reachable
    ones by p, and their one gcd, gcd(q * gcd(den, *others), p * gcd(*reachable))
    from the unscaled numbers, reduces them in the same pass, into a new list.
    """
    up, down = rate
    if up <= down:
        raise InternalInvariantError(f"price-rise rate must exceed 1, got {_text(up, down)}")
    nums, den, goods = state.nums, state.den, reach.goods
    others = nums.copy()  # the numerators outside the reach, with zeros, which no gcd counts
    for g in goods:
        others[g] = 0
    a, b = gcd(den, *others), gcd(*[nums[g] for g in goods])
    common = gcd(down * a, up * b)
    f_out, f_in = down * a // common, up * b // common
    state.nums = [num // b * f_in if g in goods else num // a * f_out for g, num in enumerate(nums)]
    state.den = den * down // common
    stranded = []  # unreachable agents whose every edge went into the reach
    for i in range(state.num_agents):
        factor = up if i in reach.agents else down
        state.spends[i] = state.spends[i] * factor // common
        state.hats[i] = state.hats[i] * factor // common
        if i not in reach.agents:
            state.mbb[i] -= reach.goods
            if not state.mbb[i]:
                stranded.append(i)
    if stranded:  # list the joined goods only for agents whose edges need a rebuild
        for i, (_, _, edges) in zip(stranded, best_ratios(state.rows, stranded, state.joined, state.nums)):
            state.mbb[i] = set(edges)
    for j, g in new_edges:
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
    agents_on, goods_on = path[0::2], path[1::2]
    spends, hats, nums, bundles = state.spends, state.hats, state.nums, state.bundles
    matched = 0 <= min(agents_on) and max(agents_on) < state.num_agents
    for g, i in zip(goods_on, agents_on[1:]):
        matched = matched and g in bundles[i]
    if not matched:
        raise InvalidInputError("path allocation edges do not match the allocation")

    max_hat = max(hats)
    for a in range(1, len(goods_on) + 1):
        if spends[agents_on[a]] - nums[goods_on[a - 1]] >= max_hat:
            break
    else:
        raise InternalInvariantError("no agent on the path can release its good")
    for b in range(a - 1, 0, -1):
        if max_hat >= spends[agents_on[b]] + nums[goods_on[b]] - nums[goods_on[b - 1]]:
            break
    else:
        b = 0

    for c in range(b + 1, a + 1):  # a bundle's top price is its spend less its hat
        g, giver, taker = goods_on[c - 1], agents_on[c], agents_on[c - 1]
        price = nums[g]
        bundles[giver].discard(g)
        bundles[taker].add(g)
        if price == spends[giver] - hats[giver]:  # the giver's top good leaves: rescan the rest
            hats[giver] = spends[giver] - price - max((nums[h] for h in bundles[giver]), default=0)
        else:
            hats[giver] -= price
        spends[giver] -= price
        hats[taker] = min(hats[taker] + price, spends[taker])  # drop the old top or the new good
        spends[taker] += price
    return a, b


def compute_potential(state: EngineState, reach: Reachability) -> tuple[int, ...]:
    """The goods counted by their owner's level, as `reach` counted them, and the violator count.

    Potentials compare lexicographically.
    """
    counts = reach.goods_per_level
    if sum(counts) != len(state.nums) - state.nums.count(0):
        raise InternalInvariantError("level counts do not partition the goods")
    return (*counts, state.hats.count(max(state.hats)))


def _audit_prices(state: EngineState, rows: list[list[int]]) -> tuple:
    """The audit's price part, keyed by (num_agents, den, nums), rebuilt from the definitions:
    `rows[i]` holds agent i's values over their lcm, so its ratios compare by cross-multiplying."""
    nums, den, agents = state.nums, state.den, state.agents
    joined, stray = range(len(nums)), None
    if 0 in nums:  # the goods not yet joined, and an agent valuing one
        joined, unjoined = state.joined, [g for g, num in enumerate(nums) if not num]
        stray = next(((i, g) for i in agents for g in unjoined if rows[i][g]), None)
    mbb = []
    for row in rows[: state.num_agents]:
        v, c, best = 0, 1, set()
        for g in joined:
            lhs, rhs = row[g] * c, v * nums[g]
            if lhs > rhs:
                v, c, best = row[g], nums[g], {g}
            elif lhs == rhs:
                best.add(g)
        mbb.append(best)
    priced = set(joined) if min(nums, default=0) >= 0 else None  # None if a price is negative
    return (state.num_agents, den, list(nums)), rows, priced, den >= 1 and gcd(den, *nums) == 1, stray, mbb


def _check_state(state: EngineState) -> None:
    """Audit the state and the last step of the newest agent's call, read from its event.

    The owned goods are exactly those with a nonzero numerator, each
    positive; `den` is reduced; no active agent values a good that has not
    joined; the maintained edges, spends and hats equal a rebuild from the
    definitions, by no engine kernel.  The price part is rebuilt only when
    the agent count or the prices differ in value from the last audit's, so
    not after a transfer.  The step's event holds the level it started
    from: a rise keeps it, a transfer does not raise it, and every agent
    but the newest spends at least it, so no other agent spends least while
    the state is unfair.  While unfair, 1 to n-1 agents are maximum
    violators, as rebuilt hats imply: a second line of defence.  The
    potential grew over the call's previous event.
    """
    nums, den, hats, bundles = state.nums, state.den, state.hats, state.bundles
    if (audit := state._price_audit) is None or audit[0] != (state.num_agents, den, nums):
        rows = audit[1] if audit else [_over_lcm(row)[0] for row in state.inst.valuations]
        audit = state._price_audit = _audit_prices(state, rows)
    _, _, priced, reduced, stray, mbb = audit
    covered = set().union(*bundles)
    if len(covered) != sum(map(len, bundles)):
        raise InternalInvariantError("bundles overlap")
    if covered != priced:
        raise InternalInvariantError("the owned goods are not exactly the goods with a positive price")
    if not reduced:
        raise InternalInvariantError(f"price denominator {den} is not reduced")
    if stray:
        raise InternalInvariantError("agent {} values good {}, which has not joined".format(*stray))
    spends, drops = [], []  # each bundle's price, and its price without its dearest good
    for i, bundle in enumerate(bundles):
        if not bundle <= mbb[i]:
            for g in bundle - mbb[i]:
                raise InternalInvariantError(f"agent {i} owns good {g} outside its best-ratio set")
        costs = list(map(nums.__getitem__, bundle))
        spends.append(spend := sum(costs))
        drops.append(spend - max(costs, default=0))
    if mbb != state.mbb or spends != state.spends or drops != hats:
        raise InternalInvariantError("maintained market state differs from a rebuild")
    events = state.trace.events  # the newest agent's open call: `step` records each step before its audit
    steps = events[-1].step if events and events[-1].k == state.num_agents else 0
    k, min_spend, max_hat = state.k, min(spends), max(hats)
    level, scale = max_hat, den  # the violation level as a (numerator, denominator) pair
    if steps:
        level, scale = events[-1].hat, events[-1].den  # the level the step started from
        if events[-1].kind == "price_rise" and max_hat * scale != level * den:
            raise InternalInvariantError(
                f"price rise moved the violation level: {_text(level, scale)} -> {_text(max_hat, den)}"
            )
        if max_hat * scale > level * den:
            raise InternalInvariantError("transfer raised the violation level")
    if min_spend < max_hat:
        if not 1 <= (violators := hats.count(max_hat)) <= state.num_agents - 1:
            raise InternalInvariantError(f"violator count {violators} out of range")
    for i, spend in enumerate(spends):
        if i != k and spend * scale < level * den:
            raise InternalInvariantError(f"agent {i} fell below the violation level")
    if steps > 1:  # the call's previous event
        previous, potential = events[-2].potential, events[-1].potential
        if not previous < potential:
            raise InternalInvariantError(f"potential did not increase: {previous} -> {potential}")


def step(state: EngineState) -> TraceEvent | None:
    """Run one rebalancing iteration, record its event and audit it; None when already fair."""
    na = state.num_agents
    spends, hats, den = state.spends, state.hats, state.den  # a price rise changes den
    min_spend, max_hat = min(spends), max(hats)
    if min_spend >= max_hat:
        return None

    events = state.trace.events  # the newest agent's open call counts its steps in its events
    if (steps := events[-1].step if events and events[-1].k == na else 0) >= state.ceiling:
        raise InternalInvariantError(f"rebalancing exceeded its iteration ceiling {state.ceiling}")

    violators = [i for i in range(na) if hats[i] == max_hat]
    reach = reach_from(state, [na - 1])
    potential = compute_potential(state, reach)  # it counts every good once all have joined
    min_price = min(state.nums) if sum(potential[:-1]) == len(state.nums) else min(filter(None, state.nums))
    rates = chosen = a = b = None
    if (path := shortest_violator_path(state, reach, violators)) is not None:
        a, b = transfer(state, path)
    else:
        rates, chosen, new_edges = compute_betas(state, reach)
        apply_price_rise(state, reach, rates[RATES.index(chosen)], new_edges)

    event = TraceEvent(
        k=na, step=steps + 1, kind="price_rise" if path is None else "transfer",
        rates=rates, chosen=chosen, path=path, a=a, b=b, potential=potential,
        spend=min_spend, hat=max_hat, price=min_price, den=den,
    )
    events.append(event)
    if state.check:
        _check_state(state)
    return event


def find_solution(state: EngineState) -> EngineState:
    """Run the newest agent's rebalancing call until price envy-free up to one good; returns the state."""
    if state.num_agents < 1:
        raise InvalidInputError("no active agents to rebalance")
    if state.check:
        _check_state(state)
    while step(state) is not None:
        pass
    return state


# ---------------------------------------------------------------------------
# the full pipeline


def solve(inst: Instance, *, check: bool = True) -> tuple[Solution, SolveTrace]:
    """Compute an EF1 and fractionally Pareto optimal solution for `inst`.

    Normalizes away worthless goods and indifferent agents, requires the
    core instance to satisfy the matching condition, adds agents in input
    order, rebalances after each addition, and re-embeds the result into
    the original index space.  Returns the solution and the event trace.
    """
    core, rec = normalize_instance(inst)
    if core is None:
        return denormalize(Solution(Allocation(()), ()), rec), SolveTrace()
    if not check_hall(core):
        raise HallViolationError("some agent set values fewer goods than its size; instance rejected")
    state = EngineState(core, check=check)
    for _ in range(core.n):
        add_agent(state)
        find_solution(state)
    return denormalize(state.to_solution(), rec), state.trace
