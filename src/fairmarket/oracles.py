"""Independent checkers for every guarantee the solver claims.

Value-level envy-freeness up to one good, the price-support certificate of
fractional Pareto optimality, brute-force integral Pareto optimality,
brute-force maximum Nash welfare, the Nash-welfare approximation bound,
and an auditor for the engine's event traces.  The brute-force oracles
enumerate allocations exhaustively (with pruning) and are size-gated;
when an instance is too large they report a skip instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
    _common_denominator,
    _valued,
    is_pef1,
    normalize_instance,  # unused here; perfbench's span table names it (core.normalize)
)
from .engine import RATES, TraceEvent, iteration_bound
from .market import MbbGraph

DEFAULT_BRUTE_CAP = 10_000_000

# Rational threshold strictly below exp(-1/e) ~ 0.69220062; using a lower
# bound keeps the welfare check sound for any genuine approximation.
NSW_FLOOR = Fraction(6922, 10000)


# ---------------------------------------------------------------------------
# value-level fairness


def check_ef1(inst: Instance, alloc: Allocation) -> bool:
    """Envy-freeness up to one good, via the max-good shortcut.

    Agent i accepts agent j's bundle test when either i does not envy j,
    or dropping j's single most valuable good (in i's eyes) kills the envy.
    """
    alloc.validate_partition(inst.m, inst.n)
    n = inst.n
    for i in range(n):
        row, _ = _common_denominator(inst.valuations[i])  # i's values over one denominator
        own = sum(row[g] for g in alloc[i])
        for j in range(n):
            if i == j:
                continue
            other = sum(row[g] for g in alloc[j])
            if own < other:
                best = max(row[g] for g in alloc[j])
                if own < other - best:
                    return False
    return True


# ---------------------------------------------------------------------------
# price-support certificate


def check_mbb_consistency(inst: Instance, sol: Solution) -> bool:
    """True iff every owned good attains its owner's best value-per-price ratio.

    A passing solution is a machine-checkable certificate of fractional
    Pareto optimality: the prices support a market equilibrium with each
    agent's spending as its budget.  Like `is_pef1`, it reads the market
    that normalization keeps: an agent who values nothing but holds a
    valued good fails it, as does a valued good at price 0; goods nobody
    values are ignored.
    """
    sol.validate(inst)
    agents, goods = _valued(inst)
    valued = frozenset(goods)
    bundles = [sol.allocation[i] & valued for i in agents]
    if sum(map(len, bundles)) < len(goods) or not all(sol.prices[g] for g in goods):
        return False
    graph = MbbGraph.from_state(inst, sol.allocation.bundles, sol.prices, agents, goods)
    return all(bundle <= set(graph.mbb[i]) for i, bundle in zip(agents, bundles))


# ---------------------------------------------------------------------------
# brute-force oracles


def _shares(inst: Instance) -> list[list[int]]:
    """Each agent's values as integer shares of its total, on one common scale.

    Agent i's values are scaled so that its total becomes L, the lcm of all
    totals (a zero total counts as 1).  The searches only compare an agent
    with itself or multiply the agents' values, so one positive factor per
    agent changes no result.
    """
    vals = [_common_denominator(row)[0] for row in inst.valuations]
    totals = [sum(row) or 1 for row in vals]
    scale = math.lcm(*totals)
    return [[v * (scale // t) for v in row] for row, t in zip(vals, totals)]


def _branches(
    shares: Sequence[Sequence[int]], order: Sequence[int]
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """What both searches branch and prune on, over the goods taken in `order`.

    Returns, per position j: the agents good `order[j]` may go to (only agent
    0 when it is worthless to everyone); per agent, its summed shares of the
    goods `order[j:]`; and `most[j]`, the largest share in each of those
    goods, summed.  However the goods `order[j:]` are handed out, the
    agents' summed shares grow by at most `most[j]`.
    """
    agents = list(range(len(shares)))
    columns = [max(column) for column in zip(*shares)]
    choices = [agents if columns[g] else [0] for g in order]
    sums = []
    for row in (*shares, columns):
        acc = [0]
        for g in reversed(order):
            acc.append(acc[-1] + row[g])
        sums.append(acc[::-1])
    return choices, sums[:-1], sums[-1]


def brute_force_po(inst: Instance, alloc: Allocation, cap: int | None = None) -> bool | None:
    """Exhaustive integral Pareto check; None when the state space exceeds `cap`.

    Searches for any allocation giving every agent at least its current
    value and some agent strictly more, pruning branches that cannot catch
    up.  Necessary (not sufficient) for fractional optimality.
    """
    alloc.validate_partition(inst.m, inst.n)
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    n, m = inst.n, inst.m
    if n**m > cap:
        return None
    # Assign high-impact goods first; goods worthless to everyone need no branching.
    vals = _shares(inst)
    order = sorted(range(m), key=lambda g: (-sum(row[g] for row in vals), g))
    target = [sum(vals[i][g] for g in alloc[i]) for i in range(n)]
    goal = sum(target)
    choices, suffix, most = _branches(vals, order)

    # Depth-first over the goods in `order` with an explicit stack; the empty
    # assignment dominates nothing, so the search starts at the first good.
    current = [0] * n
    held = [0] * m  # held[j]: the agent given good order[j] on this branch
    untried: list = [None] * m  # untried[j]: the agents left for order[j], once entered
    j = 0 if m else -1
    while j >= 0:
        g, agents = order[j], untried[j]
        if agents is None:
            agents = untried[j] = iter(choices[j])
        else:  # take good g back before trying its next agent
            current[held[j]] -= vals[held[j]][g]
        for i in agents:
            held[j] = i
            current[i] += vals[i][g]
            break
        else:
            untried[j] = None
            j -= 1
            continue
        # Prune when one agent cannot catch up alone, or when the agents'
        # summed shortfall exceeds every share the remaining goods can add.
        shortfall = 0
        for t in range(n):
            gap = target[t] - current[t]
            if gap > 0:
                if gap > suffix[t][j + 1]:
                    break
                shortfall += gap
        else:
            if shortfall > most[j + 1]:
                continue
            if not shortfall and sum(current) > goal:
                return False  # every target met, one beaten; remaining goods only add value
            if j + 1 < m:
                j += 1
    return True


def nash_product(inst: Instance, alloc: Allocation) -> Fraction:
    """Product of the agents' bundle values (the welfare objective, un-rooted)."""
    alloc.validate_partition(inst.m, inst.n)
    product, den = 1, 1
    for i in range(inst.n):
        row, row_den = _common_denominator(inst.valuations[i])
        product *= sum(row[g] for g in alloc[i])
        den *= row_den
    return Fraction(product, den)


def brute_force_mnw(
    inst: Instance, cap: int | None = None, incumbent: Allocation | None = None
) -> tuple[Fraction, Allocation] | None:
    """Maximum value-product over all integral allocations, with one maximizer.

    Enumerates assignments in lexicographic order (good 0 outermost) and
    keeps the first maximizer; None when the state space exceeds `cap`.
    Given an `incumbent` allocation, the search starts one below its
    product: it prunes sooner, still counts ties, and returns the same.
    """
    if incumbent is not None:
        incumbent.validate_partition(inst.m, inst.n)
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    n, m = inst.n, inst.m
    if n**m > cap:
        return None
    if n == 1 or m < n or not all(any(row) for row in inst.valuations):
        # The only allocation, or every product is 0: the first in order,
        # every good to agent 0, is the first maximizer.
        winner = Allocation((frozenset(range(m)),) + (frozenset(),) * (n - 1))
        return nash_product(inst, winner), winner
    # Products of shares are the value products times one positive constant.
    vals = _shares(inst)
    choices, suffix, most = _branches(vals, range(m))
    spread = n**n

    # Depth-first with an explicit stack: g is the next good to assign.
    current = [0] * n
    have = 0  # sum(current)
    assignment = [0] * m
    untried: list = [None] * m  # untried[g]: the agents left for good g, once entered
    best_product = -1
    if incumbent is not None:
        best_product = math.prod(sum(vals[i][g] for g in incumbent[i]) for i in range(n)) - 1
    best_assignment: list[int] | None = None
    g = 0
    while g >= 0:
        if g == m:
            product = 1
            for c in current:
                product *= c
            if product > best_product:
                best_product = product
                best_assignment = assignment.copy()
            g -= 1
            continue
        agents = untried[g]
        if agents is None:
            # Cut when no product below this node can strictly beat the
            # incumbent: by AM-GM it is at most (summed shares / n)**n, and
            # at most the product of each agent's value plus every remaining good.
            if (have + most[g]) ** n <= best_product * spread:
                g -= 1
                continue
            ceiling = 1
            for i in range(n):
                ceiling *= current[i] + suffix[i][g]
            if ceiling <= best_product:
                g -= 1
                continue
            agents = untried[g] = iter(choices[g])
        else:  # take good g back before trying its next agent
            i = assignment[g]
            current[i] -= vals[i][g]
            have -= vals[i][g]
        for i in agents:
            assignment[g] = i
            current[i] += vals[i][g]
            have += vals[i][g]
            g += 1
            break
        else:
            untried[g] = None
            g -= 1
    assert best_assignment is not None
    bundles: list[set[int]] = [set() for _ in range(n)]
    for g, i in enumerate(best_assignment):
        bundles[i].add(g)
    winner = Allocation(tuple(frozenset(b) for b in bundles))
    return nash_product(inst, winner), winner


# ---------------------------------------------------------------------------
# aggregate report


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every checker; None marks a size-gated (or disabled) skip."""

    ef1: bool
    pef1: bool
    mbb_consistent: bool
    brute_po: bool | None
    nsw_product: Fraction
    mnw_product: Fraction | None
    ratio_ok: bool | None

    @property
    def ok(self) -> bool:
        """Every non-skipped check passed."""
        return (
            self.ef1
            and self.pef1
            and self.mbb_consistent
            and self.brute_po is not False
            and self.ratio_ok is not False
        )

    def to_json_dict(self) -> dict:
        def gate(x):
            return "skipped" if x is None else x

        return {
            "ef1": self.ef1,
            "pef1": self.pef1,
            "mbb_consistent": self.mbb_consistent,
            "brute_po": gate(self.brute_po),
            "nsw_product": str(self.nsw_product),
            "mnw_product": "skipped" if self.mnw_product is None else str(self.mnw_product),
            "ratio_ok": gate(self.ratio_ok),
            "ok": self.ok,
        }


def verify(inst: Instance, sol: Solution, *, brute_cap: int | None = None) -> VerificationReport:
    """Run every checker against a solution and aggregate the results.

    The price-level checks (pEF1 and the ratio certificate) read the
    solution as given and skip what normalization strips: goods nobody
    values and agents who value nothing.  The value-level checks read it
    whole.  A report claiming the certificate holds while EF1 fails is
    impossible and raises.
    """
    pef1 = is_pef1(inst, sol)
    mbb = check_mbb_consistency(inst, sol)
    ef1 = check_ef1(inst, sol.allocation)
    if pef1 and mbb and not ef1:
        raise InternalInvariantError("price certificate holds but EF1 fails; a checker is broken")
    po = brute_force_po(inst, sol.allocation, brute_cap)
    product = nash_product(inst, sol.allocation)
    best = brute_force_mnw(inst, brute_cap, sol.allocation)  # searched from this allocation
    mnw_product = None if best is None else best[0]
    ratio_ok = None if best is None else product >= NSW_FLOOR**inst.n * mnw_product
    return VerificationReport(
        ef1=ef1,
        pef1=pef1,
        mbb_consistent=mbb,
        brute_po=po,
        nsw_product=product,
        mnw_product=mnw_product,
        ratio_ok=ratio_ok,
    )


# ---------------------------------------------------------------------------
# trace audit


def audit_trace(events: Iterable[TraceEvent], total_goods: int) -> list[str]:
    """Re-check every recorded invariant of a solve trace, given as `TraceEvent`s.

    Parse JSON records with `TraceEvent.from_json_dict`.  Validates, per
    event: a positive price floor, an actual violation (minimum spending
    below the drop-one maximum), well-formed step data of its kind and none
    of the other kind's; per rebalancing call: a k above the last call's,
    contiguous step numbering, strict lexicographic growth of the potential
    vector, a non-increasing violation level that is exactly preserved by
    price rises, rise rates strictly between 1 and infinity that equal the
    smallest candidate rate, and an iteration count within the watchdog
    ceiling.  Returns human-readable findings; [] means the trace is clean.
    """
    events = list(events)
    if not all(isinstance(ev, TraceEvent) for ev in events):
        raise InvalidInputError("audit_trace takes TraceEvents only; see TraceEvent.from_json_dict")
    calls = [k for k, _ in groupby(events, key=attrgetter("k"))]  # the engine runs each k once, increasing
    problems = [f"call k={k} after call k={last}" for last, k in zip(calls, calls[1:]) if k <= last]
    for k, call in groupby(events, key=attrgetter("k")):
        previous: TraceEvent | None = None
        for ev in call:
            found = []  # the event's findings; its tag is built only when there are some
            # Levels and floors share the event's positive `den`; rates are pairs (p, q), q > 0.
            if ev.price <= 0:
                found.append(f"price floor {Fraction(ev.price, ev.den)} not positive")
            if ev.spend >= ev.hat:
                found.append("stepped although already fair")
            if len(ev.potential) != k + 2:
                found.append("potential has wrong arity")
            if sum(ev.potential[:-1]) > total_goods:
                found.append("potential counts more goods than exist")

            if ev.kind == "price_rise":
                if (ev.path, ev.a, ev.b) != (None, None, None):
                    found.append("price rise with a path or cut indices")
                if ev.rates is None:
                    found.append("price rise without rates")
                else:
                    least = None  # (name, p, q) of the smallest finite rate, b3 and then b2 first on ties
                    for name, rate in reversed([*zip(RATES, ev.rates)]):
                        if rate is not None and (least is None or rate[0] * least[2] < least[1] * rate[1]):
                            least = (name, *rate)
                    if least is None:
                        found.append("all rise rates infinite")
                    elif ev.chosen != least[0]:
                        found.append("chosen rate label mismatch")
                    for name, rate in zip(RATES, ev.rates):
                        if rate is not None and rate[0] <= rate[1]:
                            found.append(f"candidate rate {name} not above 1")
            elif ev.kind == "transfer":
                if (ev.rates, ev.chosen) != (None, None):
                    found.append("transfer with rates")
                path = ev.path
                if path is None or len(path) < 3 or len(path) % 2 == 0:
                    found.append("malformed transfer path")
                if ev.a is None or not 1 <= ev.a <= len(path or ()) // 2:
                    found.append("bad release index")
                elif ev.b is None or not 0 <= ev.b < ev.a:
                    found.append("bad absorb index")
            else:
                found.append(f"unknown event kind {ev.kind!r}")

            if previous is None:
                if ev.step != 1:
                    found.append("call does not start at step 1")
            else:
                if ev.step != previous.step + 1:
                    found.append("step numbering gap")
                if not previous.potential < ev.potential:
                    found.append(f"potential did not grow: {previous.potential} -> {ev.potential}")
                level, start = ev.hat * previous.den, previous.hat * ev.den
                if previous.kind == "price_rise" and level != start:
                    found.append("price rise moved the violation level")
                if level > start:
                    found.append("violation level increased")
            problems += [f"call k={k} step {ev.step}: {text}" for text in found]
            previous = ev
        # A call's last step is its iteration count.
        if ev.step > iteration_bound(k, total_goods):
            problems.append(f"call k={k}: iteration count exceeds ceiling")
    return problems
