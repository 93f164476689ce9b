"""Independent checkers for every guarantee the solver claims.

Value-level and price-level envy-freeness up to one good, the
price-support certificate of fractional Pareto optimality, brute-force
integral Pareto optimality, brute-force maximum Nash welfare, the
Nash-welfare approximation bound, and an auditor for the engine's event
traces.  The brute-force oracles enumerate allocations exhaustively (with
pruning) and are size-gated; when an instance is too large they report a
skip instead of guessing.  Each check is written from its definition, by
integer cross-multiplication, and shares no kernel with the engine.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from .core import (
    RATES,
    Allocation,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
    TraceEvent,
    iteration_bound,
    normalize_instance,  # unused here; perfbench's span table names it (core.normalize)
)

DEFAULT_BRUTE_CAP = 10_000_000

# Rational threshold strictly below exp(-1/e) ~ 0.69220062; using a lower
# bound keeps the welfare check sound for any genuine approximation.
NSW_FLOOR = Fraction(6922, 10000)


# ---------------------------------------------------------------------------
# the integer view every check reads


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integers over their denominators' lcm, and that lcm; the checks' own split."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in pairs})
    return [p * (den // d) for p, d in pairs], den


class _View:
    """One call's integer reading of an instance, and of the allocation and prices it checks.

    `rows[i]` holds agent i's values over `dens[i]`, `costs` the prices over one denominator.
    `agents` and `goods` are the market normalization keeps; `market` holds its bundles, cut
    to `goods`, or None if an agent outside it holds one of `goods`.
    """

    def __init__(self, inst: Instance, alloc: Allocation | None, prices: Sequence[Fraction] | None):
        if alloc is not None:
            alloc.validate_partition(inst.m, inst.n)
        self.inst, self.alloc, self.prices = inst, alloc, prices
        self.rows, self.dens = zip(*map(_over_lcm, inst.valuations))
        self.agents = [i for i, row in enumerate(self.rows) if any(row)]
        self.goods = [g for g, column in enumerate(zip(*self.rows)) if any(column)]
        if prices is not None:
            self.costs = _over_lcm(prices)[0]
            valued = frozenset(self.goods)
            bundles = [alloc[i] & valued for i in self.agents]
            self.market = bundles if sum(map(len, bundles)) == len(valued) else None

    @cached_property
    def best(self) -> list[tuple[int, int]]:
        """Each agent's best ratio row[h] / costs[h] over `goods` as a pair (v, c); (0, 1) if none."""
        costs, pairs = self.costs, []
        for row in self.rows:
            v, c = 0, 1
            for h in self.goods:
                if row[h] * c > v * costs[h]:
                    v, c = row[h], costs[h]
            pairs.append((v, c))
        return pairs

    @cached_property
    def certified(self) -> bool:
        """Whether the prices certify the allocation: each good of `goods` has a positive price and
        is held by an agent of `agents` at that agent's best ratio."""
        if self.prices is None or self.market is None or not all(self.costs[g] for g in self.goods):
            return False
        best, rows, costs = self.best, self.rows, self.costs
        held = ((i, g) for i, bundle in zip(self.agents, self.market) for g in bundle)
        return all(rows[i][g] * best[i][1] == best[i][0] * costs[g] for i, g in held)

    @cached_property
    def shares(self) -> tuple[list[list[int]], int]:
        """Each agent's values times a positive factor L * c / v, L being the lcm of the v's, and the
        denominator that takes a product of shares, one per agent, to one of values.  Under a
        certificate v / c is the agent's best ratio, so each share is at most L times the good's
        price and equal to it on the goods the allocation gives: no allocation's shares sum to more
        than its own.  Otherwise v is the agent's total (0 counts as 1) and c is 1.  The searches
        compare an agent only with itself and multiply one sum per agent, so any positive factors
        (from right prices or wrong ones) give the same answers; the factors move only the cuts."""
        if self.certified:
            pairs = [(v or 1, c) for v, c in self.best]
        else:
            pairs = [(sum(row) or 1, 1) for row in self.rows]
        scale = math.lcm(*(v for v, _ in pairs))
        factors = [scale // v * c for v, c in pairs]
        shares = [[v * f for v in row] for row, f in zip(self.rows, factors)]
        return shares, math.prod(d * f for d, f in zip(self.dens, factors))


_ACTIVE: ContextVar[_View | None] = ContextVar("_ACTIVE", default=None)


def _view(inst: Instance, alloc: Allocation | None, prices: Sequence[Fraction] | None = None) -> _View:
    """The running `verify` call's view if it was built from these very objects, else a new one."""
    view = _ACTIVE.get()
    if view is not None and view.inst is inst and view.alloc is alloc:
        if prices is None or prices is view.prices:
            return view
    return _View(inst, alloc, prices)


# ---------------------------------------------------------------------------
# value-level fairness


def check_ef1(inst: Instance, alloc: Allocation) -> bool:
    """Envy-freeness up to one good, via the max-good shortcut.

    Each agent values its own bundle at least as much as any other bundle
    without that bundle's good it values most.
    """
    view = _view(inst, alloc)
    for row, own_bundle in zip(view.rows, alloc):
        own = sum(row[g] for g in own_bundle)
        for bundle in alloc:
            values = [row[g] for g in bundle]
            if own < sum(values) - max(values, default=0):
                return False
    return True


# ---------------------------------------------------------------------------
# price-level fairness and the price-support certificate


def is_pef1(inst: Instance, sol: Solution) -> bool:
    """Price-level envy-freeness up to one good, over the market normalization keeps.

    Holds exactly when, among the agents who value some good and counting
    only the goods some agent values, the minimum spending is at least the
    maximum drop-one bundle price.  An agent who values nothing but holds a
    valued good fails it.
    """
    view = _view(inst, sol.allocation, sol.prices)
    if view.market is None:
        return False
    costs = [[view.costs[g] for g in bundle] for bundle in view.market]
    return min(map(sum, costs), default=0) >= max((sum(c) - max(c) for c in costs if c), default=0)


def check_mbb_consistency(inst: Instance, sol: Solution) -> bool:
    """True iff every owned good attains its owner's best value-per-price ratio.

    A passing solution is a machine-checkable certificate of fractional
    Pareto optimality: the prices support a market equilibrium with each
    agent's spending as its budget.  Like `is_pef1`, it reads the market
    that normalization keeps: an agent who values nothing but holds a
    valued good fails it, as does a valued good at price 0; goods nobody
    values are ignored.
    """
    return _view(inst, sol.allocation, sol.prices).certified


# ---------------------------------------------------------------------------
# brute-force oracles


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
    view = _view(inst, alloc)
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    n, m = inst.n, inst.m
    if n**m > cap:
        return None
    vals, _ = view.shares
    target = [sum(vals[i][g] for g in alloc[i]) for i in range(n)]
    goal = sum(target)
    # A dominating allocation's shares sum past `goal`, and none sum past the column maxima's.
    if sum(map(max, zip(*vals))) <= goal:
        return True
    # Assign high-impact goods first; goods worthless to everyone need no branching.
    order = sorted(range(m), key=lambda g: (-sum(row[g] for row in vals), g))
    choices, suffix, most = _branches(vals, order)

    # Depth-first over the goods in `order` with an explicit stack; the empty
    # assignment dominates nothing, so the search starts at the first good (m > 0 here).
    current = [0] * n
    held = [0] * m  # held[j]: the agent given good order[j] on this branch
    untried: list = [None] * m  # untried[j]: the agents left for order[j], once entered
    j = 0
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
        # Prune when one agent cannot catch up alone, when the agents' summed
        # shortfall exceeds every share the remaining goods can add, or when
        # those shares cannot lift the summed shares above `goal`.
        shortfall = 0
        for t in range(n):
            gap = target[t] - current[t]
            if gap > 0:
                if gap > suffix[t][j + 1]:
                    break
                shortfall += gap
        else:
            have = sum(current)
            if shortfall > most[j + 1] or have + most[j + 1] <= goal:
                continue
            if not shortfall and have > goal:
                return False  # every target met, one beaten; remaining goods only add value
            if j + 1 < m:
                j += 1
    return True


def nash_product(inst: Instance, alloc: Allocation) -> Fraction:
    """Product of the agents' bundle values (the welfare objective, un-rooted)."""
    view = _view(inst, alloc)
    product = math.prod(sum(row[g] for g in bundle) for row, bundle in zip(view.rows, alloc))
    return Fraction(product, math.prod(view.dens))


def brute_force_mnw(
    inst: Instance, cap: int | None = None, incumbent: Allocation | None = None
) -> tuple[Fraction, Allocation] | None:
    """Maximum value-product over all integral allocations, with one maximizer.

    Enumerates assignments in lexicographic order (good 0 outermost) and
    keeps the first maximizer; None when the state space exceeds `cap`.
    Given an `incumbent` allocation, the search starts one below its
    product: it prunes sooner, still counts ties, and returns the same.
    """
    view = _view(inst, incumbent)
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    n, m = inst.n, inst.m
    if n**m > cap:
        return None
    if n == 1 or m < n or len(view.agents) < n:
        # The only allocation, or every product is 0: the first in order,
        # every good to agent 0, is the first maximizer.
        winner = Allocation((frozenset(range(m)),) + (frozenset(),) * (n - 1))
        return Fraction(sum(view.rows[0]) if n == 1 else 0, view.dens[0]), winner
    # Products of shares are the value products over one positive denominator.
    vals, den = view.shares
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
    bar = best_product * spread  # the AM-GM cut's right-hand side, kept with best_product
    best_assignment: list[int] | None = None
    g = 0
    while g >= 0:
        if g == m:
            product = 1
            for c in current:
                product *= c
            if product > best_product:
                best_product, bar = product, product * spread
                best_assignment = assignment.copy()
            g -= 1
            continue
        agents = untried[g]
        if agents is None:
            # Cut when no product below this node can strictly beat the
            # incumbent: by AM-GM it is at most (summed shares / n)**n, and
            # at most the product of each agent's value plus every remaining good.
            if (have + most[g]) ** n <= bar:
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
    return Fraction(best_product, den), Allocation(tuple(frozenset(b) for b in bundles))


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
    # Every check below reads this one view: each is handed the objects it was built from.
    token = _ACTIVE.set(_View(inst, sol.allocation, sol.prices))
    try:
        pef1 = is_pef1(inst, sol)
        mbb = check_mbb_consistency(inst, sol)
        ef1 = check_ef1(inst, sol.allocation)
        if pef1 and mbb and not ef1:
            raise InternalInvariantError("price certificate holds but EF1 fails; a checker is broken")
        po = brute_force_po(inst, sol.allocation, brute_cap)
        product = nash_product(inst, sol.allocation)
        best = brute_force_mnw(inst, brute_cap, sol.allocation)  # searched from this allocation
    finally:
        _ACTIVE.reset(token)
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
