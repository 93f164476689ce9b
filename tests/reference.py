"""Literal `Fraction` definitions that the tests hold the package's kernels to.

Each function is written from its definition, on `Fraction`s only, and
uses none of the package's integer kernels (`best_ratios`,
`_common_denominator`, `_spend_and_hat`, `spending_profile`): a test that
compares a kernel with this module does not compare it with itself.
Agent and good indices are 0-based, as in the package.  The trace record
is written from `str(Fraction)`, not from the package's writer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from fairmarket import Allocation, Instance, InternalInvariantError, Solution, TraceEvent


def bang_per_buck(value: Fraction, price: Fraction) -> Fraction:
    """value/price with the 0/0 = 0 convention; positive value at zero price is a bug."""
    if price == 0:
        if value == 0:
            return Fraction(0)
        raise InternalInvariantError("positive value over zero price")
    return value / price


def alphas(
    inst: Instance,
    prices: Sequence[Fraction],
    agents: Iterable[int] | None = None,
    goods: Iterable[int] | None = None,
) -> dict[int, Fraction]:
    """Each agent's best value-per-price ratio over `goods` (default: all), 0 over none."""
    goods = list(range(inst.m) if goods is None else goods)
    return {
        i: max((bang_per_buck(inst.valuations[i][g], prices[g]) for g in goods), default=Fraction(0))
        for i in (range(inst.n) if agents is None else agents)
    }


def mbb(
    inst: Instance, prices: Sequence[Fraction], agents: Iterable[int], goods: Iterable[int]
) -> list[set[int]]:
    """Per agent in `agents`, in order, the goods of `goods` that attain its best ratio."""
    agents, goods = list(agents), list(goods)
    best = alphas(inst, prices, agents, goods)
    return [
        {g for g in goods if bang_per_buck(inst.valuations[i][g], prices[g]) == best[i]}
        for i in agents
    ]


def bundle_price(prices: Sequence[Fraction], goods: Iterable[int]) -> Fraction:
    """Total price of a set of goods; 0 for the empty set."""
    return sum((prices[g] for g in goods), Fraction(0))


def bundle_value(inst: Instance, agent: int, goods: Iterable[int]) -> Fraction:
    """The agent's additive value for a set of goods; 0 for the empty set."""
    return sum((inst.valuations[agent][g] for g in goods), Fraction(0))


def hat_price(prices: Sequence[Fraction], goods: Iterable[int]) -> Fraction:
    """Price of a set of goods after dropping its most expensive one; 0 for the empty set."""
    costs = [prices[g] for g in goods]
    return sum(costs, Fraction(0)) - max(costs, default=Fraction(0))


def min_spenders(sol: Solution) -> tuple[int, ...]:
    """Agents with the lowest bundle price, in ascending index order."""
    spends = [bundle_price(sol.prices, bundle) for bundle in sol.allocation]
    return tuple(i for i, spend in enumerate(spends) if spend == min(spends))


def max_violators(sol: Solution) -> tuple[int, ...]:
    """Agents with the highest drop-one bundle price, in ascending index order."""
    hats = [hat_price(sol.prices, bundle) for bundle in sol.allocation]
    return tuple(i for i, hat in enumerate(hats) if hat == max(hats))


def check_ef1_literal(inst: Instance, alloc: Allocation) -> bool:
    """Envy-freeness up to one good, enumerated per pair of agents and per good."""
    n = inst.n
    for i in range(n):
        own = bundle_value(inst, i, alloc[i])
        row = inst.valuations[i]
        for j in range(n):
            if i == j:
                continue
            other = bundle_value(inst, i, alloc[j])
            if own < other:
                if not any(own >= other - row[g] for g in alloc[j]):
                    return False
    return True


def _valued(inst: Instance) -> tuple[list[int], set[int]]:
    """The agents who value some good, and the goods some agent values."""
    agents = [i for i in range(inst.n) if any(v > 0 for v in inst.valuations[i])]
    goods = {g for g in range(inst.m) if any(row[g] > 0 for row in inst.valuations)}
    return agents, goods


def pef1_literal(inst: Instance, sol: Solution) -> bool:
    """Price envy-freeness up to one good over the valued agents and goods, pair by pair.

    An agent who values nothing but holds a valued good fails it.
    """
    agents, goods = _valued(inst)
    if any(sol.allocation[i] & goods for i in range(inst.n) if i not in agents):
        return False
    bundles = {i: sol.allocation[i] & goods for i in agents}
    return all(
        bundle_price(sol.prices, bundles[i]) >= hat_price(sol.prices, bundles[j])
        for i in agents
        for j in agents
    )


def mbb_certificate_literal(inst: Instance, sol: Solution) -> bool:
    """Every valued good is priced and held by a valued agent for whom it is a best-ratio good."""
    agents, goods = _valued(inst)
    if any(sol.prices[g] == 0 for g in goods):
        return False
    if any(sol.allocation[i] & goods for i in range(inst.n) if i not in agents):
        return False
    return all(
        bang_per_buck(inst.valuations[i][g], sol.prices[g]) == alphas(inst, sol.prices, [i], goods)[i]
        for i in agents
        for g in sol.allocation[i] & goods
    )


def trace_record_literal(event: TraceEvent) -> dict:
    """The JSON record of a trace event, each number over `den`, and each rate, as `str(Fraction)`."""
    beta = None
    if event.rates is not None:
        beta = {name: None if r is None else str(Fraction(*r)) for name, r in zip(("b1", "b2", "b3"), event.rates)}
        beta["chosen"] = event.chosen
    return {
        "a": event.a,
        "b": event.b,
        "beta": beta,
        "k": event.k,
        "kind": event.kind,
        "max_hat": str(Fraction(event.hat, event.den)),
        "min_price": str(Fraction(event.price, event.den)),
        "min_spend": str(Fraction(event.spend, event.den)),
        "path": None if event.path is None else list(event.path),
        "potential": list(event.potential),
        "step": event.step,
    }
