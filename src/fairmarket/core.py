"""Exact-rational primitives for fair division with indivisible goods.

Instances, allocations and price vectors, together with the spending
aggregates the solver reasons about: each bundle's price, its price after
dropping its most expensive good, and the price-level envy test built on
them.  Also hosts the normalization step that strips worthless goods and
indifferent agents, and the Hall-condition check that gates the solver.

Every quantity handed out is a `fractions.Fraction`; nothing in the solver
path ever rounds.  Agent and good indices are 0-based throughout, including
in the JSON file formats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Iterable, Sequence


class FairMarketError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FairMarketError):
    """Malformed or out-of-contract input (bad file, bad index, bad shape)."""


class HallViolationError(FairMarketError):
    """The normalized instance has an agent set valuing fewer goods than its size."""


class InternalInvariantError(FairMarketError):
    """A solver invariant failed; indicates a bug, never a user error."""


# ---------------------------------------------------------------------------
# rational parsing / serialization


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")  # q > 0


def _brief(text: str) -> str:
    """`text` for an error detail: past 40 characters, its start and its digit count."""
    return text if len(text) <= 40 else f"{text[:24]}... ({sum(map(str.isdigit, text))} digits)"


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p" or "p/q" digit string, q > 0."""
    if isinstance(value, bool):
        raise InvalidInputError(f"expected a rational number, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ValueError as exc:  # past CPython's digit limit
            raise InvalidInputError(f"cannot parse rational {_brief(repr(value))}: {exc}") from None
    raise InvalidInputError(f"expected an int or a 'p/q' digit string, q > 0, got {_brief(repr(value))}")


def rational_to_json(q: Fraction) -> int | str:
    """Canonical JSON form: plain int when integral, reduced "p/q" otherwise."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Instance:
    """A fair division instance: one valuation row per agent, one column per good."""

    valuations: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.valuations:
            raise InvalidInputError("an instance needs at least one agent")
        m = len(self.valuations[0])
        for i, row in enumerate(self.valuations):
            if len(row) != m:
                raise InvalidInputError(f"agent {i} has {len(row)} values, expected {m}")
            for g, v in enumerate(row):
                if not isinstance(v, Fraction):
                    raise InvalidInputError(f"valuation ({i},{g}) is not a Fraction")
                if v.numerator < 0:
                    raise InvalidInputError(f"valuation ({i},{g}) is negative: {_brief(str(v))}")

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return len(self.valuations[0])

    @classmethod
    def from_values(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Instance":
        return cls(tuple(tuple(parse_rational(x) for x in row) for row in rows))

    def value_of(self, agent: int, goods: Iterable[int]) -> Fraction:
        """Additive value agent places on a set of goods."""
        row = self.valuations[agent]
        return sum((row[g] for g in goods), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "agents": self.n,
            "goods": self.m,
            "valuations": [[rational_to_json(v) for v in row] for row in self.valuations],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "Instance":
        if not isinstance(obj, dict):
            raise InvalidInputError("instance JSON must be an object")
        for key in ("agents", "goods", "valuations"):
            if key not in obj:
                raise InvalidInputError(f"instance JSON is missing {key!r}")
        for key in ("agents", "goods"):
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                raise InvalidInputError(f"{key!r} must be an integer, got {obj[key]!r}")
        rows = obj["valuations"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InvalidInputError("'valuations' must be a list of rows")
        inst = cls.from_values(rows)
        if inst.n != obj["agents"]:
            raise InvalidInputError(f"'agents' is {obj['agents']} but there are {inst.n} rows")
        if inst.m != obj["goods"]:
            raise InvalidInputError(f"'goods' is {obj['goods']} but rows have {inst.m} entries")
        return inst


@dataclass(frozen=True)
class Allocation:
    """A partition of goods 0..k-1 into bundles, one per agent."""

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        # The one check of raw good indices: what takes an Allocation checks its shape alone.
        held: set[int] = set()
        for i, bundle in enumerate(self.bundles):
            for g in bundle:
                if not isinstance(g, int) or isinstance(g, bool) or g < 0:
                    raise InvalidInputError(f"bundle {i} holds invalid good index {g!r}")
                if g in held:
                    raise InvalidInputError(f"good {g} appears in more than one bundle")
                held.add(g)
        if held and max(held) >= len(held):
            missing = min(set(range(len(held))) - held)
            raise InvalidInputError(f"good index {max(held)} is out of range; good {missing} is not allocated")

    def __len__(self) -> int:
        return len(self.bundles)

    def __iter__(self):
        return iter(self.bundles)

    def __getitem__(self, agent: int) -> frozenset[int]:
        return self.bundles[agent]

    @classmethod
    def from_lists(cls, lists: Iterable[Iterable[int]]) -> "Allocation":
        """The allocation of bundles given as lists, each listing its goods once."""
        lists = [list(b) for b in lists]
        if any(len(set(b)) != len(b) for b in lists):
            raise InvalidInputError("a bundle lists a good more than once")
        return cls(tuple(map(frozenset, lists)))

    def validate_partition(self, m: int, n: int) -> None:
        """Raise unless there are `n` bundles holding goods 0..m-1: a shape check, as
        the goods held are 0..k-1 by construction."""
        k = sum(map(len, self.bundles))
        if k > m:
            raise InvalidInputError(f"good index {k - 1} is out of range for {m} goods")
        if k < m:
            raise InvalidInputError(f"goods {k}..{m - 1} are not allocated")
        if len(self.bundles) != n:
            raise InvalidInputError(f"allocation has {len(self.bundles)} bundles for {n} agents")

    def as_sorted_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.bundles]


@dataclass(frozen=True)
class Solution:
    """An allocation paired with a price vector over the same goods."""

    allocation: Allocation
    prices: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # The one check of the price container and its entries, so every
        # function taking a Solution may index `prices` by its bundles' goods.
        if not isinstance(self.prices, (list, tuple)):
            raise InvalidInputError(f"prices must be a list or tuple, got {type(self.prices).__name__}")
        object.__setattr__(self, "prices", tuple(self.prices))  # hashable, equal for equal prices
        for g, p in enumerate(self.prices):
            if not isinstance(p, Fraction):
                raise InvalidInputError(f"price of good {g} is not a Fraction")
            if p.numerator < 0:
                raise InvalidInputError(f"price of good {g} is negative: {_brief(str(p))}")
        self.allocation.validate_partition(len(self.prices), len(self.allocation))

    def validate(self, inst: Instance) -> None:
        """Raise unless the solution fits `inst`: a shape check, as it checked its goods when made."""
        self.allocation.validate_partition(inst.m, inst.n)

    def to_json_dict(self) -> dict:
        return {
            "bundles": self.allocation.as_sorted_lists(),
            "prices": [str(p) for p in self.prices],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "Solution":
        if not isinstance(obj, dict):
            raise InvalidInputError("solution JSON must be an object")
        for key in ("bundles", "prices"):
            if key not in obj:
                raise InvalidInputError(f"solution JSON is missing {key!r}")
        bundles = obj["bundles"]
        if not isinstance(bundles, list) or not all(isinstance(b, list) for b in bundles):
            raise InvalidInputError("'bundles' must be a list of lists")
        if not all(isinstance(g, int) for b in bundles for g in b):
            raise InvalidInputError("bundle entries must be integer good indices")
        if not isinstance(obj["prices"], list):
            raise InvalidInputError("'prices' must be a list")
        prices = tuple(parse_rational(p) for p in obj["prices"])
        return cls(Allocation.from_lists(bundles), prices)


# ---------------------------------------------------------------------------
# price aggregates

Prices = list[Fraction] | tuple[Fraction, ...]  # one price per good, indexed by good


def _common_denominator(prices: Iterable[Fraction]) -> tuple[list[int], int]:
    """The prices as integer numerators over one common denominator, their lcm."""
    pairs = [p.as_integer_ratio() for p in prices]
    # Short when the prices share factors (integer valuations); coprime ones multiply.
    # A fold: `lcm(*...)` would pile argument tuples on CPython's free lists.
    den = reduce(lcm, {d for _, d in pairs}, 1)
    return [n * (den // d) for n, d in pairs], den


def _spend_and_hat(costs: Sequence[int]) -> tuple[int, int]:
    """A bundle's price and drop-one price, from its goods' numerators over one denominator."""
    spend = sum(costs)
    return spend, spend - max(costs, default=0)


def spending_profile(
    bundles: Sequence[Iterable[int]], prices: Prices
) -> tuple[list[Fraction], list[Fraction]]:
    """Each bundle's price, and its price after dropping its most expensive good.

    Looks up each good's price once and sums each bundle once.  Trusts the
    bundles' goods to index `prices`, as a `Solution` guarantees.
    """
    spends, hats = [], []
    for bundle in bundles:
        costs, den = _common_denominator(prices[g] for g in bundle)
        spend, hat = _spend_and_hat(costs)
        spends.append(Fraction(spend, den))
        hats.append(Fraction(hat, den))
    return spends, hats


def hat_profile(bundles: Sequence[Iterable[int]], prices: Prices) -> list[Fraction]:
    """Each bundle's drop-one price: the second half of `spending_profile`."""
    return spending_profile(bundles, prices)[1]


def is_pef1(inst: Instance, sol: Solution) -> bool:
    """Price-level envy-freeness up to one good, over the market normalization keeps.

    Holds exactly when, among the agents who value some good and counting
    only the goods some agent values, the minimum spending is at least the
    maximum drop-one bundle price.  An agent who values nothing but holds a
    valued good fails it.
    """
    sol.validate(inst)
    agents, goods = _valued(inst)
    valued = frozenset(goods)
    bundles = [sol.allocation[i] & valued for i in agents]
    if sum(map(len, bundles)) < len(goods):
        return False  # an agent who values nothing holds a valued good
    spends, hats = spending_profile(bundles, sol.prices)
    return min(spends, default=0) >= max(hats, default=0)


# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormalizationRecord:
    """Index bookkeeping between a raw instance and its normalized core.

    `kept_agents[i]` is the original index of core agent i, and likewise
    for goods; the record is enough to re-embed any core solution into the
    original index space.
    """

    original_agent_count: int
    original_good_count: int
    kept_agents: tuple[int, ...]
    kept_goods: tuple[int, ...]

    @property
    def dropped_goods(self) -> tuple[int, ...]:
        kept = set(self.kept_goods)
        return tuple(g for g in range(self.original_good_count) if g not in kept)


def _valued(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The agents who value some good and the goods some agent values: what normalization keeps."""
    # `Instance` rejects negative values, so a nonzero value is a positive one.
    agents = tuple(i for i, row in enumerate(inst.valuations) if any(row))
    goods = tuple(g for g, column in enumerate(zip(*inst.valuations)) if any(column))
    return agents, goods


def normalize_instance(inst: Instance) -> tuple[Instance | None, NormalizationRecord]:
    """Strip goods nobody values and agents who value nothing.

    Returns the core instance (or None when no agent survives) and the
    record needed to re-embed a core solution via `denormalize`.
    """
    kept_agents, kept_goods = _valued(inst)
    rec = NormalizationRecord(inst.n, inst.m, kept_agents, kept_goods)
    if not kept_agents:
        return None, rec
    core = Instance(
        tuple(tuple(inst.valuations[i][g] for g in kept_goods) for i in kept_agents)
    )
    return core, rec


def denormalize(sol: Solution, rec: NormalizationRecord) -> Solution:
    """Re-embed a core solution into the original index space.

    Dropped agents receive empty bundles.  Dropped goods are appended to
    the bundle of the lowest-index surviving agent at price 0; they are
    worthless to every agent, so value-level fairness and efficiency are
    unaffected.
    """
    if len(sol.allocation) != len(rec.kept_agents):
        raise InvalidInputError("solution does not match the record's agent count")
    if len(sol.prices) != len(rec.kept_goods):
        raise InvalidInputError("solution does not match the record's good count")
    bundles: list[set[int]] = [set() for _ in range(rec.original_agent_count)]
    for ci, bundle in enumerate(sol.allocation):
        bundles[rec.kept_agents[ci]] = {rec.kept_goods[g] for g in bundle}
    dropped = rec.dropped_goods
    if dropped:
        # No surviving agent only happens when every good was dropped too;
        # park the worthless goods on agent 0 in that degenerate case.
        bundles[min(rec.kept_agents, default=0)].update(dropped)
    prices = [Fraction(0)] * rec.original_good_count
    for ci, g in enumerate(rec.kept_goods):
        prices[g] = sol.prices[ci]
    return Solution(Allocation(tuple(frozenset(b) for b in bundles)), tuple(prices))


# ---------------------------------------------------------------------------
# Hall's condition


def check_hall(inst: Instance) -> bool:
    """True iff every agent can be matched to a distinct positively valued good.

    Uses augmenting-path maximum bipartite matching on the positive-value
    graph; a matching saturating all agents is equivalent to every agent
    subset valuing at least as many goods as its size.  The depth-first
    search for an augmenting path keeps an explicit stack, so long chains
    need no recursion.
    """
    adjacency = [[g for g, v in enumerate(row) if v] for row in inst.valuations]
    matched_agent: dict[int, int] = {}
    for root in range(inst.n):
        visited: set[int] = set()
        stack = [(root, iter(adjacency[root]))]  # agents on the current path
        via: list[int] = []  # via[d]: the good leading from stack[d] to stack[d + 1]
        while stack:
            g = next((g for g in stack[-1][1] if g not in visited), None)
            if g is None:
                stack.pop()
                del via[-1:]
                continue
            visited.add(g)
            holder = matched_agent.get(g)
            if holder is None:
                for (agent, _), good in zip(stack, via + [g]):
                    matched_agent[good] = agent
                break
            stack.append((holder, iter(adjacency[holder])))
            via.append(g)
        else:
            return False
    return True
