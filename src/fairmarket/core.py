"""Exact-rational primitives for fair division with indivisible goods.

Instances, allocations and price vectors, together with the spending
aggregates the solver reasons about: each bundle's price and its price
after dropping its most expensive good.  Also hosts the normalization step
that strips worthless goods and indifferent agents, the Hall-condition
check that gates the solver, and the solver's trace record (`TraceEvent`,
`SolveTrace`) with the iteration ceiling its audit checks.

Every quantity handed out is a `fractions.Fraction`, or in a trace event
integer numerators over one denominator; nothing in the solver path ever
rounds.  Agent and good indices are 0-based throughout, including
in the JSON file formats.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from json.encoder import encode_basestring_ascii as _json_string  # what `json.dumps` does to a str
from math import gcd, lcm
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
    bundles: Sequence[Iterable[int]], prices: Sequence[Fraction]
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


def hat_profile(bundles: Sequence[Iterable[int]], prices: Sequence[Fraction]) -> list[Fraction]:
    """Each bundle's drop-one price: the second half of `spending_profile`."""
    return spending_profile(bundles, prices)[1]


# ---------------------------------------------------------------------------
# the trace record

# Rational upper bound on Euler's number as a (numerator, denominator) pair;
# only used to over-approximate the iteration watchdog, so erring high is safe.
E_UPPER = (27182818285, 10**10)


def _parse_named(obj: dict, key: str) -> Fraction:
    """`obj[key]` parsed as a rational; a parse error names `key`."""
    try:
        return parse_rational(obj[key])
    except InvalidInputError as exc:
        raise InvalidInputError(f"trace event {key!r}: {exc}") from None


def iteration_bound(agent_count: int, total_goods: int) -> int:
    """Watchdog ceiling ⌊(k-1)·((m+k)/k·e)^k⌋ on rebalancing iterations, for k agents and m goods."""
    k = agent_count
    if k <= 1:
        return 0
    e_num, e_den = E_UPPER
    return (k - 1) * ((total_goods + k) * e_num) ** k // (k * e_den) ** k


RATES = ("b1", "b2", "b3")


def _reduced(p: int, q: int) -> tuple[int, int]:
    """The ratio p/q, q > 0, as a pair in lowest terms."""
    common = gcd(p, q)
    return p // common, q // common


def _text(p: int, q: int) -> str:
    """`str(Fraction(p, q))`, q > 0, without building the `Fraction`."""
    common = gcd(p, q)
    return str(p // common) if q == common else f"{p // common}/{q // common}"


def _rate_json(rate: tuple[int, int] | None) -> str:
    """A stored rate, a reduced pair (p, q) or None, as its JSON value: no second gcd."""
    return "null" if rate is None else f'"{rate[0]}"' if rate[1] == 1 else f'"{rate[0]}/{rate[1]}"'


@dataclass(frozen=True, init=False)
class TraceEvent:
    """Snapshot of one iteration, taken just before its step executes.

    `spend`, `hat` and `price` are the numerators over `den` of the minimum spending, the
    violation level and the minimum price, reduced jointly on construction, so equal events
    have equal fields.  A price rise holds its rates b1, b2 and b3 in `rates`, each a reduced
    integer pair (p, q) for p/q or None when infinite, and the label of the smallest in
    `chosen`; a transfer holds None in both, and its path and cut indices in `path`, `a`, `b`.
    `b1` stops when a new best-ratio edge would appear out of the reachable set, `b2` when a
    reachable agent would become a maximum violator, `b3` when the newcomer's spending would
    reach the violation level.
    """

    k: int
    step: int
    kind: str
    rates: tuple[tuple[int, int] | None, ...] | None
    chosen: str | None
    path: tuple[int, ...] | None
    a: int | None
    b: int | None
    potential: tuple[int, ...]
    spend: int
    hat: int
    price: int
    den: int

    def __init__(self, k, step, kind, rates, chosen, path, a, b, potential, spend, hat, price, den) -> None:
        # One dict update: a frozen dataclass's `__init__` calls `object.__setattr__` per field.
        if rates is not None:
            b1, b2, b3 = rates
            rates = (b1 and _reduced(*b1), b2 and _reduced(*b2), b3 and _reduced(*b3))
        if (common := gcd(spend, hat, price, den)) > 1:
            spend, hat, price, den = spend // common, hat // common, price // common, den // common
        vars(self).update(k=k, step=step, kind=kind, rates=rates, chosen=chosen, path=path, a=a, b=b,
                          potential=potential, spend=spend, hat=hat, price=price, den=den)

    def to_json_line(self) -> str:
        """The event as one trace line: the JSON record with its keys, and those of `beta`, in
        sorted order, as `json.dumps` writes it, formatted from the stored integers."""
        beta = "null"
        if (rates := self.rates) is not None:
            b1, b2, b3 = map(_rate_json, rates)
            beta = f'{{"b1": {b1}, "b2": {b2}, "b3": {b3}, "chosen": "{self.chosen}"}}'
        a, b, den = "null" if self.a is None else self.a, "null" if self.b is None else self.b, self.den
        path = "null" if self.path is None else list(self.path)  # a list of ints prints as JSON
        return (f'{{"a": {a}, "b": {b}, "beta": {beta}, "k": {self.k}, "kind": {_json_string(self.kind)}, '
                f'"max_hat": "{_text(self.hat, den)}", "min_price": "{_text(self.price, den)}", '
                f'"min_spend": "{_text(self.spend, den)}", "path": {path}, '
                f'"potential": {list(self.potential)}, "step": {self.step}}}')

    def to_json_dict(self) -> dict:
        """The event as a JSON record: the parse of `to_json_line`."""
        return json.loads(self.to_json_line())

    @classmethod
    def from_json_dict(cls, obj: object) -> "TraceEvent":
        """The event `to_json_dict` wrote; raises `InvalidInputError` on any other record.

        Checks the record's shape only; `audit_trace` checks what its values mean.
        """
        names = ["k", "step", "kind", "beta", "path", "a", "b", "potential", "min_spend", "max_hat", "min_price"]
        if not isinstance(obj, dict) or obj.keys() != set(names):
            raise InvalidInputError(f"a trace event needs exactly the keys {', '.join(names)}")
        shapes = dict(k=int, step=int, a=int, b=int, kind=str, path=list, potential=list)
        for key, shape in shapes.items():
            value = obj[key]
            # The type itself, so a bool is not an int; `a`, `b` and `path` may be null.
            ok = type(value) is shape and (shape is not list or all(type(x) is int for x in value))
            if not ok and not (value is None and key in ("a", "b", "path")):
                what = {int: "an integer", str: "a string", list: "a list of integers"}[shape]
                raise InvalidInputError(f"trace event {key!r} must be {what}, got {_brief(repr(value))}")
        nums, den = _common_denominator(_parse_named(obj, key) for key in names[8:])
        rates = chosen = None
        if (beta := obj["beta"]) is not None:
            if not isinstance(beta, dict) or beta.keys() != {*RATES, "chosen"} or beta["chosen"] not in RATES:
                raise InvalidInputError(f"rates need b1, b2, b3 and a chosen label, got {_brief(repr(beta))}")
            # `is None`, not truthiness, so a rate of 0 is parsed (and kept) too.
            rates = tuple(None if beta[n] is None else _parse_named(beta, n).as_integer_ratio() for n in RATES)
            chosen = beta["chosen"]
        path = None if obj["path"] is None else tuple(obj["path"])
        kind, potential = obj["kind"], tuple(obj["potential"])
        return cls(obj["k"], obj["step"], kind, rates, chosen, path, obj["a"], obj["b"], potential, *nums, den)


class SolveTrace:
    """Complete event log of a solve run; the rebalancing call of k agents is its events with that `k`."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def iter_json_dicts(self) -> Iterable[dict]:
        return map(TraceEvent.to_json_dict, self.events)


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


def normalize_instance(inst: Instance) -> tuple[Instance | None, NormalizationRecord]:
    """Strip goods nobody values and agents who value nothing.

    Returns the core instance (or None when no agent survives) and the
    record needed to re-embed a core solution via `denormalize`.  With
    nothing to strip, the core is `inst` itself.
    """
    # `Instance` rejects negative values, so a nonzero value is a positive one.
    kept_agents = tuple(i for i, row in enumerate(inst.valuations) if any(row))
    kept_goods = tuple(g for g, column in enumerate(zip(*inst.valuations)) if any(column))
    rec = NormalizationRecord(inst.n, inst.m, kept_agents, kept_goods)
    if not kept_agents:
        return None, rec
    if len(kept_agents) == inst.n and len(kept_goods) == inst.m:
        return inst, rec  # nothing to strip: the instance is frozen, so it is its own core
    core = Instance(
        tuple(tuple(inst.valuations[i][g] for g in kept_goods) for i in kept_agents)
    )
    return core, rec


def denormalize(sol: Solution, rec: NormalizationRecord) -> Solution:
    """Re-embed a core solution into the original index space.

    Dropped agents receive empty bundles.  Dropped goods are appended to
    the bundle of the lowest-index surviving agent at price 0; they are
    worthless to every agent, so value-level fairness and efficiency are
    unaffected.  A record that keeps every agent and every good, in order,
    gives back `sol` itself.
    """
    if len(sol.allocation) != len(rec.kept_agents):
        raise InvalidInputError("solution does not match the record's agent count")
    if len(sol.prices) != len(rec.kept_goods):
        raise InvalidInputError("solution does not match the record's good count")
    n, m = rec.original_agent_count, rec.original_good_count
    if rec.kept_agents == tuple(range(n)) and rec.kept_goods == tuple(range(m)):
        return sol  # nothing to re-embed: the solution is frozen, so it serves as it is
    bundles: list[set[int]] = [set() for _ in range(n)]
    for ci, bundle in enumerate(sol.allocation):
        bundles[rec.kept_agents[ci]] = {rec.kept_goods[g] for g in bundle}
    dropped = rec.dropped_goods
    if dropped:
        # No surviving agent only happens when every good was dropped too;
        # park the worthless goods on agent 0 in that degenerate case.
        bundles[min(rec.kept_agents, default=0)].update(dropped)
    prices = [Fraction(0)] * m
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
