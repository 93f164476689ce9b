"""The benchmark's own checks on every solver output, plus output digests.

`problems` re-derives the guarantees from the raw values with no code from
the program: the bundles partition the goods, EF1 holds at the value level,
and the prices certify the allocation (every valued good is priced, every
owned priced good attains its owner's best value-per-price ratio, and the
spending clears the drop-one price level).

`digests` hashes the solution JSON and the event trace.  The trace hash
keeps only transfer and price-rise records and, inside each, only the keys
below, so records or keys added to the trace later do not count as a
change of output.

`counters` derives the deterministic work counts from the same outputs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

EVENT_KINDS = ("transfer", "price_rise")
EVENT_KEYS = (
    "k", "step", "kind", "beta", "path", "a", "b",
    "potential", "min_spend", "max_hat", "min_price",
)
BETA_KEYS = ("b1", "b2", "b3", "chosen")
E_UPPER = 2.7182818285


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_events(records: list[dict]) -> list[dict]:
    """Event records of a trace, restricted to the keys they carry today."""
    events = []
    for rec in records:
        if rec.get("kind") not in EVENT_KINDS:
            continue
        event = {key: rec.get(key) for key in EVENT_KEYS}
        if event["beta"] is not None:
            event["beta"] = {key: event["beta"].get(key) for key in BETA_KEYS}
        events.append(event)
    return events


def digests(solution: dict, records: list[dict]) -> tuple[str, str]:
    """sha256 of the canonical solution JSON and of the restricted trace JSONL."""
    sol_text = json.dumps(solution, sort_keys=True)
    trace_text = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace_events(records))
    return _sha256(sol_text), _sha256(trace_text)


def problems(values: list[list[int]], solution: dict) -> list[str]:
    """Every guarantee the solution breaks; empty when it is certified."""
    n, m = len(values), len(values[0])
    bundles = solution["bundles"]
    prices = [Fraction(p) for p in solution["prices"]]
    if len(bundles) != n or len(prices) != m:
        return [f"shape {len(bundles)}x{len(prices)} for an {n}x{m} instance"]
    owned = sorted(g for b in bundles for g in b)
    if owned != list(range(m)):
        return ["bundles do not partition the goods"]
    found = []
    for i in range(n):
        row = values[i]
        own = sum(row[g] for g in bundles[i])
        for j in range(n):
            if j != i and bundles[j]:
                other = sum(row[g] for g in bundles[j])
                if own < other - max(row[g] for g in bundles[j]):
                    found.append(f"agent {i} envies agent {j} beyond one good")
    valued = [any(values[i][g] > 0 for i in range(n)) for g in range(m)]
    if any(valued[g] and prices[g] <= 0 for g in range(m)):
        return found + ["a valued good is not priced"]
    if any(not valued[g] and prices[g] != 0 for g in range(m)):
        found.append("a worthless good is priced")
    active = [i for i in range(n) if any(values[i])]
    for i in active:
        best = max(Fraction(values[i][g]) / prices[g] for g in range(m) if valued[g])
        if any(Fraction(values[i][g]) / prices[g] != best for g in bundles[i] if valued[g]):
            found.append(f"agent {i} owns a good outside its best-ratio set")
    if active:
        spends = [sum(prices[g] for g in bundles[i]) for i in active]
        hats = [
            sum(prices[g] for g in bundles[i]) - max(prices[g] for g in bundles[i])
            if bundles[i] else Fraction(0)
            for i in active
        ]
        if min(spends) < max(hats):
            found.append("spending does not clear the drop-one price level")
    for i in range(n):
        if i not in active and any(valued[g] for g in bundles[i]):
            found.append(f"indifferent agent {i} holds a valued good")
    return found


def iteration_ceiling(k: int, m: int) -> float:
    """The proven per-call ceiling (k-1)*((m+k)/k*e)^k on rebalancing iterations."""
    return (k - 1) * ((m + k) / k * E_UPPER) ** k


def counters(values: list[list[int]], solution: dict, records: list[dict]) -> dict:
    """Deterministic work counts of one solve, from its outputs alone."""
    events = trace_events(records)
    core_goods = sum(1 for g in range(len(values[0])) if any(row[g] for row in values))
    steps: dict[int, int] = {}
    for ev in events:
        steps[ev["k"]] = max(steps.get(ev["k"], 0), ev["step"])
    bits = 0
    for p in solution["prices"]:
        q = Fraction(p)
        bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return {
        "iterations": len(events),
        "transfers": sum(1 for ev in events if ev["kind"] == "transfer"),
        "price_rises": sum(1 for ev in events if ev["kind"] == "price_rise"),
        "bound_ratio_max": max(
            (s / iteration_ceiling(k, core_goods) for k, s in steps.items() if k > 1),
            default=0.0,
        ),
        "price_bits_max": bits,
    }


def merge_counters(total: dict, one: dict) -> None:
    """Fold one solve's counters into a running total (sums and maxima)."""
    for key in ("iterations", "transfers", "price_rises"):
        total[key] = total.get(key, 0) + one[key]
    for key in ("bound_ratio_max", "price_bits_max"):
        total[key] = max(total.get(key, 0), one[key])
