"""Independent checkers for every guarantee the solver claims.

Value-level envy-freeness up to one good, the price-support certificate of
fractional Pareto optimality, brute-force integral Pareto optimality,
brute-force maximum Nash welfare, the Nash-welfare approximation bound,
and an auditor for the engine's event traces.  The brute-force oracles
enumerate allocations exhaustively (with pruning) and are size-gated;
when an instance is too large they report a skip instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    Allocation,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
    _common_denominator,
    is_pef1,
    normalize_instance,
)
from .engine import TraceEvent, iteration_bound
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
    n = inst.n
    for i in range(n):
        own = inst.value_of(i, alloc[i])
        row = inst.valuations[i]
        for j in range(n):
            if i == j:
                continue
            other = inst.value_of(i, alloc[j])
            if own < other:
                best = max(row[g] for g in alloc[j])
                if own < other - best:
                    return False
    return True


def check_ef1_literal(inst: Instance, alloc: Allocation) -> bool:
    """Literal per-pair, per-good enumeration twin of `check_ef1`."""
    n = inst.n
    for i in range(n):
        own = inst.value_of(i, alloc[i])
        row = inst.valuations[i]
        for j in range(n):
            if i == j:
                continue
            other = inst.value_of(i, alloc[j])
            if own < other:
                if not any(own >= other - row[g] for g in alloc[j]):
                    return False
    return True


# ---------------------------------------------------------------------------
# price-support certificate


def check_mbb_consistency(inst: Instance, sol: Solution) -> bool:
    """True iff every owned good attains its owner's best value-per-price ratio.

    A passing solution is a machine-checkable certificate of fractional
    Pareto optimality: the prices support a market equilibrium with each
    agent's spending as its budget.  `sol` must fit `inst`, with strictly
    positive prices.
    """
    sol.validate(inst)
    if any(p <= 0 for p in sol.prices):
        raise InvalidInputError("ratio certificate needs strictly positive prices")
    bundles = sol.allocation.bundles
    graph = MbbGraph.from_state(inst, bundles, sol.prices, range(inst.n), range(inst.m))
    return all(bundle <= set(graph.mbb[i]) for i, bundle in enumerate(bundles))


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_force_po(
    inst: Instance, alloc: Allocation, cap: int | None = None
) -> bool | None:
    """Exhaustive integral Pareto check; None when the state space exceeds `cap`.

    Searches for any allocation giving every agent at least its current
    value and some agent strictly more, pruning branches that cannot catch
    up.  Necessary (not sufficient) for fractional optimality.
    """
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    n, m = inst.n, inst.m
    if n**m > cap:
        return None
    if n == 1:  # the only allocation
        return inst.value_of(0, alloc[0]) >= inst.value_of(0, range(m))
    # Each agent's values on its own integer scale: agents are compared only with themselves.
    vals = [_common_denominator(row)[0] for row in inst.valuations]
    target = [sum(vals[i][g] for g in alloc[i]) for i in range(n)]

    # Assign high-impact goods first; goods worthless to everyone need no branching.
    order = sorted(range(m), key=lambda g: (-sum(vals[i][g] for i in range(n)), g))
    choices = [
        [0] if all(vals[i][g] == 0 for i in range(n)) else list(range(n)) for g in order
    ]
    suffix = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        for j in range(m - 1, -1, -1):
            suffix[i][j] = suffix[i][j + 1] + vals[i][order[j]]

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
        if not all(current[t] + suffix[t][j + 1] >= target[t] for t in range(n)):
            continue
        if all(current[t] >= target[t] for t in range(n)) and any(
            current[t] > target[t] for t in range(n)
        ):
            return False  # remaining goods only add value
        if j + 1 < m:
            j += 1
    return True


def nash_product(inst: Instance, alloc: Allocation) -> Fraction:
    """Product of the agents' bundle values (the welfare objective, un-rooted)."""
    product = Fraction(1)
    for i in range(inst.n):
        product *= inst.value_of(i, alloc[i])
    return product


def brute_force_mnw(
    inst: Instance, cap: int | None = None
) -> tuple[Fraction, Allocation] | None:
    """Maximum value-product over all integral allocations, with one maximizer.

    Enumerates assignments in lexicographic order (good 0 outermost) and
    keeps the first maximizer; None when the state space exceeds `cap`.
    """
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    n, m = inst.n, inst.m
    if n**m > cap:
        return None
    if n == 1:  # the only allocation maximizes
        winner = Allocation((frozenset(range(m)),))
        return nash_product(inst, winner), winner
    # Each agent's values on its own integer scale: every product scales by one constant.
    vals = [_common_denominator(row)[0] for row in inst.valuations]
    suffix = [[0] * (m + 1) for _ in range(n)]
    for i in range(n):
        for g in range(m - 1, -1, -1):
            suffix[i][g] = suffix[i][g + 1] + vals[i][g]
    choices = [
        [0] if all(vals[i][g] == 0 for i in range(n)) else list(range(n))
        for g in range(m)
    ]

    # Depth-first with an explicit stack: g is the next good to assign.
    current = [0] * n
    assignment = [0] * m
    untried: list = [None] * m  # untried[g]: the agents left for good g, once entered
    best_product = -1
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
            ceiling = 1
            for i in range(n):
                ceiling *= current[i] + suffix[i][g]
            if ceiling <= best_product:
                g -= 1  # cannot strictly beat the incumbent
                continue
            agents = untried[g] = iter(choices[g])
        else:  # take good g back before trying its next agent
            current[assignment[g]] -= vals[assignment[g]][g]
        for i in agents:
            assignment[g] = i
            current[i] += vals[i][g]
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


def _nsw_bound(
    inst: Instance, product: Fraction, cap: int | None
) -> tuple[Fraction | None, bool | None]:
    """The optimal value product, and whether `product` lies within NSW_FLOOR^n of it.

    (None, None) when the brute-force optimum is size-gated away.
    """
    result = brute_force_mnw(inst, cap)
    if result is None:
        return None, None
    optimum, _ = result
    return optimum, product >= NSW_FLOOR**inst.n * optimum


def check_nsw_ratio(
    inst: Instance, alloc: Allocation, cap: int | None = None
) -> bool | None:
    """Exact-rational welfare bound: value product within NSW_FLOOR^n of optimal.

    None when the brute-force optimum is size-gated away.
    """
    return _nsw_bound(inst, nash_product(inst, alloc), cap)[1]


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


def _core_projection(inst: Instance, sol: Solution) -> tuple[Instance, Solution | None] | None:
    """Restrict a solution to the normalized core, or flag it unprojectable.

    Returns None when no agent survives normalization (nothing to certify);
    returns (core, None) when some stripped agent holds a valued good, in
    which case the solution carries no price-support certificate.
    """
    core, rec = normalize_instance(inst)
    if core is None:
        return None
    if rec.is_identity:
        return core, sol
    dropped_goods = set(rec.dropped_goods)
    for i in rec.dropped_agents:
        if any(g not in dropped_goods for g in sol.allocation[i]):
            return core, None
    good_pos = {g: ci for ci, g in enumerate(rec.kept_goods)}
    core_bundles = tuple(
        frozenset(good_pos[g] for g in sol.allocation[orig] if g not in dropped_goods)
        for orig in rec.kept_agents
    )
    prices = tuple(sol.prices[g] for g in rec.kept_goods)
    return core, Solution(Allocation(core_bundles), prices)


def verify(
    inst: Instance,
    sol: Solution,
    *,
    brute_cap: int | None = None,
    nsw: bool = True,
) -> VerificationReport:
    """Run every checker against a solution and aggregate the results.

    The price-level checks (pEF1 and the ratio certificate) are evaluated
    on the normalized core, where prices are meaningful; the value-level
    checks run on the original index space.  A report claiming the
    certificate holds while EF1 fails is impossible and raises.
    """
    sol.validate(inst)
    projection = _core_projection(inst, sol)
    if projection is None:
        pef1 = True
        mbb = True
    else:
        core, core_sol = projection
        if core_sol is None:
            pef1 = False
            mbb = False
        else:
            pef1 = is_pef1(core_sol)
            mbb = all(p > 0 for p in core_sol.prices) and check_mbb_consistency(
                core, core_sol
            )
    ef1 = check_ef1(inst, sol.allocation)
    if pef1 and mbb and not ef1:
        raise InternalInvariantError(
            "price certificate holds but EF1 fails; a checker is broken"
        )
    po = brute_force_po(inst, sol.allocation, brute_cap)
    product = nash_product(inst, sol.allocation)
    mnw_product, ratio_ok = _nsw_bound(inst, product, brute_cap) if nsw else (None, None)
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


def _event_fields(event: TraceEvent | dict) -> dict:
    if isinstance(event, TraceEvent):
        event = event.to_json_dict()
    parsed = dict(event)
    for key in ("min_spend", "max_hat", "min_price"):
        parsed[key] = Fraction(parsed[key])
    beta = parsed.get("beta")
    if beta is not None:
        parsed["beta"] = {
            name: None if beta[name] is None else Fraction(beta[name])
            for name in ("b1", "b2", "b3")
        } | {"chosen": beta["chosen"]}
    parsed["potential"] = tuple(parsed["potential"])
    return parsed


def audit_trace(events: Iterable[TraceEvent | dict], total_goods: int) -> list[str]:
    """Re-check every recorded invariant of a solve trace.

    Validates, per event: a positive price floor, an actual violation
    (minimum spending below the drop-one maximum), well-formed step data;
    per rebalancing call: contiguous step numbering, strict lexicographic
    growth of the potential vector, a non-increasing violation level that
    is exactly preserved by price rises, rise rates strictly between 1 and
    infinity that equal the smallest candidate rate, and an iteration
    count within the watchdog ceiling.  Returns human-readable violation
    strings; an empty list means the trace is clean.
    """
    problems: list[str] = []
    previous: dict | None = None
    for raw in events:
        ev = _event_fields(raw)
        tag = f"call k={ev['k']} step {ev['step']}"
        if ev["min_price"] <= 0:
            problems.append(f"{tag}: price floor {ev['min_price']} not positive")
        if ev["min_spend"] >= ev["max_hat"]:
            problems.append(f"{tag}: stepped although already fair")
        if len(ev["potential"]) != ev["k"] + 2:
            problems.append(f"{tag}: potential has wrong arity")
        if sum(ev["potential"][:-1]) > total_goods:
            problems.append(f"{tag}: potential counts more goods than exist")

        if ev["kind"] == "price_rise":
            beta = ev["beta"]
            if beta is None:
                problems.append(f"{tag}: price rise without rates")
            else:
                rates = [beta[name] for name in ("b1", "b2", "b3") if beta[name] is not None]
                if not rates:
                    problems.append(f"{tag}: all rise rates infinite")
                else:
                    chosen_value = min(rates)
                    if chosen_value <= 1:
                        problems.append(f"{tag}: rise rate {chosen_value} not above 1")
                    expected = next(
                        name
                        for name in ("b3", "b2", "b1")
                        if beta[name] is not None and beta[name] == chosen_value
                    )
                    if beta["chosen"] != expected:
                        problems.append(f"{tag}: chosen rate label mismatch")
                for name in ("b1", "b2", "b3"):
                    if beta is not None and beta[name] is not None and beta[name] <= 1:
                        problems.append(f"{tag}: candidate rate {name} not above 1")
        elif ev["kind"] == "transfer":
            path = ev["path"]
            if path is None or len(path) < 3 or len(path) % 2 == 0:
                problems.append(f"{tag}: malformed transfer path")
            if ev["a"] is None or not 1 <= ev["a"] <= len(path or ()) // 2:
                problems.append(f"{tag}: bad release index")
            elif ev["b"] is None or not 0 <= ev["b"] < ev["a"]:
                problems.append(f"{tag}: bad absorb index")
        else:
            problems.append(f"{tag}: unknown event kind {ev['kind']!r}")

        same_call = previous is not None and previous["k"] == ev["k"]
        if same_call:
            if ev["step"] != previous["step"] + 1:
                problems.append(f"{tag}: step numbering gap")
            if not previous["potential"] < ev["potential"]:
                problems.append(
                    f"{tag}: potential did not grow: "
                    f"{previous['potential']} -> {ev['potential']}"
                )
            if previous["kind"] == "price_rise" and ev["max_hat"] != previous["max_hat"]:
                problems.append(f"{tag}: price rise moved the violation level")
            if ev["max_hat"] > previous["max_hat"]:
                problems.append(f"{tag}: violation level increased")
        else:
            if ev["step"] != 1:
                problems.append(f"{tag}: call does not start at step 1")
            if previous is not None and Fraction(previous["step"]) > iteration_bound(
                previous["k"], total_goods
            ):
                problems.append(f"call k={previous['k']}: iteration count exceeds ceiling")
        previous = ev
    if previous is not None and Fraction(previous["step"]) > iteration_bound(
        previous["k"], total_goods
    ):
        problems.append(f"call k={previous['k']}: iteration count exceeds ceiling")
    return problems
