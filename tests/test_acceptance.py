"""Acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line so the
run log doubles as the acceptance report.  The randomized sweeps are fully
seeded and the solver runs with its online invariant checking enabled, so
a green suite certifies both the outputs and every internal invariant.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from fairmarket import (
    Allocation,
    Instance,
    Solution,
    audit_trace,
    brute_force_mnw,
    brute_force_po,
    check_ef1,
    check_mbb_consistency,
    is_pef1,
    nash_product,
    solve,
    verify,
)
from fairmarket.cli import generate_instance
from fairmarket.engine import EngineState, find_solution
from fairmarket.oracles import NSW_FLOOR

from reference import alphas, bang_per_buck, bundle_price, check_ef1_literal, hat_price, max_violators, min_spenders

F = Fraction

DEMO_VALUES = [[6, 5, 0, 0, 0], [0, 1, 7, 3, 0], [2, 3, 6, 3, 4]]
DEMO_BUNDLES = [[0, 1], [2, 3], [4]]
DEMO_PRICES = [F(6), F(5), F(7), F(3), F(4)]

SWEEP_CELLS = [(n, m) for n in range(1, 5) for m in range(n, 9)]
SWEEP_SIZE = 1000


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} {label}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


@pytest.fixture(scope="module")
def sweep():
    """Seeded end-to-end corpus shared by criteria 3, 4 and 5."""
    started = time.perf_counter()
    runs = []
    for i in range(SWEEP_SIZE):
        n, m = SWEEP_CELLS[i % len(SWEEP_CELLS)]
        inst = generate_instance(n, m, 10, seed=i)
        solution, trace = solve(inst)  # online invariant checks enabled
        runs.append((inst, solution, trace))
    return {"runs": runs, "solve_seconds": time.perf_counter() - started}


def test_criterion_1_reference_state_quantities():
    started = time.perf_counter()
    inst = Instance.from_values(DEMO_VALUES)
    sol = Solution(Allocation.from_lists(DEMO_BUNDLES), tuple(DEMO_PRICES))
    spends = [bundle_price(sol.prices, bundle) for bundle in sol.allocation.bundles]
    hats = [hat_price(sol.prices, bundle) for bundle in sol.allocation.bundles]
    ok = (
        min_spenders(sol) == (2,)
        and max_violators(sol) == (0,)
        and spends == [F(11), F(10), F(4)]
        and hats == [F(5), F(3), F(0)]
    )
    elapsed = time.perf_counter() - started
    report(1, "reference state quantities", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_single_rise_trace_reproduction():
    inst = Instance.from_values(DEMO_VALUES)
    state = EngineState.from_solution(inst, DEMO_BUNDLES, DEMO_PRICES)
    find_solution(state)
    events = list(state.trace.events)
    final = state.to_solution()
    ok = (
        len(events) == 1
        and events[0].kind == "price_rise"
        and events[0].rates == ((5, 3), (5, 3), (5, 4))
        and events[0].chosen == "b3"
        and final.prices == (F(6), F(5), F(35, 4), F(15, 4), F(5))
        and is_pef1(inst, final)
    )
    report(2, "single price-rise reproduction", ok)


def test_criterion_3_guarantee_sweep(sweep):
    started = time.perf_counter()
    failures = 0
    for inst, solution, _ in sweep["runs"]:
        rep = verify(inst, solution, brute_cap=0)
        po = brute_force_po(inst, solution.allocation)
        if not (rep.ef1 and rep.pef1 and rep.mbb_consistent and po is True):
            failures += 1
    elapsed = sweep["solve_seconds"] + (time.perf_counter() - started)
    ok = failures == 0 and elapsed < 120.0
    report(
        3,
        "guarantee sweep",
        ok,
        f"{SWEEP_SIZE} instances, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_4_nash_welfare_ratio(sweep):
    checked = 0
    failures = 0
    for inst, solution, _ in sweep["runs"]:
        if inst.n > 3 or inst.m > 7:
            continue
        optimum, _ = brute_force_mnw(inst)
        checked += 1
        if nash_product(inst, solution.allocation) < NSW_FLOOR**inst.n * optimum:
            failures += 1
    ok = failures == 0 and checked > 0
    report(4, "welfare approximation", ok, f"{checked} instances, {failures} failures")


def test_criterion_5_invariant_audit(sweep):
    # State-level invariants (ratio containment, fairness-except-newest,
    # newest agent as sole minimum spender, positive non-decreasing prices)
    # were enforced online while the sweep solved; this pass re-audits the
    # recorded events: rise rates in (1, inf), strict potential growth, a
    # non-increasing violation level, and iteration counts within ceiling.
    violations: list[str] = []
    for inst, _, trace in sweep["runs"]:
        violations.extend(audit_trace(trace.events, inst.m))
    events = sum(len(t.events) for _, _, t in sweep["runs"])
    report(5, "invariant audit", not violations, f"{events} events, {len(violations)} violations")


def test_criterion_6_oracle_self_consistency():
    rng = random.Random(2024)
    pairs = 10_000
    premise_hits = 0
    implication_breaks = 0
    twin_mismatches = 0
    for trial in range(pairs):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        inst = Instance.from_values(
            [[rng.randint(0, 10) for _ in range(m)] for _ in range(n)]
        )
        prices = tuple(F(rng.randint(1, 12)) for _ in range(m))
        bundles: list[list[int]] = [[] for _ in range(n)]
        if trial % 2 == 0:
            for g in range(m):
                bundles[rng.randrange(n)].append(g)
        else:
            # steer half the pairs onto ratio-respecting allocations so the
            # implication's premise is exercised, not just vacuous
            best = alphas(inst, prices)
            for g in range(m):
                takers = [
                    i
                    for i in range(n)
                    if bang_per_buck(inst.valuations[i][g], prices[g]) == best[i]
                ]
                bundles[rng.choice(takers) if takers else rng.randrange(n)].append(g)
        sol = Solution(Allocation.from_lists(bundles), prices)
        ef1 = check_ef1(inst, sol.allocation)
        if ef1 != check_ef1_literal(inst, sol.allocation):
            twin_mismatches += 1
        if is_pef1(inst, sol) and check_mbb_consistency(inst, sol):
            premise_hits += 1
            if not ef1:
                implication_breaks += 1
    ok = implication_breaks == 0 and twin_mismatches == 0 and premise_hits > 0
    report(
        6,
        "oracle self-consistency",
        ok,
        f"{pairs} pairs, {premise_hits} with certificate, "
        f"{implication_breaks} implication breaks, {twin_mismatches} twin mismatches",
    )


def test_criterion_7_fixed_agents_scaling():
    rows = []
    ok = True
    for m in (25, 50, 100):
        inst = generate_instance(3, m, 1000, seed=4000 + m)
        started = time.perf_counter()
        solution, trace = solve(inst)
        elapsed = time.perf_counter() - started
        clean = not audit_trace(trace.events, inst.m)
        fair = is_pef1(inst, solution)
        steps = Counter(e.k for e in trace.events)
        rows.append(
            f"m={m}: {elapsed:.2f}s iterations={[steps[k] for k in range(1, inst.n + 1)]}"
        )
        ok = ok and elapsed < 10.0 and clean and fair
    report(7, "fixed-agent scaling", ok, "; ".join(rows))
