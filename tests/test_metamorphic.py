"""Input transformations whose effect on `solve` or `verify` is known in advance."""

import itertools
import json
import random
from fractions import Fraction

from fairmarket import (
    Allocation,
    Instance,
    Solution,
    audit_trace,
    check_mbb_consistency,
    is_pef1,
    solve,
    verify,
)


def random_instance(rng: random.Random, n: int, m: int) -> Instance:
    rows = [[rng.randint(0, rng.choice([3, 9, 100])) for _ in range(m)] for _ in range(n)]
    for i, g in enumerate(rng.sample(range(m), n)):
        rows[i][g] = max(1, rows[i][g])
    return Instance.from_values(rows)


def output_bytes(inst: Instance, **kwargs) -> tuple[str, str]:
    """The solution JSON and the trace JSONL that `fairmarket solve` writes."""
    solution, trace = solve(inst, **kwargs)
    lines = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
    return json.dumps(solution.to_json_dict(), sort_keys=True), lines


def test_scaling_one_valuation_row_changes_nothing():
    # Introduction prices and all three rise rates are ratios within one agent's row.
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(2, 5)
        inst = random_instance(rng, n, rng.randint(n, 3 * n))
        rows = list(inst.valuations)
        agent = rng.randrange(n)
        factor = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        rows[agent] = tuple(v * factor for v in rows[agent])
        assert output_bytes(Instance(tuple(rows))) == output_bytes(inst)


def test_every_insertion_order_is_certified():
    rng = random.Random(43)
    for n in (2, 3, 4):
        for _ in range(3):
            inst = random_instance(rng, n, rng.randint(n, n + 3))
            for order in itertools.permutations(range(n)):
                solution, trace = solve(inst, order=order)
                assert verify(inst, solution).ok
                assert audit_trace(trace.events, inst.m) == []


def pad(rng: random.Random, inst: Instance, sol: Solution) -> tuple[Instance, Solution]:
    """Add what normalization strips: a good nobody values, held by a random agent
    at a random price, and an agent who values nothing, with an empty bundle."""
    rows = [row + (Fraction(0),) for row in inst.valuations]
    bundles = [set(b) for b in sol.allocation]
    bundles[rng.randrange(inst.n)].add(inst.m)
    at = rng.randrange(inst.n + 1)
    rows.insert(at, (Fraction(0),) * (inst.m + 1))
    bundles.insert(at, set())
    prices = sol.prices + (Fraction(rng.randint(0, 4)),)
    return Instance(tuple(rows)), Solution(Allocation.from_lists(bundles), prices)


def test_padding_what_normalization_strips_leaves_the_certificate_alone():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(1, 4)
        inst = random_instance(rng, n, rng.randint(n, 2 * n + 2))
        solved, _ = solve(inst)
        bundles = [[] for _ in range(n)]
        for g in range(inst.m):
            bundles[rng.randrange(n)].append(g)
        prices = tuple(Fraction(rng.randint(0, 4)) for _ in range(inst.m))  # zero prices included
        for sol in (solved, Solution(Allocation.from_lists(bundles), prices)):
            before, after = verify(inst, sol, brute_cap=0), verify(*pad(rng, inst, sol), brute_cap=0)
            for check in ("ef1", "pef1", "mbb_consistent"):
                assert getattr(after, check) == getattr(before, check)
        padded_inst, padded = pad(rng, inst, solved)
        assert is_pef1(padded_inst, padded) and check_mbb_consistency(padded_inst, padded)
