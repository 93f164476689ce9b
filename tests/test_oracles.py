import itertools
import random
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
    check_nsw_ratio,
    nash_product,
    solve,
    verify,
)
from fairmarket.cli import generate_instance
from fairmarket.oracles import NSW_FLOOR, check_ef1_literal

F = Fraction


# ---------------------------------------------------------------------------
# EF1


def test_ef1_on_demo_allocation(demo_instance):
    alloc = Allocation.from_lists([[0, 1], [2, 3], [4]])
    assert check_ef1(demo_instance, alloc)
    assert check_ef1_literal(demo_instance, alloc)


def test_ef1_single_occupied_singleton():
    inst = Instance.from_values([[1], [1]])
    # removing the lone good from the occupied bundle kills the envy
    assert check_ef1(inst, Allocation.from_lists([[], [0]]))
    assert check_ef1_literal(inst, Allocation.from_lists([[], [0]]))


def test_ef1_fails_on_two_good_monopoly():
    inst = Instance.from_values([[1, 1], [1, 1]])
    alloc = Allocation.from_lists([[], [0, 1]])
    assert not check_ef1(inst, alloc)
    assert not check_ef1_literal(inst, alloc)


def test_ef1_twins_agree_on_random_pairs():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(0, 6)
        inst = Instance.from_values(
            [[rng.randint(0, 10) for _ in range(m)] for _ in range(n)]
        )
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        alloc = Allocation.from_lists(bundles)
        assert check_ef1(inst, alloc) == check_ef1_literal(inst, alloc)


# ---------------------------------------------------------------------------
# ratio certificate


def test_certificate_on_demo_state(demo_instance, demo_state_solution):
    assert check_mbb_consistency(demo_instance, demo_state_solution)


def test_certificate_fails_off_ratio_bundle(demo_instance, demo_state_solution):
    moved = Solution(
        Allocation.from_lists([[1, 4], [2, 3], [0]]),  # good 0 not best for agent 2
        demo_state_solution.prices,
    )
    assert not check_mbb_consistency(demo_instance, moved)


def test_certificate_single_agent_proportional_prices():
    inst = Instance.from_values([[4, 2]])
    sol = Solution(Allocation.from_lists([[0, 1]]), (F(2), F(1)))
    assert check_mbb_consistency(inst, sol)


def test_certificate_requires_positive_prices(demo_instance):
    from fairmarket import InvalidInputError

    sol = Solution(
        Allocation.from_lists([[0, 1], [2, 3], [4]]),
        (F(6), F(5), F(7), F(3), F(0)),
    )
    with pytest.raises(InvalidInputError):
        check_mbb_consistency(demo_instance, sol)


def test_certificate_validates_its_solution():
    from fairmarket import InvalidInputError

    # Good 2, worth 5 to both agents, is neither allocated nor priced.
    inst = Instance.from_values([[1, 1, 5], [1, 1, 5]])
    sol = Solution(Allocation.from_lists([[0], [1]]), (F(1), F(1)))
    with pytest.raises(InvalidInputError, match="not allocated"):
        check_mbb_consistency(inst, sol)


# ---------------------------------------------------------------------------
# brute force Pareto


def test_po_single_agent():
    inst = Instance.from_values([[2, 3]])
    assert brute_force_po(inst, Allocation.from_lists([[0, 1]])) is True


def test_po_detects_crossed_allocation():
    inst = Instance.from_values([[1, 0], [0, 1]])
    crossed = Allocation.from_lists([[1], [0]])
    assert brute_force_po(inst, crossed) is False
    straight = Allocation.from_lists([[0], [1]])
    assert brute_force_po(inst, straight) is True


def test_po_on_demo_solver_output(demo_instance):
    sol, _ = solve(demo_instance)
    assert brute_force_po(demo_instance, sol.allocation) is True


def test_po_cap_skip():
    inst = Instance.from_values([[1, 1], [1, 1]])
    assert brute_force_po(inst, Allocation.from_lists([[0], [1]]), cap=0) is None


def _po_by_full_enumeration(inst, alloc) -> bool:
    values = [inst.value_of(i, alloc[i]) for i in range(inst.n)]
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        other = [F(0)] * inst.n
        for g, i in enumerate(assignment):
            other[i] += inst.valuations[i][g]
        if all(o >= v for o, v in zip(other, values)) and any(
            o > v for o, v in zip(other, values)
        ):
            return False
    return True


def test_po_matches_plain_enumeration():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        inst = Instance.from_values(
            [[rng.randint(0, 6) for _ in range(m)] for _ in range(n)]
        )
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        alloc = Allocation.from_lists(bundles)
        assert brute_force_po(inst, alloc) == _po_by_full_enumeration(inst, alloc)


def test_brute_force_oracles_on_rational_values():
    """Each agent's values are scaled by their own denominators; plain enumeration agrees."""
    rng = random.Random(37)
    denominators = [1, 2, 3, 5, 7, 11]
    for _ in range(80):
        n = rng.randint(2, 3)
        m = rng.randint(1, 4)
        inst = Instance.from_values(
            [[F(rng.randint(0, 6), rng.choice(denominators)) for _ in range(m)] for _ in range(n)]
        )
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        alloc = Allocation.from_lists(bundles)
        assert brute_force_po(inst, alloc) == _po_by_full_enumeration(inst, alloc)
        product, winner = brute_force_mnw(inst)
        assert product == nash_product(inst, winner)
        every = (
            Allocation.from_lists([[g for g in range(m) if a[g] == i] for i in range(n)])
            for a in itertools.product(range(n), repeat=m)
        )
        assert product == max(nash_product(inst, other) for other in every)


# ---------------------------------------------------------------------------
# brute force welfare


def test_mnw_single_agent():
    inst = Instance.from_values([[2, 3, 1]])
    product, alloc = brute_force_mnw(inst)
    assert product == 6
    assert alloc[0] == frozenset({0, 1, 2})


def test_mnw_orthogonal_interests():
    inst = Instance.from_values([[1, 0], [0, 1]])
    product, alloc = brute_force_mnw(inst)
    assert product == 1
    assert alloc.as_sorted_lists() == [[0], [1]]


def test_mnw_on_demo_instance(demo_instance):
    product, alloc = brute_force_mnw(demo_instance)
    assert product == 539  # frozen from the exhaustive 3^5 enumeration
    assert nash_product(demo_instance, alloc) == product


def test_mnw_cap_skip(demo_instance):
    assert brute_force_mnw(demo_instance, cap=10) is None


def test_mnw_maximizer_is_ef1_when_positive():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 5)
        inst = Instance.from_values(
            [[rng.randint(0, 7) for _ in range(m)] for _ in range(n)]
        )
        product, alloc = brute_force_mnw(inst)
        if product > 0:
            assert check_ef1(inst, alloc)


# ---------------------------------------------------------------------------
# welfare ratio


def test_nsw_ratio_accepts_the_maximizer(demo_instance):
    _, best = brute_force_mnw(demo_instance)
    assert check_nsw_ratio(demo_instance, best) is True


def test_nsw_ratio_rejects_zero_product_when_positive_possible():
    inst = Instance.from_values([[1, 1], [1, 1]])
    starved = Allocation.from_lists([[], [0, 1]])
    assert check_nsw_ratio(inst, starved) is False


def test_nsw_ratio_on_solver_outputs():
    rng = random.Random(58)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(n, 7)
        rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        for i, g in enumerate(rng.sample(range(m), n)):
            rows[i][g] = max(1, rows[i][g])
        inst = Instance.from_values(rows)
        sol, _ = solve(inst)
        assert check_nsw_ratio(inst, sol.allocation) is True


def test_nsw_floor_is_strictly_below_the_analytic_constant():
    # exp(-1/e) = 0.6922006275553464...; the rational floor must sit below it
    assert NSW_FLOOR == F(3461, 5000)
    assert float(NSW_FLOOR) < 0.6922006275553464


# ---------------------------------------------------------------------------
# aggregate report


def test_verify_demo_solver_output(demo_instance):
    sol, _ = solve(demo_instance)
    report = verify(demo_instance, sol)
    assert report.ok
    assert report.to_json_dict()["brute_po"] is True
    assert report.mnw_product == 539


def test_verify_unfair_hand_solution(demo_instance, demo_state_solution):
    report = verify(demo_instance, demo_state_solution)
    assert report.pef1 is False
    assert report.ef1 is True  # value-level fairness can still hold
    assert not report.ok


def test_verify_skips_when_capped(demo_instance):
    sol, _ = solve(demo_instance)
    report = verify(demo_instance, sol, brute_cap=0)
    assert report.brute_po is None and report.ratio_ok is None
    assert report.ok  # skips never fail the report
    assert report.to_json_dict()["brute_po"] == "skipped"


def test_certificate_implies_ef1_on_random_pairs():
    # the aggregate report enforces the implication internally: build many
    # certificate-holding solutions and watch EF1 come out true every time
    rng = random.Random(77)
    witnessed = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        m = rng.randint(1, 6)
        inst = Instance.from_values(
            [[rng.randint(1, 10) for _ in range(m)] for _ in range(n)]
        )
        prices = tuple(F(rng.randint(1, 9)) for _ in range(m))
        from fairmarket.market import compute_alphas, bang_per_buck

        alphas = compute_alphas(inst, prices)
        bundles = [[] for _ in range(n)]
        for g in range(m):
            takers = [
                i
                for i in range(n)
                if bang_per_buck(inst.valuations[i][g], prices[g]) == alphas[i]
            ]
            bundles[rng.choice(takers) if takers else rng.randrange(n)].append(g)
        sol = Solution(Allocation.from_lists(bundles), prices)
        report = verify(inst, sol, nsw=False, brute_cap=0)
        if report.pef1 and report.mbb_consistent:
            witnessed += 1
            assert report.ef1
    assert witnessed > 0


# ---------------------------------------------------------------------------
# trace audit


def test_audit_accepts_clean_trace(demo_instance):
    _, trace = solve(demo_instance)
    assert audit_trace(trace.events, demo_instance.m) == []


def test_audit_round_trips_through_json(demo_instance):
    import json

    _, trace = solve(demo_instance)
    lines = [json.loads(json.dumps(ev)) for ev in trace.iter_json_dicts()]
    assert audit_trace(lines, demo_instance.m) == []


def test_audit_flags_tampered_events(demo_instance):
    _, trace = solve(demo_instance)
    events = [ev.to_json_dict() for ev in trace.events]
    bad = [dict(ev) for ev in events]
    bad[0]["beta"] = dict(bad[0]["beta"], b3="1", chosen="b3")
    assert audit_trace(bad, demo_instance.m)

    worse = [dict(ev) for ev in events]
    worse[0]["min_price"] = "0"
    assert audit_trace(worse, demo_instance.m)

    clock = [dict(ev) for ev in events]
    clock[-1]["step"] = 5
    assert audit_trace(clock, demo_instance.m)


# One tamper per event field, each breaking an invariant `audit_trace` documents,
# and the finding it must raise.  The trace of `generate_instance(3, 8, 9, 0)` has
# two calls alternating transfers and rises: event 1 is a transfer, 2 a price rise
# and 3 the transfer right after it.
TAMPERS = {
    "k": (lambda evs: evs[2].update(k=evs[2]["k"] + 1), "does not start at step 1"),
    "step": (lambda evs: evs[2].update(step=evs[2]["step"] + 2), "step numbering gap"),
    "kind": (lambda evs: evs[1].update(kind="price_rise"), "price rise without rates"),
    "beta": (
        lambda evs: evs[2].update(
            beta=dict(evs[2]["beta"], chosen="b2" if evs[2]["beta"]["chosen"] == "b1" else "b1")
        ),
        "chosen rate label mismatch",
    ),
    "path": (lambda evs: evs[1].update(path=evs[1]["path"][:-1]), "malformed transfer path"),
    # a release index past the path's last good
    "a": (lambda evs: evs[1].update(a=len(evs[1]["path"]) // 2 + 1), "bad release index"),
    "b": (lambda evs: evs[1].update(b=evs[1]["a"]), "bad absorb index"),
    "potential": (
        lambda evs: evs[2].update(potential=evs[1]["potential"]), "potential did not grow"
    ),
    "min_spend": (
        lambda evs: evs[2].update(min_spend=evs[2]["max_hat"]), "stepped although already fair"
    ),
    "max_hat": (
        lambda evs: evs[3].update(max_hat=str(2 * Fraction(evs[3]["max_hat"]))),
        "price rise moved the violation level",
    ),
    "min_price": (lambda evs: evs[2].update(min_price="0"), "not positive"),
}


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_audit_flags_each_tampered_field(field):
    inst = generate_instance(3, 8, 9, 0)
    _, trace = solve(inst)
    events = list(trace.iter_json_dicts())
    assert set(TAMPERS) == set(events[0])  # every field has its tamper
    assert [ev["kind"] for ev in events[1:4]] == ["transfer", "price_rise", "transfer"]
    assert audit_trace(events, inst.m) == []
    tamper, finding = TAMPERS[field]
    tamper(events)
    assert any(finding in problem for problem in audit_trace(events, inst.m))
