import itertools
import json
import math
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, astuple, fields, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairmarket import (
    Allocation,
    HallViolationError,
    Instance,
    InvalidInputError,
    Solution,
    TraceEvent,
    audit_trace,
    brute_force_mnw,
    brute_force_po,
    check_ef1,
    check_mbb_consistency,
    nash_product,
    solve,
    verify,
)
from fairmarket import oracles
from fairmarket.cli import generate_instance
from fairmarket.oracles import NSW_FLOOR

from reference import (
    alphas,
    bang_per_buck,
    bundle_value,
    check_ef1_literal,
    mbb_certificate_literal,
    pef1_literal,
    trace_record_literal,
)

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


def test_integer_rows_match_fraction_sums_on_rational_values():
    """`check_ef1` and `nash_product` read each row over its own denominator;
    literal `Fraction` sums must give the same answers."""
    rng = random.Random(41)
    denominators = [1, 2, 3, 4, 7, 9, 10**12 + 39]
    verdicts = set()
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        inst = Instance.from_values(
            [[F(rng.randint(0, 9), rng.choice(denominators)) for _ in range(m)] for _ in range(n)]
        )
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        alloc = Allocation.from_lists(bundles)
        product = F(1)
        for i in range(n):
            product *= bundle_value(inst, i, alloc[i])
        assert nash_product(inst, alloc) == product
        verdict = check_ef1(inst, alloc)
        assert verdict == check_ef1_literal(inst, alloc)
        verdicts.add(verdict)
    assert verdicts == {True, False}


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


def test_certificate_requires_positive_prices_on_valued_goods(demo_instance):
    # Good 4, worth 4 to agent 2, at price 0 fails the certificate.
    sol = Solution(
        Allocation.from_lists([[0, 1], [2, 3], [4]]),
        (F(6), F(5), F(7), F(3), F(0)),
    )
    assert not check_mbb_consistency(demo_instance, sol)
    # A good nobody values, at price 0 in agent 0's bundle, leaves the demo state certified.
    padded = Instance(tuple(row + (F(0),) for row in demo_instance.valuations))
    sol = Solution(
        Allocation.from_lists([[0, 1, 5], [2, 3], [4]]),
        (F(6), F(5), F(7), F(3), F(4), F(0)),
    )
    assert check_mbb_consistency(padded, sol)


def test_certificate_reads_no_engine_kernel(monkeypatch):
    """A ratio kernel of the engine's that drops value denominators does not reach `verify`."""
    from fairmarket import market

    ratios = market.best_ratios

    def drops_denominators(rows, agents, goods, nums):  # prices each good at nums[g] alone
        return ratios([[(v, 1) for v, _ in row] for row in rows], agents, goods, nums)

    monkeypatch.setattr(market, "best_ratios", drops_denominators)
    # Agent 0 gets 1/2 per unit of price from good 0 and 1 from good 1: it holds the wrong one.
    inst = Instance.from_values([["1/2", 1], [1, 1]])
    sol = Solution(Allocation.from_lists([[0], [1]]), (F(1), F(1)))
    assert verify(inst, sol).to_json_dict()["mbb_consistent"] is False


def _literal_case(rng):
    """A random instance of rational values over distinct denominators, sometimes with a zero
    row or column, a random price vector that may price valued and unvalued goods at 0, and an
    allocation that is random or gives each good to an agent it is a best-ratio good of; also
    which of the zero features the case has."""
    n, m = rng.randint(1, 4), rng.randint(0, 6)
    dens = [1, 2, 3, 5, 7, 10**9 + 7]
    rows = [[F(rng.randint(0, 6), rng.choice(dens)) for _ in range(m)] for _ in range(n)]
    if m and rng.random() < 0.25:
        rows[rng.randrange(n)] = [F(0)] * m
    if m and rng.random() < 0.25:
        dead = rng.randrange(m)
        for row in rows:
            row[dead] = F(0)
    inst = Instance(tuple(map(tuple, rows)))
    prices = [F(rng.randint(1, 6), rng.choice([1, 2, 3, 4, 11])) for _ in range(m)]
    prices = [F(0) if rng.random() < 0.1 else price for price in prices]
    priced = [g for g in range(m) if prices[g]]
    best = alphas(inst, prices, goods=priced)
    by_ratio = rng.random() < 0.5
    bundles = [[] for _ in range(n)]
    for g in range(m):
        takers = [i for i in range(n) if g in priced and inst.valuations[i][g] / prices[g] == best[i]]
        bundles[rng.choice(takers) if by_ratio and takers else rng.randrange(n)].append(g)
    valued = [any(column) for column in zip(*rows)]
    features = {
        "zero row" if any(not any(row) for row in rows) else None,
        "zero column" if not all(valued) else None,
        "valued good at price 0" if any(v and not p for v, p in zip(valued, prices)) else None,
        "unvalued good at price 0" if any(not v and not p for v, p in zip(valued, prices)) else None,
    }
    return inst, Solution(Allocation.from_lists(bundles), tuple(prices)), features - {None}


def test_verify_matches_the_literal_definitions():
    rng = random.Random(53)
    verdicts: dict[str, set] = {"pef1": set(), "mbb_consistent": set(), "ef1": set()}
    seen = set()
    for _ in range(400):
        inst, sol, features = _literal_case(rng)
        seen |= features
        report = verify(inst, sol, brute_cap=0)
        expected = {
            "pef1": pef1_literal(inst, sol),
            "mbb_consistent": mbb_certificate_literal(inst, sol),
            "ef1": check_ef1_literal(inst, sol.allocation),
        }
        assert {name: getattr(report, name) for name in expected} == expected
        product = F(1)
        for i in range(inst.n):
            product *= bundle_value(inst, i, sol.allocation[i])
        assert report.nsw_product == product
        for name, verdict in expected.items():
            verdicts[name].add(verdict)
    assert all(both == {True, False} for both in verdicts.values())
    assert seen == {"zero row", "zero column", "valued good at price 0", "unvalued good at price 0"}


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


def _every_allocation(inst):
    """Every allocation, in `itertools.product` order (good 0 outermost)."""
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        yield Allocation.from_lists(
            [[g for g, i in enumerate(assignment) if i == agent] for agent in range(inst.n)]
        )


def _po_by_full_enumeration(inst, alloc) -> bool:
    values = [bundle_value(inst, i, alloc[i]) for i in range(inst.n)]
    for other_alloc in _every_allocation(inst):
        other = [bundle_value(inst, i, other_alloc[i]) for i in range(inst.n)]
        if all(o >= v for o, v in zip(other, values)) and any(
            o > v for o, v in zip(other, values)
        ):
            return False
    return True


def _random_case(rng, value):
    """A random instance with up to 4 agents (sometimes fewer goods than agents),
    sometimes an agent who values nothing or a good nobody values, and a random
    allocation of it; also the set of those features it has."""
    n = rng.randint(1, 4)
    m = rng.randint(0, 5 if n < 4 else 4)
    rows = [[value() for _ in range(m)] for _ in range(n)]
    if m and rng.random() < 0.25:
        rows[rng.randrange(n)] = [0] * m
    if m and rng.random() < 0.25:
        dead = rng.randrange(m)
        for row in rows:
            row[dead] = 0
    bundles = [[] for _ in range(n)]
    for g in range(m):
        bundles[rng.randrange(n)].append(g)
    features = {
        "n=4" if n == 4 else None,
        "m<n" if m < n else None,
        "agent values nothing" if any(not any(row) for row in rows) else None,
        "good nobody values" if any(not any(col) for col in zip(*rows)) else None,
    }
    return Instance.from_values(rows), Allocation.from_lists(bundles), features - {None}


ALL_FEATURES = {"n=4", "m<n", "agent values nothing", "good nobody values"}


def test_po_matches_plain_enumeration():
    rng = random.Random(31)
    seen = set()
    for _ in range(160):
        inst, alloc, features = _random_case(rng, lambda: rng.randint(0, 6))
        seen |= features
        assert brute_force_po(inst, alloc) == _po_by_full_enumeration(inst, alloc)
    assert seen == ALL_FEATURES


def test_brute_force_oracles_on_rational_values():
    """Each agent's values are scaled to shares of its total; plain enumeration agrees,
    and the Nash-welfare winner is the first maximizer in enumeration order."""
    rng = random.Random(37)
    denominators = [1, 2, 3, 5, 7, 11]
    seen = set()
    for _ in range(120):
        inst, alloc, features = _random_case(
            rng, lambda: F(rng.randint(0, 6), rng.choice(denominators))
        )
        seen |= features
        assert brute_force_po(inst, alloc) == _po_by_full_enumeration(inst, alloc)
        product, winner = brute_force_mnw(inst)
        products = [(nash_product(inst, other), other) for other in _every_allocation(inst)]
        best = max(p for p, _ in products)
        assert product == best
        assert winner == next(other for p, other in products if p == best)
    assert seen == ALL_FEATURES


def _priced_case(rng):
    """A random instance with up to 4 agents and 6 goods, of integer or rational values,
    sometimes with a zero row or column, and a solution of it: the engine's, a random
    allocation at random positive prices, or one that random positive prices certify (each
    good goes to an agent of largest weighted value, priced at that value); also the kind of
    solution and which of those features the case has."""
    n, m = rng.randint(1, 4), rng.randint(0, 6)
    rational = rng.random() < 0.5
    rows = [
        [F(rng.randint(0, 6), rng.choice([1, 2, 3, 5, 7]) if rational else 1) for _ in range(m)]
        for _ in range(n)
    ]
    if m and rng.random() < 0.2:
        rows[rng.randrange(n)] = [F(0)] * m
    if m and rng.random() < 0.2:
        dead = rng.randrange(m)
        for row in rows:
            row[dead] = F(0)
    inst = Instance(tuple(map(tuple, rows)))
    features = {
        "rational" if rational else "integer",
        "zero row" if any(not any(row) for row in rows) else None,
        "zero column" if any(not any(column) for column in zip(*rows)) else None,
    }
    kind = rng.choice(["engine", "random prices", "certifying prices"])
    if kind == "engine":
        try:
            return inst, solve(inst)[0], kind, features - {None}
        except HallViolationError:
            kind = "random prices"
    prices = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m)]
    weights = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)]
    bundles = [[] for _ in range(n)]
    for g in range(m):
        if kind == "random prices":
            bundles[rng.randrange(n)].append(g)
        else:  # v_i(h) / p_h <= 1 / w_i for every good h, with equality on agent i's own goods
            weighted = [w * row[g] for w, row in zip(weights, rows)]
            top = max(weighted)
            prices[g] = top or prices[g]
            bundles[rng.choice([i for i in range(n) if weighted[i] == top])].append(g)
    return inst, Solution(Allocation.from_lists(bundles), tuple(prices)), kind, features - {None}


def test_searches_weighted_by_prices_match_plain_enumeration():
    """Inside `verify` the searches scale each agent by the solution's prices when they
    certify it, and by its total otherwise; either way `verify`'s Pareto verdict and
    optimum, and the first maximizer the welfare search finds through `verify`'s view,
    are those of the standalone oracles and of plain enumeration."""
    rng = random.Random(2027)
    seen, certified = set(), 0
    for _ in range(2000):
        inst, sol, kind, features = _priced_case(rng)
        alloc = sol.allocation
        # Plain enumeration in `_every_allocation`'s order, on integers over one denominator
        # for the whole instance; every agent's value of every bundle (a bit mask) taken once.
        n, m = inst.n, inst.m
        den = math.lcm(*(v.denominator for row in inst.valuations for v in row))
        rows = [[int(v * den) for v in row] for row in inst.valuations]
        values = [
            [sum(row[g] for g in range(m) if mask >> g & 1) for mask in range(1 << m)] for row in rows
        ]
        assignments = list(itertools.product(range(n), repeat=m))
        table = []
        for assignment in assignments:
            masks = [0] * n
            for g, i in enumerate(assignment):
                masks[i] |= 1 << g
            table.append(tuple(map(list.__getitem__, values, masks)))
        mine = tuple(values[i][sum(1 << g for g in alloc[i])] for i in range(n))
        po = not any(
            all(o >= v for o, v in zip(other, mine)) and other != mine for other in table
        )
        products = [math.prod(other) for other in table]
        best = max(products)
        first = assignments[products.index(best)]
        first = Allocation.from_lists([[g for g, i in enumerate(first) if i == a] for a in range(n)])
        best = F(best, den**n)

        report = verify(inst, sol)
        token = oracles._ACTIVE.set(oracles._View(inst, alloc, sol.prices))
        try:
            through_view = brute_force_mnw(inst, None, alloc)
        finally:
            oracles._ACTIVE.reset(token)
        assert report.mbb_consistent == mbb_certificate_literal(inst, sol)
        assert report.brute_po == brute_force_po(inst, alloc) == po
        assert report.mnw_product == best
        assert through_view == brute_force_mnw(inst) == (best, first)
        certified += report.mbb_consistent
        seen |= features | {kind, f"certified={report.mbb_consistent}", f"po={po}"}
    assert seen == {
        "integer", "rational", "zero row", "zero column",
        "engine", "random prices", "certifying prices",
        "certified=True", "certified=False", "po=True", "po=False",
    }
    assert certified >= 1000


def test_a_certified_solution_settles_the_pareto_search_at_its_root(monkeypatch):
    """On a certified engine output `brute_force_po` answers before its search starts: no
    allocation's price-weighted shares sum past the solution's own.  When the certificate
    fails, it searches on shares that scale every agent to one common total, as it does
    when called alone."""
    callers = []

    def spy(shares, order):
        callers.append((sys._getframe(1).f_code.co_name, [sum(row) for row in shares if any(row)]))
        return branches(shares, order)

    branches = oracles._branches
    monkeypatch.setattr(oracles, "_branches", spy)
    for seed in range(40):
        inst = generate_instance(3, 5, 6, seed)
        sol = solve(inst)[0]
        callers.clear()
        assert verify(inst, sol).ok
        assert [name for name, _ in callers] == ["brute_force_mnw"]

    # Agent 0 holds good 0 at the price of good 1, which it values twice as much.
    inst = Instance.from_values([[1, 2, 2], [2, 1, 1]])
    sol = Solution(Allocation.from_lists([[0, 2], [1]]), (F(1), F(1), F(1)))
    callers.clear()
    report = verify(inst, sol)
    assert (report.mbb_consistent, report.brute_po) == (False, False)
    (name, sums), *_ = callers
    assert name == "brute_force_po" and len(set(sums)) == 1


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


def ratio_ok(inst, alloc):
    """`verify`'s Nash-welfare bound for `alloc`, at unit prices."""
    return verify(inst, Solution(alloc, (F(1),) * inst.m)).ratio_ok


def test_nsw_ratio_accepts_the_maximizer(demo_instance):
    _, best = brute_force_mnw(demo_instance)
    assert ratio_ok(demo_instance, best) is True


def test_nsw_ratio_rejects_zero_product_when_positive_possible():
    inst = Instance.from_values([[1, 1], [1, 1]])
    starved = Allocation.from_lists([[], [0, 1]])
    assert ratio_ok(inst, starved) is False


# Bundles that are not a partition of the two goods of `[[1, 1], [1, 1]]` among its
# two agents: a good held twice, a good that does not exist, a good held by nobody,
# a bundle too many and a bundle too few.
NOT_PARTITIONS = [[[0, 1], [0, 1]], [[0], [1, 2]], [[0], []], [[0], [1], []], [[0, 1]]]


@pytest.mark.parametrize("bundles", NOT_PARTITIONS)
def test_nsw_ratio_rejects_an_allocation_that_is_not_a_partition(bundles):
    # The exact search starts from the allocation's product, so it must be a real one.
    inst = Instance.from_values([[1, 1], [1, 1]])
    with pytest.raises(InvalidInputError):
        ratio_ok(inst, Allocation.from_lists(bundles))


@pytest.mark.parametrize("bundles", NOT_PARTITIONS)
@pytest.mark.parametrize(
    "oracle",
    [
        check_ef1,
        brute_force_po,
        nash_product,
        pytest.param(lambda inst, alloc: brute_force_mnw(inst, None, alloc), id="brute_force_mnw"),
    ],
)
def test_public_oracles_reject_an_allocation_that_is_not_a_partition(oracle, bundles):
    # As `verify` does (the test above): each answers only on a partition, never
    # with an IndexError or a verdict on goods held twice.  The welfare search
    # takes the allocation as its incumbent and starts from its product.
    inst = Instance.from_values([[1, 1], [1, 1]])
    with pytest.raises(InvalidInputError):
        oracle(inst, Allocation.from_lists(bundles))


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
        assert ratio_ok(inst, sol.allocation) is True


def _tie_heavy_case(rng):
    """A small instance built for ties (all-equal rows, duplicate rows), with a zero
    row, with more agents than goods, or plain random; and which of these it is."""
    kind = rng.choice(["equal rows", "duplicate rows", "zero row", "n>m", "random"])
    n = rng.randint(2, 4)
    m = rng.randint(1, n - 1) if kind == "n>m" else rng.randint(n, 5 if n < 4 else 4)
    rows = [[rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
    if kind == "equal rows":
        rows = [[rng.randint(1, 3)] * m for _ in range(n)]
    elif kind == "duplicate rows":
        rows[1:] = [list(rows[0]) if rng.random() < 0.7 else row for row in rows[1:]]
    elif kind == "zero row":
        rows[rng.randrange(n)] = [0] * m
    return Instance.from_values(rows), kind


def test_seeded_welfare_search_matches_the_unseeded_one():
    """Seeded with any allocation, the search returns the public oracle's optimum and
    first maximizer, and `verify` reports what the unseeded optimum gives."""
    rng = random.Random(73)
    seen = set()
    for _ in range(80):
        inst, kind = _tie_heavy_case(rng)
        seen.add(kind)
        expected = brute_force_mnw(inst)
        products = [(nash_product(inst, alloc), alloc) for alloc in _every_allocation(inst)]
        maximizers = [alloc for product, alloc in products if product == expected[0]]
        if expected[0] > 0 and len(maximizers) > 1:
            seen.add("tied positive optimum")
        others = rng.sample(products, min(3, len(products)))
        seeds = maximizers[-2:] + [alloc for _, alloc in others]
        try:
            seeds.append(solve(inst)[0].allocation)
            seen.add("solver allocation")
        except HallViolationError:
            pass
        for alloc in seeds:
            assert brute_force_mnw(inst, None, alloc) == expected
            report = verify(inst, Solution(alloc, (F(1),) * inst.m))
            within = nash_product(inst, alloc) >= NSW_FLOOR**inst.n * expected[0]
            assert (report.mnw_product, report.ratio_ok) == (expected[0], within)
    kinds = {"equal rows", "duplicate rows", "zero row", "n>m", "random"}
    assert seen == kinds | {"tied positive optimum", "solver allocation"}


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
        best = alphas(inst, prices)
        bundles = [[] for _ in range(n)]
        for g in range(m):
            takers = [
                i
                for i in range(n)
                if bang_per_buck(inst.valuations[i][g], prices[g]) == best[i]
            ]
            bundles[rng.choice(takers) if takers else rng.randrange(n)].append(g)
        sol = Solution(Allocation.from_lists(bundles), prices)
        report = verify(inst, sol, brute_cap=0)
        if report.pef1 and report.mbb_consistent:
            witnessed += 1
            assert report.ef1
    assert witnessed > 0


# ---------------------------------------------------------------------------
# trace audit


def parsed(records):
    """Trace events read back from their JSON records."""
    return [TraceEvent.from_json_dict(record) for record in records]


def round_trip(event: TraceEvent) -> TraceEvent:
    """`event` written to JSON text and parsed back."""
    return TraceEvent.from_json_dict(json.loads(json.dumps(event.to_json_dict())))


def test_audit_accepts_clean_trace(demo_instance):
    _, trace = solve(demo_instance)
    assert audit_trace(trace.events, demo_instance.m) == []


def test_audit_round_trips_through_json(demo_instance):
    _, trace = solve(demo_instance)
    lines = [json.loads(json.dumps(ev)) for ev in trace.iter_json_dicts()]
    assert parsed(lines) == trace.events
    assert audit_trace(parsed(lines), demo_instance.m) == []
    # The audit takes parsed events only.
    with pytest.raises(InvalidInputError, match="TraceEvent.from_json_dict"):
        audit_trace(lines, demo_instance.m)


def test_audit_flags_tampered_events(demo_instance):
    _, trace = solve(demo_instance)
    events = [ev.to_json_dict() for ev in trace.events]
    bad = [dict(ev) for ev in events]
    bad[0]["beta"] = dict(bad[0]["beta"], b3="1", chosen="b3")
    assert audit_trace(parsed(bad), demo_instance.m)

    worse = [dict(ev) for ev in events]
    worse[0]["min_price"] = "0"
    assert audit_trace(parsed(worse), demo_instance.m)

    clock = [dict(ev) for ev in events]
    clock[-1]["step"] = 5
    assert audit_trace(parsed(clock), demo_instance.m)


# One tamper per event field, each breaking an invariant `audit_trace` documents,
# and the finding it must raise; a key naming a field and a kind gives that kind the
# field of the other.  The trace of `generate_instance(3, 8, 9, 0)` has two calls
# alternating transfers and rises: event 1 is a transfer, 2 a price rise and 3 the
# transfer right after it.
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
    "beta on a transfer": (lambda evs: evs[1].update(beta=evs[2]["beta"]), "transfer with rates"),
    # the chosen rate (b1) of the rise set to 1, still the smallest
    "beta rate": (
        lambda evs: evs[2].update(beta=dict(evs[2]["beta"], b1="1")),
        "candidate rate b1 not above 1",
    ),
    "path": (lambda evs: evs[1].update(path=evs[1]["path"][:-1]), "malformed transfer path"),
    "path on a rise": (
        lambda evs: evs[2].update({key: evs[1][key] for key in ("path", "a", "b")}),
        "price rise with a path or cut indices",
    ),
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
    assert {name.split()[0] for name in TAMPERS} == set(events[0])  # every field has its tamper
    assert [ev["kind"] for ev in events[1:4]] == ["transfer", "price_rise", "transfer"]
    assert audit_trace(parsed(events), inst.m) == []
    tamper, finding = TAMPERS[field]
    tamper(events)
    assert any(finding in problem for problem in audit_trace(parsed(events), inst.m))


def test_audit_reports_a_rise_rate_of_one_once():
    inst = generate_instance(3, 8, 9, 0)
    _, trace = solve(inst)
    events = list(trace.iter_json_dicts())
    assert events[2]["beta"]["chosen"] == "b1"
    TAMPERS["beta rate"][0](events)
    assert audit_trace(parsed(events), inst.m) == ["call k=2 step 3: candidate rate b1 not above 1"]


MISSING = object()  # the field is left out of the record


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", "2"),
        ("step", "2"),
        ("a", 1.0),
        ("b", "0"),
        ("b", True),
        ("potential", ["1", 2]),
        ("potential", 7),
        ("min_price", "abc"),
        ("beta", {"b1": None}),
        ("path", 5),
        pytest.param("potential", MISSING, id="potential-missing"),
    ],
)
def test_audit_reports_a_non_integer_counter_as_one_malformed_event(field, value):
    # A malformed record is rejected when it is parsed, so the audit never sees it.
    inst = generate_instance(3, 8, 9, 0)
    _, trace = solve(inst)
    records = list(trace.iter_json_dicts())
    if value is MISSING:
        del records[1][field]
    else:
        records[1][field] = value  # a transfer, so `a`, `b` and `path` are set
    parsed(records[:1] + records[2:])  # the other records are well formed
    with pytest.raises(InvalidInputError):
        TraceEvent.from_json_dict(records[1])
    with pytest.raises(InvalidInputError, match="TraceEvent.from_json_dict"):
        audit_trace(records, inst.m)


@pytest.mark.parametrize("key", ["min_spend", "max_hat", "min_price", "b1", "b2", "b3"])
def test_a_price_or_rate_that_does_not_parse_is_named(key):
    inst = generate_instance(3, 8, 9, 0)
    _, trace = solve(inst)
    record = next(r for r in trace.iter_json_dicts() if r["beta"] is not None)
    if key in record:
        record[key] = "abc"
    else:
        record["beta"][key] = "abc"
    with pytest.raises(InvalidInputError, match=f"'{key}': expected an int"):
        TraceEvent.from_json_dict(record)


@pytest.mark.parametrize(
    "bound, expected",
    [(F(4), []), (F(3), ["call k=2: iteration count exceeds ceiling", "call k=3: iteration count exceeds ceiling"])],
)
def test_audit_checks_each_finished_call_against_its_ceiling(monkeypatch, bound, expected):
    # Both rebalancing calls of this trace take four steps; the last call is checked too.
    from fairmarket import oracles

    inst = generate_instance(3, 8, 9, 0)
    _, trace = solve(inst)
    assert Counter(e.k for e in trace.events) == {2: 4, 3: 4}
    monkeypatch.setattr(oracles, "iteration_bound", lambda agent_count, total_goods: bound)
    assert audit_trace(trace.events, inst.m) == expected
    assert audit_trace(parsed(trace.iter_json_dicts()), inst.m) == expected


def test_every_trace_event_parses_back_equal_to_itself():
    # Seeded solves whose events cover transfers and rises at each of the three rates.
    seen = set()
    for seed in range(5):
        _, trace = solve(generate_instance(4, 10, 9, seed))
        for ev in trace.events:
            back = round_trip(ev)
            assert back == ev and hash(back) == hash(ev)
            # Field by field too: the event holds nothing its JSON record does not.
            assert astuple(back) == astuple(ev)
            seen.add(ev.chosen or ev.kind)
    assert seen == {"transfer", "b1", "b2", "b3"}


def test_trace_events_are_frozen():
    ev = solve(generate_instance(4, 10, 9, 0))[1].events[0]
    for field in fields(TraceEvent):
        with pytest.raises(FrozenInstanceError):
            setattr(ev, field.name, None)


# Positive integers of up to about 4000 digits: small primes times one of a few
# factors, so numerators often share factors with the denominator.
shared = st.builds(
    lambda twos, threes, factor: 2**twos * 3**threes * factor,
    st.integers(0, 30),
    st.integers(0, 20),
    st.sampled_from([1, 5, 7, 10**3999 + 1, 3**8000]),
)


def integer_event(spend: int, hat: int, price: int, den: int, rate: tuple[int, int]) -> TraceEvent:
    """A price-rise event with the given integers and rate b2."""
    rates = (None, rate, None)
    return TraceEvent(2, 1, "price_rise", rates, "b2", None, None, None, (0, 2, 1, 1), spend, hat, price, den)


@given(
    spend=st.one_of(st.just(0), shared),
    hat=shared,
    price=shared,
    den=shared,
    rate=st.tuples(shared, shared),
    scale=st.one_of(st.integers(2, 10**6), shared),
)
@example(spend=0, hat=3, price=1, den=1, rate=(5, 4), scale=2)
@example(spend=6, hat=9, price=12, den=3, rate=(6, 4), scale=1)
@example(spend=2**13288, hat=3**8000, price=7, den=6**4000, rate=(10**3999 + 1, 3), scale=10**3999 + 1)
def test_trace_events_store_reduced_integers(spend, hat, price, den, rate, scale):
    event = integer_event(spend, hat, price, den, rate)
    # The event keeps each value in lowest terms; the writer gives it the bytes of `str(Fraction)`.
    record = event.to_json_dict()
    levels = {"min_spend": spend, "max_hat": hat, "min_price": price}
    assert {key: record[key] for key in levels} == {key: str(F(num, den)) for key, num in levels.items()}
    stored = (event.spend, event.hat, event.price)
    assert gcd(*stored, event.den) == 1
    assert [F(num, event.den) for num in stored] == [F(num, den) for num in levels.values()]
    assert record["beta"]["b2"] == str(F(*rate)) and event.rates == (None, F(*rate).as_integer_ratio(), None)
    # The same values over a multiple of the denominator make an equal event.
    scaled_rate = (rate[0] * scale, rate[1] * scale)
    scaled = integer_event(spend * scale, hat * scale, price * scale, den * scale, scaled_rate)
    assert scaled == event and hash(scaled) == hash(event)
    # So does the event parsed back from its JSON text.
    back = round_trip(event)
    assert back == event and hash(back) == hash(event)


def test_trace_records_emit_their_keys_sorted():
    # `to_json_dict` parses the line the CLI writes, so this order is the file's.
    for seed in range(5):
        _, trace = solve(generate_instance(4, 10, 9, seed))
        for ev in trace.events:
            record = ev.to_json_dict()
            for keys in (record, record["beta"] or ()):
                assert list(keys) == sorted(keys)


def test_each_trace_line_is_the_json_of_its_literal_record():
    # Engine events of every kind, then the edge cases the engine does not write.
    events = [ev for seed in range(5) for ev in solve(generate_instance(4, 10, 9, seed))[1].events]
    record = next(ev for ev in events if ev.rates is not None).to_json_dict()
    record["beta"].update(b1="0", b2="-3/2", b3="5")
    parsed = TraceEvent.from_json_dict(record)
    assert parsed.rates == ((0, 1), (-3, 2), (5, 1))
    events += [
        integer_event(0, 3, 1, 2, (7, 4)),  # a rise whose b1 and b3 are null
        parsed,
        replace(events[0], kind='a "quoted" \\ kind, café'),
    ]
    for ev in events:
        assert ev.to_json_line() == json.dumps(trace_record_literal(ev), sort_keys=True)


# Tampers applied to the typed events with `dataclasses.replace`, each breaking
# the same invariant as its entry in TAMPERS (same instance, same events).
TYPED_TAMPERS = {
    "step": lambda evs: {2: replace(evs[2], step=evs[2].step + 2)},
    "beta": lambda evs: {2: replace(evs[2], chosen="b2" if evs[2].chosen == "b1" else "b1")},
    "beta on a transfer": lambda evs: {1: replace(evs[1], rates=evs[2].rates, chosen=evs[2].chosen)},
    "path": lambda evs: {1: replace(evs[1], path=evs[1].path[:-1])},
    "path on a rise": lambda evs: {2: replace(evs[2], path=evs[1].path, a=evs[1].a, b=evs[1].b)},
    "potential": lambda evs: {2: replace(evs[2], potential=evs[1].potential)},
    "max_hat": lambda evs: {3: replace(evs[3], hat=2 * evs[3].hat)},
    "min_price": lambda evs: {2: replace(evs[2], price=0)},
}


@pytest.mark.parametrize("field", sorted(TYPED_TAMPERS))
def test_audit_flags_tampered_trace_events_like_their_dicts(field):
    inst = generate_instance(3, 8, 9, 0)
    _, trace = solve(inst)
    events = list(trace.events)
    for index, event in TYPED_TAMPERS[field](events).items():
        events[index] = event
    problems = audit_trace(events, inst.m)
    assert any(TAMPERS[field][1] in problem for problem in problems)
    # The tampered trace written to JSON and parsed back gets the same findings.
    assert problems == audit_trace([round_trip(ev) for ev in events], inst.m)


def test_audit_flags_calls_out_of_order_or_repeated():
    # The engine runs each call once, in increasing k; a trace whose calls are
    # reordered or repeated is flagged once per call whose k does not grow.
    inst = generate_instance(4, 10, 9, 3)
    _, trace = solve(inst)
    calls = {k: [ev for ev in trace.events if ev.k == k] for k in (2, 3, 4)}
    assert all(calls.values()) and len(trace.events) == sum(map(len, calls.values()))
    tampers = {
        "reversed": (calls[4] + calls[3] + calls[2], ["call k=3 after call k=4", "call k=2 after call k=3"]),
        "repeated": (trace.events + calls[2], ["call k=2 after call k=4"]),
    }
    for events, expected in tampers.values():
        assert audit_trace(events, inst.m) == expected
        assert audit_trace([round_trip(ev) for ev in events], inst.m) == expected
