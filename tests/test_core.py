import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmarket import (
    Allocation,
    EngineState,
    Instance,
    InvalidInputError,
    NormalizationRecord,
    Solution,
    check_hall,
    denormalize,
    is_pef1,
    normalize_instance,
)
from fairmarket.core import _common_denominator, parse_rational, rational_to_json, spending_profile

import reference

F = Fraction
PRICES = tuple(F(p) for p in (6, 5, 7, 3, 4))


# ---------------------------------------------------------------------------
# rationals


def test_parse_rational_forms():
    assert parse_rational(7) == F(7)
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("12") == F(12)
    assert parse_rational(F(1, 3)) == F(1, 3)


@pytest.mark.parametrize(
    "bad",
    [True, 1.5, "3/0", "x", None, [1], "1e5000", pytest.param("1.5", id="'1.5'"), " 1 ", "0/00", "-3/0"],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(InvalidInputError):
        parse_rational(bad)


def test_rational_to_json_canonical():
    assert rational_to_json(F(6)) == 6
    assert rational_to_json(F(35, 4)) == "35/4"
    assert parse_rational(rational_to_json(F(35, 4))) == F(35, 4)


@given(
    a=st.integers(-(10**30), 10**30),
    b=st.integers(1, 10**30),
    c=st.integers(-(10**30), 10**30),
    d=st.integers(1, 10**30),
)
def test_rational_arithmetic_round_trips(a, b, c, d):
    x, y = F(a, b), F(c, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


# ---------------------------------------------------------------------------
# price aggregates


def test_bundle_price_examples():
    for goods, expected in [({0, 1}, 11), (set(), 0), ({4}, 4)]:
        assert reference.bundle_price(PRICES, goods) == expected
        assert spending_profile([goods], PRICES)[0] == [expected]


def test_hat_price_examples():
    for goods, expected in [({0, 1}, 5), (set(), 0), ({4}, 0)]:
        assert reference.hat_price(PRICES, goods) == expected
        assert spending_profile([goods], PRICES)[1] == [expected]


@pytest.mark.parametrize("goods", [{-1}, {5}, {0, 99}, {True}])
def test_price_ops_reject_bad_indices(goods):
    """Raw good indices are checked where an `Allocation` or a `Solution` is made; the kernels trust them."""
    inst = Instance.from_values([[1] * 5, [2] * 5])
    bundles = [goods, set(range(5)) - goods]
    with pytest.raises(InvalidInputError, match="good index"):
        Solution(Allocation.from_lists(bundles), PRICES)
    with pytest.raises(InvalidInputError, match="good index"):
        EngineState.from_solution(inst, bundles, PRICES)


def test_price_ops_reject_a_price_dict():
    """A price vector is a list or tuple; a dict would otherwise be read as its keys."""
    inst = Instance.from_values([[1, 2], [3, 1]])
    prices = {0: F(2), 1: F(3)}
    with pytest.raises(InvalidInputError, match="list or tuple"):
        Solution(Allocation.from_lists([[0], [1]]), prices)
    assert EngineState.from_solution(inst, [[0], [1]], tuple(prices.values())).mbb == [{1}, {0}]


def test_solution_prices_are_kept_as_a_tuple():
    """A price list and the equal tuple give equal, hashable solutions."""
    alloc = Allocation.from_lists([[0], [1]])
    listed, tupled = Solution(alloc, [F(1), F(2)]), Solution(alloc, (F(1), F(2)))
    assert listed.prices == (F(1), F(2))
    assert listed == tupled and hash(listed) == hash(tupled)


@given(
    prices=st.lists(st.fractions(min_value=0, max_value=50, max_denominator=20), min_size=1, max_size=8),
    data=st.data(),
)
def test_hat_never_exceeds_bundle_price(prices, data):
    subset = data.draw(st.sets(st.integers(0, len(prices) - 1)))
    [total], [hat] = spending_profile([subset], prices)
    assert hat <= total
    # equality exactly when the set is empty or its priciest good is free
    if subset:
        assert (hat == total) == (max(prices[g] for g in subset) == 0)
    else:
        assert hat == total == 0


@given(
    prices=st.lists(
        st.fractions(min_value=0, max_value=50, max_denominator=10**6), min_size=1, max_size=8
    ),
    data=st.data(),
)
def test_aggregates_match_their_fraction_definitions(prices, data):
    """The integer kernels against the literal `Fraction` sums and maxima, mixed denominators."""
    some_goods = st.sets(st.integers(0, len(prices) - 1), max_size=4)
    bundles = [set(), {0}] + data.draw(st.lists(some_goods, max_size=4))
    spends, hats = spending_profile(bundles, prices)
    for bundle, spend, hat in zip(bundles, spends, hats):
        assert spend == reference.bundle_price(prices, bundle)
        assert hat == reference.hat_price(prices, bundle)
        assert type(spend) is type(hat) is F


@given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=500), max_size=6))
def test_common_denominator_gives_back_the_prices(prices):
    numerators, den = _common_denominator(prices)
    assert all(type(x) is int for x in numerators)
    assert [F(x, den) for x in numerators] == prices
    assert den == math.lcm(*(p.denominator for p in prices))


# ---------------------------------------------------------------------------
# spender / violator sets (the literal definitions) and the fairness predicate


def test_demo_state_spenders_and_violators(demo_state_solution):
    assert reference.min_spenders(demo_state_solution) == (2,)
    assert reference.max_violators(demo_state_solution) == (0,)


def test_all_empty_bundles_tie_everyone():
    sol = Solution(Allocation.from_lists([[], [], []]), ())
    assert reference.min_spenders(sol) == (0, 1, 2)


def test_equal_minimum_spenders_both_returned():
    sol = Solution(Allocation.from_lists([[0], [1], [2]]), (F(1), F(1), F(5)))
    assert reference.min_spenders(sol) == (0, 1)


def test_singletons_make_everyone_a_violator():
    sol = Solution(Allocation.from_lists([[0], [1]]), (F(3), F(9)))
    assert reference.max_violators(sol) == (0, 1)


def test_two_goods_beat_singletons_as_violation():
    sol = Solution(Allocation.from_lists([[0, 1], [2], [3]]), (F(1), F(1), F(2), F(2)))
    assert reference.max_violators(sol) == (0,)


def test_is_pef1_on_demo_state(demo_instance, demo_state_solution):
    assert not is_pef1(demo_instance, demo_state_solution)


def test_is_pef1_after_raising_reachable_prices(demo_instance, demo_state_solution):
    raised = tuple(p * F(5, 4) if g >= 2 else p for g, p in enumerate(demo_state_solution.prices))
    assert is_pef1(demo_instance, Solution(demo_state_solution.allocation, raised))


def test_all_singletons_are_pef1():
    sol = Solution(Allocation.from_lists([[0], [1]]), (F(1), F(100)))
    assert is_pef1(Instance.from_values([[1, 1]] * 2), sol)


def test_is_pef1_matches_spender_violator_comparison():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 6)
        prices = tuple(F(rng.randint(0, 9)) for _ in range(m))
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        sol = Solution(Allocation.from_lists(bundles), prices)
        spends = [reference.bundle_price(prices, b) for b in bundles]
        hats = [reference.hat_price(prices, b) for b in bundles]
        via_sets = spends[reference.min_spenders(sol)[0]] >= hats[reference.max_violators(sol)[0]]
        assert is_pef1(Instance.from_values([[1] * m] * n), sol) == via_sets


# ---------------------------------------------------------------------------
# instance / allocation validation


def test_instance_shape_validation():
    with pytest.raises(InvalidInputError):
        Instance.from_values([])
    with pytest.raises(InvalidInputError):
        Instance.from_values([[1, 2], [3]])
    with pytest.raises(InvalidInputError):
        Instance.from_values([[1, -2]])


def test_instance_json_round_trip(demo_instance):
    obj = demo_instance.to_json_dict()
    assert obj["agents"] == 3 and obj["goods"] == 5
    assert Instance.from_json_dict(obj) == demo_instance


def test_instance_json_rejects_mismatch(demo_instance):
    obj = demo_instance.to_json_dict()
    obj["goods"] = 4
    with pytest.raises(InvalidInputError):
        Instance.from_json_dict(obj)


def test_allocation_partition_validation():
    Allocation.from_lists([[0, 2], [1]]).validate_partition(3, 2)
    # No partition of goods 0..k-1 is an Allocation: it is rejected when made.
    for bad, text in (
        ([[0], [0]], "more than one bundle"),
        ([[0, 3]], "not allocated"),
        ([[0, 0]], "more than once"),
    ):
        with pytest.raises(InvalidInputError, match=text):
            Allocation.from_lists(bad)
    with pytest.raises(InvalidInputError, match="not allocated"):
        Allocation.from_lists([[0], []]).validate_partition(2, 2)
    with pytest.raises(InvalidInputError, match=r"^goods 0\.\.999999 are not allocated$"):  # a range, not a list
        Allocation.from_lists([[]]).validate_partition(10**6, 1)
    with pytest.raises(InvalidInputError, match="2 bundles for 3 agents"):
        Allocation.from_lists([[0], [1]]).validate_partition(2, 3)


def test_solution_json_round_trip(demo_state_solution, demo_instance):
    obj = demo_state_solution.to_json_dict()
    back = Solution.from_json_dict(obj)
    back.allocation.validate_partition(demo_instance.m, demo_instance.n)
    assert back == demo_state_solution


# ---------------------------------------------------------------------------
# normalization


def test_normalize_keeps_demo_instance(demo_instance):
    core, rec = normalize_instance(demo_instance)
    assert core == demo_instance
    assert core is demo_instance  # nothing to strip: the instance is its own core, not a copy
    assert rec.kept_agents == (0, 1, 2) and rec.kept_goods == (0, 1, 2, 3, 4)
    assert rec.dropped_goods == ()


def test_normalize_drops_worthless_good():
    inst = Instance.from_values([[1, 0, 2], [3, 0, 0]])
    core, rec = normalize_instance(inst)
    assert rec.dropped_goods == (1,)
    assert core.m == 2 and core.n == 2
    assert isinstance(core, Instance) and core is not inst


def test_normalize_drops_indifferent_agent():
    inst = Instance.from_values([[1, 2], [0, 0]])
    core, rec = normalize_instance(inst)
    assert rec.kept_agents == (0,)
    assert core.n == 1
    assert isinstance(core, Instance) and core is not inst and core.m == inst.m


def test_denormalize_identity(demo_instance, demo_state_solution):
    _, rec = normalize_instance(demo_instance)
    assert denormalize(demo_state_solution, rec) == demo_state_solution
    assert denormalize(demo_state_solution, rec) is demo_state_solution  # returned as built


def test_denormalize_follows_a_record_that_reorders():
    # Keeping every index is not enough to hand the solution back: the order counts too.
    sol = Solution(Allocation.from_lists([[0], [1]]), (F(1), F(2)))
    assert denormalize(sol, NormalizationRecord(2, 2, (1, 0), (0, 1))).allocation.as_sorted_lists() == [[1], [0]]
    assert denormalize(sol, NormalizationRecord(2, 2, (0, 1), (1, 0))).prices == (F(2), F(1))


def test_denormalize_reembeds_dropped_good_and_agent():
    inst = Instance.from_values([[0, 0, 0], [2, 0, 3]])
    core, rec = normalize_instance(inst)
    assert core.n == 1 and core.m == 2
    core_sol = Solution(Allocation.from_lists([[0, 1]]), (F(1), F(2)))
    full = denormalize(core_sol, rec)
    assert full.allocation[0] == frozenset()          # dropped agent: empty bundle
    assert full.allocation[1] == frozenset({0, 1, 2})  # worthless good 1 parked here
    assert full.prices == (F(1), F(0), F(2))
    full.allocation.validate_partition(inst.m, inst.n)


def test_denormalize_embedding_preserves_surviving_indices():
    inst = Instance.from_values([[0, 1, 0, 2], [0, 0, 0, 0], [0, 3, 0, 4]])
    core, rec = normalize_instance(inst)
    core_sol = Solution(Allocation.from_lists([[0], [1]]), (F(5), F(7)))
    full = denormalize(core_sol, rec)
    assert full.allocation[0] >= frozenset({1})
    assert full.allocation[2] == frozenset({3})
    assert full.prices[1] == F(5) and full.prices[3] == F(7)
    assert full.prices[0] == 0 and full.prices[2] == 0


def test_denormalize_rejects_mismatched_record():
    inst = Instance.from_values([[1, 0], [0, 1]])
    _, rec = normalize_instance(inst)
    short = Solution(Allocation.from_lists([[0, 1]]), (F(1), F(1)))
    with pytest.raises(InvalidInputError):
        denormalize(short, rec)


# ---------------------------------------------------------------------------
# Hall's condition


def test_hall_on_demo_instance(demo_instance):
    assert check_hall(demo_instance)


def test_hall_two_agents_one_good():
    assert not check_hall(Instance.from_values([[1], [1]]))


def test_hall_single_edge():
    assert check_hall(Instance.from_values([[2]]))


def _hall_by_enumeration(inst) -> bool:
    for size in range(1, inst.n + 1):
        for agents in itertools.combinations(range(inst.n), size):
            neighbourhood = {
                g
                for g in range(inst.m)
                for i in agents
                if inst.valuations[i][g] > 0
            }
            if len(agents) > len(neighbourhood):
                return False
    return True


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=5),
            min_size=n,
            max_size=n,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
)
def test_hall_matches_subset_enumeration(rows):
    inst = Instance.from_values(rows)
    assert check_hall(inst) == _hall_by_enumeration(inst)


def _chain_instance(n: int, closed: bool) -> Instance:
    """Agent i < n-2 values goods i and i+1, agent n-1 only good 0.

    Agent n-2 also values the last good unless `closed`; the last agent's
    augmenting path then runs along the whole chain, to a free good or to
    a dead end.
    """
    rows = []
    for i in range(n):
        row = [F(0)] * n
        for g in [0] if i == n - 1 else [i] if closed and i == n - 2 else [i, i + 1]:
            row[g] = F(1)
        rows.append(tuple(row))
    return Instance(tuple(rows))


def test_hall_long_augmenting_chain():
    assert check_hall(_chain_instance(1200, closed=False))
    assert not check_hall(_chain_instance(1200, closed=True))


@pytest.mark.parametrize("key", ["agents", "goods"])
@pytest.mark.parametrize("count", [True, 1.0, "1"])
def test_instance_json_rejects_non_integer_counts(key, count):
    obj = {"agents": 1, "goods": 1, "valuations": [[1]], key: count}
    with pytest.raises(InvalidInputError):
        Instance.from_json_dict(obj)
