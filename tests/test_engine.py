import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairmarket import (
    Allocation,
    HallViolationError,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    MbbGraph,
    Solution,
    check_ef1,
    check_mbb_consistency,
    is_pef1,
    solve,
)
from fairmarket.core import spending_profile
from fairmarket.engine import (
    RATES,
    EngineState,
    add_agent,
    apply_price_rise,
    compute_betas,
    compute_potential,
    find_solution,
    initial_prices_for_agent,
    iteration_bound,
    transfer,
)
from fairmarket.market import Reachability, reach_from, shortest_violator_path

import reference

F = Fraction


def prices_of(state: EngineState) -> list[Fraction]:
    """Every good's price as a `Fraction`, 0 for a good that has not joined."""
    return [F(num, state.den) for num in state.nums]


def as_fractions(rates) -> tuple:
    """Rate pairs as `Fraction`s, None where infinite."""
    return tuple(None if r is None else F(*r) for r in rates)


def demo_engine_state(demo_instance) -> EngineState:
    return EngineState.from_solution(
        demo_instance,
        [[0, 1], [2, 3], [4]],
        [F(6), F(5), F(7), F(3), F(4)],
    )


# ---------------------------------------------------------------------------
# introduction prices


def test_first_agent_introduction_prices(demo_instance):
    state = EngineState(demo_instance)
    goods, prices = initial_prices_for_agent(state, 0)
    assert goods == (0, 1)
    assert prices == {0: (1, 5), 1: (1, 6)}


def test_agent_with_no_new_goods(demo_instance):
    state = EngineState(demo_instance)
    add_agent(state)
    find_solution(state)
    # a clone of agent 0 would bring nothing new
    clone = Instance.from_values([[6, 5, 0, 0, 0], [6, 5, 0, 0, 0]])
    st = EngineState(clone)
    add_agent(st)
    goods, prices = initial_prices_for_agent(st, 1)
    assert goods == () and prices == {}


def test_new_batch_cheaper_than_any_existing_good():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        rows = [[rng.randint(0, 8) for _ in range(m)] for _ in range(n)]
        for i, g in enumerate(rng.sample(range(m), n)):
            rows[i][g] = max(1, rows[i][g])
        inst = Instance.from_values(rows)
        state = EngineState(inst)
        add_agent(state)
        find_solution(state)
        for _ in range(n - 1):
            floor = min(p for p in prices_of(state) if p)
            goods, prices = initial_prices_for_agent(state, state.num_agents)
            assert all(gcd(*pair) == 1 for pair in prices.values())
            if goods:
                new = [F(*pair) for pair in prices.values()]
                assert sum(new) <= inst.m * max(new) <= floor
            add_agent(state)
            find_solution(state)


# ---------------------------------------------------------------------------
# price-rise rates


def test_rates_on_demo_state(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2])
    rates, chosen, _ = compute_betas(state, reach)
    assert as_fractions(rates) == (F(5, 3), F(5, 3), F(5, 4))
    assert chosen == "b3"


def test_rate_three_alone_when_others_infinite():
    # newcomer owns the only reachable good; nothing outside is valued by it
    inst = Instance.from_values([[1, 1, 0], [0, 0, 1]])
    state = EngineState.from_solution(inst, [[0, 1], [2]], [F(1), F(1), F(1, 100)])
    reach = reach_from(state, [1])
    rates, chosen, edges = compute_betas(state, reach)
    assert as_fractions(rates) == (None, None, F(100))
    assert chosen == "b3" and edges == ()


def test_rate_one_invariant_under_uniform_price_scaling(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2])
    base, _, _ = compute_betas(state, reach)
    scaled = EngineState.from_solution(
        demo_instance,
        [[0, 1], [2, 3], [4]],
        [p * 3 for p in (F(6), F(5), F(7), F(3), F(4))],
    )
    r2 = reach_from(scaled, [2])
    assert as_fractions(compute_betas(scaled, r2)[0])[0] == as_fractions(base)[0]


def test_price_rise_on_demo_state(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2])
    rates, chosen, edges = compute_betas(state, reach)
    apply_price_rise(state, reach, rates[RATES.index(chosen)], edges)
    prices = prices_of(state)
    assert [prices[g] for g in range(5)] == [F(6), F(5), F(35, 4), F(15, 4), F(5)]
    assert is_pef1(demo_instance, state.to_solution())
    # afterwards nobody outside the reachable set has a best-ratio edge into it
    for i in range(3):
        if i not in reach.agents:
            assert not state.mbb[i] & reach.goods


def test_price_rise_rejects_rate_at_most_one(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2])
    _, _, edges = compute_betas(state, reach)
    with pytest.raises(InternalInvariantError, match="must exceed 1, got 1"):
        apply_price_rise(state, reach, (2, 2), edges)


def test_price_rise_rederives_an_unreachable_agent_whose_edges_all_rise():
    # Agent 1 owns nothing, so it stays outside the reach while its only edge goes into it.
    inst = Instance.from_values([[1, 1], [1, 2], [0, 1]])
    state = EngineState.from_solution(inst, [[0], [], [1]], [F(1), F(1)])
    reach = reach_from(state, [2])
    assert (reach.agents, reach.goods, state.mbb[1]) == ({2}, {1}, {1})
    apply_price_rise(state, reach, (3, 1), ())
    assert state.mbb == [{0}, {0}, {1}]


# Numbers sharing small primes, so the common factors of a rise are not trivial.
shared_factors = st.builds(
    lambda twos, threes, fives, rest: 2**twos * 3**threes * 5**fives * rest,
    st.integers(0, 12), st.integers(0, 6), st.integers(0, 4), st.integers(1, 40),
)


@given(
    nums=st.lists(shared_factors, min_size=1, max_size=8),
    den=shared_factors,
    reached=st.sets(st.integers(0, 7)),
    rate=st.tuples(shared_factors, shared_factors).filter(lambda r: r[0] != r[1]),
)
# Rises by 3/2 on good 0: [1, 2] over 1 scales to [3, 4] over 2, whose gcd of 1 skips the
# divide pass, and [1, 3] over 3 to [3, 6] over 6, which the divide pass reduces by 3.
@example(nums=[1, 2], den=1, reached={0}, rate=(3, 2))
@example(nums=[1, 3], den=3, reached={0}, rate=(3, 2))
# Nothing reached: [2, 3] over 5 scales to [4, 6] over 10, and the divide pass halves it back.
@example(nums=[2, 3], den=5, reached=set(), rate=(3, 2))
def test_price_rise_reduces_like_the_plain_gcd_fold(nums, den, reached, rate):
    """The rise's split common factor against one gcd over every scaled number."""
    common = gcd(den, *nums)
    nums, den = [num // common for num in nums], den // common
    up, down = max(rate) // gcd(*rate), min(rate) // gcd(*rate)
    m = len(nums)
    state = EngineState.from_solution(Instance.from_values([[1] * m]), [range(m)], [F(1)] * m)
    state.nums, state.den = nums, den
    reach = Reachability(frozenset(), frozenset(g for g in reached if g < m), {0: 1})
    apply_price_rise(state, reach, (up, down), ())
    scaled = [num * (up if g in reach.goods else down) for g, num in enumerate(nums)]
    plain = gcd(den * down, *scaled)
    assert state.nums == [num // plain for num in scaled]
    assert state.den == den * down // plain


# ---------------------------------------------------------------------------
# transfers


def hoard_state() -> EngineState:
    inst = Instance.from_values([[1, 1, 1], [1, 1, 1]])
    return EngineState.from_solution(inst, [[0, 1, 2], []], [F(1), F(1), F(1)])


def test_transfer_two_agent_hoard():
    state = hoard_state()
    path = shortest_violator_path(state, reach_from(state, [1]), [0])
    assert transfer(state, path) == (1, 0)
    assert state.bundles == [{1, 2}, {0}]


@pytest.mark.parametrize(
    "bundles, path",
    [
        ([[0, 1, 2], []], (0, 0, 1)),  # good 0 is not in agent 1's bundle
        ([[0], [1], [2]], (2, 1, 1, 2, 0)),  # the first edge holds, the second does not
        ([[0, 1, 2], []], (1, 0, -2)),  # no agent -2, though bundles[-2] holds good 0
        ([[0, 1, 2], []], (1, 0, 2)),  # no agent 2
    ],
)
def test_transfer_rejects_a_path_off_the_allocation(bundles, path):
    inst = Instance.from_values([[1, 1, 1]] * len(bundles))
    state = EngineState.from_solution(inst, bundles, [F(1), F(1), F(1)])
    with pytest.raises(InvalidInputError, match="do not match the allocation"):
        transfer(state, path)
    assert state.bundles == [set(b) for b in bundles]


def test_transfer_cut_at_one_only_touches_endpoints():
    state = hoard_state()
    before = [set(b) for b in state.bundles]
    a, _ = transfer(state, (1, 0, 0))
    assert a == 1
    changed = [i for i in range(2) if state.bundles[i] != before[i]]
    assert changed == [0, 1]


def test_transfer_bundle_size_deltas():
    # replay seeded runs step by step, diffing bundle sizes around transfers
    from fairmarket.engine import step

    rng = random.Random(23)
    seen_transfers = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        rows = [[rng.randint(0, 6) for _ in range(m)] for _ in range(n)]
        for i, g in enumerate(rng.sample(range(m), n)):
            rows[i][g] = max(1, rows[i][g])
        inst = Instance.from_values(rows)
        state = EngineState(inst)
        for _ in range(n):
            add_agent(state)
            state.trace.start_call(state.num_agents, iteration_bound(state.num_agents, inst.m))
            while True:
                sizes = [len(b) for b in state.bundles]
                na = state.num_agents
                levels = reach_from(state, [state.k]).levels
                outcome = step(state)
                if outcome is None:
                    break
                if outcome.kind != "transfer":
                    continue
                seen_transfers += 1
                agents_on = outcome.path[0::2]
                assert outcome.a >= 1 and 0 <= outcome.b < outcome.a
                absorber = agents_on[outcome.b]
                releaser = agents_on[outcome.a]
                after = [len(b) for b in state.bundles]
                assert after[absorber] == sizes[absorber] + 1
                assert after[releaser] == sizes[releaser] - 1
                untouched = set(range(na)) - {absorber, releaser}
                assert all(after[i] == sizes[i] for i in untouched)
                # agents at or below the absorb position keep their level
                new_levels = reach_from(state, [state.k]).levels
                for i in range(na):
                    if levels[i] <= outcome.b:
                        assert new_levels[i] == levels[i]
    assert seen_transfers > 0


# ---------------------------------------------------------------------------
# the rebalancing loop


def test_rebalance_demo_state_single_rise(demo_instance):
    state = demo_engine_state(demo_instance)
    find_solution(state)
    events = list(state.trace.events)
    assert len(events) == 1
    assert events[0].kind == "price_rise"
    assert events[0].rates == ((5, 3), (5, 3), (5, 4))
    assert events[0].chosen == "b3"
    out = state.to_solution()
    assert out.prices == (F(6), F(5), F(35, 4), F(15, 4), F(5))
    assert is_pef1(demo_instance, out)
    assert check_mbb_consistency(demo_instance, out)


def test_rebalance_noop_when_already_fair():
    inst = Instance.from_values([[1, 1], [1, 1]])
    state = EngineState.from_solution(inst, [[0], [1]], [F(1), F(1)])
    find_solution(state)
    assert len(state.trace.events) == 0
    assert state.bundles == [{0}, {1}]


def test_rebalance_single_agent_never_iterates():
    inst = Instance.from_values([[4, 2, 1]])
    state = EngineState.from_solution(inst, [[0, 1, 2]], [F(4), F(2), F(1)])
    find_solution(state)
    assert len(state.trace.events) == 0


def test_potential_on_demo_state(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2])
    pot = compute_potential(state, reach)
    assert pot[:-1] == (1, 2, 0, 2)
    assert pot[-1] == 1
    assert sum(pot[:-1]) == 5


def test_potential_counts_sum_to_goods():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = rng.randint(n, 6)
        rows = [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
        for i, g in enumerate(rng.sample(range(m), n)):
            rows[i][g] = max(1, rows[i][g])
        inst = Instance.from_values(rows)
        prices = [F(rng.randint(1, 5)) for _ in range(m)]
        bundles = [[] for _ in range(n)]
        for g in range(m):
            bundles[rng.randrange(n)].append(g)
        try:
            state = EngineState.from_solution(inst, bundles, prices)
        except Exception:
            continue
        reach = reach_from(state, [n - 1])
        pot = compute_potential(state, reach)
        assert sum(pot[:-1]) == m


def test_potential_all_goods_at_level_zero():
    inst = Instance.from_values([[1, 1], [2, 2]])
    # the newest agent holds everything, so every good sits at level 0
    state = EngineState.from_solution(inst, [[], [0, 1]], [F(1), F(1)])
    reach = reach_from(state, [1])
    pot = compute_potential(state, reach)
    assert pot[0] == 2
    assert sum(pot[:-1]) == 2


def test_iteration_bound_values():
    assert iteration_bound(1, 10) == 0
    assert iteration_bound(2, 5) > 0
    assert iteration_bound(3, 5) > iteration_bound(2, 5)


def test_iteration_bound_is_the_fraction_power():
    """The integer-built ceiling is the floor of (k-1)·((m+k)/k·e)^k raised as a `Fraction`."""
    e_upper = F(27182818285, 10**10)
    for k in range(1, 9):
        for m in range(61):
            bound = iteration_bound(k, m)
            assert type(bound) is int and bound == math.floor((k - 1) * (F(m + k, k) * e_upper) ** k)


@pytest.mark.parametrize("bound, fails", [(2, False), (1, True)])
def test_step_stops_past_the_iteration_ceiling(demo_instance, monkeypatch, bound, fails):
    # The demo's last rebalancing call takes two iterations; `step` raises on the
    # iteration past the ceiling before it moves, records or counts anything, so
    # each call's iteration count equals its recorded events.
    from fairmarket import engine

    monkeypatch.setattr(engine, "iteration_bound", lambda agent_count, total_goods: bound)
    state = EngineState(demo_instance)
    for _ in range(2):
        add_agent(state)
        find_solution(state)
    add_agent(state)
    if fails:
        with pytest.raises(InternalInvariantError, match="iteration ceiling 1$"):
            find_solution(state)
        assert [c.iterations for c in state.trace.calls] == [0, 1, 1]
        assert len(state.trace.events) == 2
    else:
        find_solution(state)
        assert [c.iterations for c in state.trace.calls] == [0, 1, 2]
        assert len(state.trace.events) == 3


def test_step_builds_no_fraction(monkeypatch):
    # Every rational a solve computes or records stays an integer until `to_solution`
    # builds the prices.  Counts constructions through the engine's `Fraction` name
    # while `add_agent`, `find_solution` or `step` is on the stack, with the online
    # checks on and off: the introduction prices, the ceiling and every step included.
    from fairmarket import engine
    from fairmarket.cli import generate_instance

    built = {"in the solver": 0, "elsewhere": 0}
    depth = []  # one entry per counted call on the stack

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built["in the solver" if depth else "elsewhere"] += 1
            return super().__new__(cls, *args, **kwargs)

    def counted(real):
        def call(state):
            depth.append(state)
            try:
                return real(state)
            finally:
                depth.pop()

        return call

    monkeypatch.setattr(engine, "Fraction", CountingFraction)
    for name in ("add_agent", "find_solution", "step"):
        monkeypatch.setattr(engine, name, counted(getattr(engine, name)))
    kinds = set()
    for seed in range(5):
        for check in (True, False):
            _, trace = solve(generate_instance(4, 10, 9, seed), check=check)
            kinds.update(ev.chosen or ev.kind for ev in trace.events)
    assert kinds == {"transfer", "b1", "b2", "b3"}
    assert built["elsewhere"] > 0  # the counter sees the engine's constructions: the prices
    assert built["in the solver"] == 0


def test_step_counts_into_the_open_call_of_the_newest_agent(demo_instance):
    from fairmarket.engine import step

    state = demo_engine_state(demo_instance)  # three agents, one rise short of fair
    with pytest.raises(InternalInvariantError, match="outside a rebalancing call"):
        step(state)
    state.trace.start_call(2, iteration_bound(2, demo_instance.m))
    with pytest.raises(InternalInvariantError, match="outside a rebalancing call"):
        step(state)
    state.trace.start_call(3, iteration_bound(3, demo_instance.m))
    event = step(state)
    assert (event.k, event.step, event.kind) == (3, 1, "price_rise")
    assert state.trace.calls[-1].iterations == 1 and step(state) is None


def test_step_compares_its_potential_with_the_last_event_of_its_call():
    from dataclasses import replace

    from fairmarket.cli import generate_instance
    from fairmarket.engine import step

    state = EngineState(generate_instance(3, 8, 9, 0))  # each call past the first takes 4 steps
    for _ in range(2):
        add_agent(state)
        find_solution(state)
    add_agent(state)
    events = state.trace.events
    top = (state.inst.m + 1, 0, 0, 0)  # above any potential of three agents

    def inflate_last_potential() -> None:
        events[-1] = replace(events[-1], potential=top + events[-1].potential[4:])

    inflate_last_potential()  # an event of the previous call, which the next call ignores
    state.trace.start_call(3, iteration_bound(3, state.inst.m))
    assert step(state).step == 1
    inflate_last_potential()
    with pytest.raises(InternalInvariantError, match="potential did not increase"):
        step(state)


def test_solver_exercises_every_event_kind():
    from collections import Counter

    from fairmarket.cli import generate_instance

    kinds = Counter()
    chosen = Counter()
    for seed in range(120):
        inst = generate_instance(2 + seed % 3, 4 + seed % 5, 10, seed)
        _, trace = solve(inst)
        for event in trace.events:
            kinds[event.kind] += 1
            if event.chosen is not None:
                chosen[event.chosen] += 1
    assert kinds["transfer"] > 0 and kinds["price_rise"] > 0
    assert set(chosen) == {"b1", "b2", "b3"}


def test_solve_without_online_checks_matches_checked_run(demo_instance):
    checked, _ = solve(demo_instance, check=True)
    unchecked, _ = solve(demo_instance, check=False)
    assert checked == unchecked


# ---------------------------------------------------------------------------
# full pipeline


def test_solve_demo_instance(demo_instance):
    sol, trace = solve(demo_instance)
    assert sol.allocation.as_sorted_lists() == [[0, 1], [2, 3], [4]]
    assert sol.prices == (F(1, 5), F(1, 6), F(7, 24), F(1, 8), F(1, 6))
    assert [c.iterations for c in trace.calls] == [0, 1, 2]
    assert is_pef1(demo_instance, sol)
    assert check_mbb_consistency(demo_instance, sol)
    assert check_ef1(demo_instance, sol.allocation)


def test_solve_single_agent_takes_everything():
    inst = Instance.from_values([[3, 1, 2]])
    sol, _ = solve(inst)
    assert sol.allocation[0] == frozenset({0, 1, 2})


def test_solve_identical_agents_identical_goods_one_each():
    inst = Instance.from_values([[1, 1, 1]] * 3)
    sol, _ = solve(inst)
    assert sorted(len(b) for b in sol.allocation) == [1, 1, 1]
    # any unbalanced partition with equal positive prices fails the fairness test
    lopsided = Solution(Allocation.from_lists([[0, 1], [2], []]), (F(1), F(1), F(1)))
    assert not is_pef1(inst, lopsided)


def test_solve_exercises_transfers():
    inst = Instance.from_values([[1, 1, 1], [1, 1, 1]])
    sol, trace = solve(inst)
    kinds = [e.kind for e in trace.events]
    assert "transfer" in kinds
    assert is_pef1(inst, sol)


def test_solve_rejects_hall_violation():
    with pytest.raises(HallViolationError):
        solve(Instance.from_values([[1, 0], [1, 0]]))


def test_solve_respects_insertion_order(demo_instance):
    default, _ = solve(demo_instance)
    permuted, _ = solve(demo_instance, order=[2, 1, 0])
    # bundles are reported in original agent indices regardless of order
    for sol in (default, permuted):
        sol.validate(demo_instance)
        assert check_ef1(demo_instance, sol.allocation)
    assert default.allocation != permuted.allocation or default.prices != permuted.prices


def test_solve_order_must_be_permutation(demo_instance):
    from fairmarket import InvalidInputError

    with pytest.raises(InvalidInputError):
        solve(demo_instance, order=[0, 0, 1])


@pytest.mark.parametrize("rows", [[[0, 0], [0, 0]], [[1, 0], [1, 0]]])
def test_solve_checks_the_order_before_the_instance(rows):
    # Normalization keeps no agent of the first; the second fails the matching condition.
    from fairmarket import InvalidInputError

    with pytest.raises(InvalidInputError, match="permutation"):
        solve(Instance.from_values(rows), order=[7, 7])


def test_solve_order_skips_dropped_agents():
    inst = Instance.from_values([[0, 0, 0], [1, 2, 0], [0, 1, 3]])
    sol, _ = solve(inst, order=[2, 0, 1])  # agent 0 values nothing and is skipped
    sol.validate(inst)
    assert sol.allocation[0] == frozenset()
    assert check_ef1(inst, sol.allocation)


def test_solve_handles_dropped_goods_and_agents():
    inst = Instance.from_values([[0, 2, 0], [0, 0, 0]])
    sol, _ = solve(inst)
    sol.validate(inst)
    assert sol.allocation[1] == frozenset()
    assert sol.allocation[0] == frozenset({0, 1, 2})
    assert sol.prices[0] == 0 and sol.prices[2] == 0


def test_solve_order_reembeds_worthless_goods_on_the_lowest_kept_agent():
    # Agent 0 values nothing and good 2 is worthless; agents 2 and 1 join in that order.
    inst = Instance.from_values([[0, 0, 0], [1, 2, 0], [2, 1, 0]])
    sol, _ = solve(inst, order=[2, 1, 0])
    sol.validate(inst)
    assert 2 in sol.allocation[1] and sol.prices[2] == 0
    assert sol.allocation[0] == frozenset()
    assert check_ef1(inst, sol.allocation)


def test_engine_invariants_hold_after_every_event():
    # replay a few seeded runs step by step, re-checking state between events
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(n, 7)
        rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
        for i, g in enumerate(rng.sample(range(m), n)):
            rows[i][g] = max(1, rows[i][g])
        inst = Instance.from_values(rows)
        state = EngineState(inst)  # online checks are on by default
        from fairmarket.engine import step

        for _ in range(inst.n):
            add_agent(state)
            state.trace.start_call(state.num_agents, iteration_bound(state.num_agents, inst.m))
            while True:
                spends, hats = spending_profile(state.bundles, prices_of(state))
                if state.num_agents > 1:
                    level = max(hats)
                    assert all(
                        spends[i] >= level
                        for i in range(state.num_agents - 1)
                    ) or min(spends) >= level
                if step(state) is None:
                    break
                prices = prices_of(state)
                alphas = reference.alphas(inst, prices, state.agents, state.joined)
                for i in range(state.num_agents):
                    for g in state.bundles[i]:
                        ratio = inst.valuations[i][g] / prices[g]
                        assert ratio == alphas[i]
        final = state.to_solution()
        assert is_pef1(inst, final)
        assert check_ef1(inst, final.allocation)


def test_online_audit_runs_once_per_step(monkeypatch):
    from fairmarket import engine
    from fairmarket.cli import generate_instance

    audits = []
    audit = engine._check_state
    monkeypatch.setattr(engine, "_check_state", lambda *args: audits.append(audit(*args)))
    _, trace = solve(generate_instance(3, 8, 10, 0))
    assert {e.kind for e in trace.events} == {"transfer", "price_rise"}
    # one audit when each rebalancing call starts, then one after each step
    assert len(audits) == len(trace.calls) + len(trace.events)


def test_online_audit_rebuilds_its_price_part_once_per_price_vector(monkeypatch):
    import sys

    from fairmarket import engine
    from fairmarket.cli import generate_instance

    rebuilds = []
    ratios = engine.best_ratios

    def spy(*args):
        if sys._getframe(1).f_code.co_name == "_check_state":
            rebuilds.append(args)
        return ratios(*args)

    monkeypatch.setattr(engine, "best_ratios", spy)
    _, trace = solve(generate_instance(3, 8, 10, 0))
    kinds = [e.kind for e in trace.events]
    assert kinds.count("transfer") > 0
    # a rebuild for each new agent and after each price rise; none after a transfer
    assert len(rebuilds) == len(trace.calls) + kinds.count("price_rise")


# Each corruption after a transfer, and the audit failure it must raise.
POST_TRANSFER_CORRUPTIONS = {
    "stray numerator": "not exactly the goods with a positive price",
    "owned numerator": "outside its best-ratio set|differs from a rebuild",
    "denominator": "not reduced",
    "edge": "differs from a rebuild",
}


@pytest.mark.parametrize("target", list(POST_TRANSFER_CORRUPTIONS))
def test_online_checks_catch_a_corruption_right_after_a_transfer(target):
    from fairmarket.engine import _check_state

    state = next(
        s
        for s in stepped_states(seed=7, count=20, check=True)
        # right after a transfer step of the newest agent's call
        if s.trace.events and s.trace.events[-1].k == s.num_agents
        and s.trace.events[-1].kind == "transfer" and not all(s.nums)
    )
    _check_state(state)  # the step's own audit saw these prices; this one reuses it
    nums = state.nums
    if target == "stray numerator":
        nums[nums.index(0)] += 1  # in place: a price on a good nobody owns
    elif target == "owned numerator":
        nums[state.joined[0]] += 1
    elif target == "denominator":
        state.den = -state.den
    else:
        state.mbb[0] ^= {state.joined[-1]}
    assert state.nums is nums
    with pytest.raises(InternalInvariantError, match=POST_TRANSFER_CORRUPTIONS[target]):
        _check_state(state)


def test_online_audit_catches_a_price_rise_that_moves_the_violation_level(monkeypatch):
    from fairmarket import engine
    from fairmarket.cli import generate_instance

    def overshoot(state, reach):
        # A rate past b2 (and short of b1) lifts a reachable hat over the level.
        rates, chosen, edges = compute_betas(state, reach)
        b1, b2, _ = as_fractions(rates)
        if b2 is None or (b1 is not None and b1 <= b2):
            return rates, chosen, edges
        beta = b2 * 2 if b1 is None else (b2 + b1) / 2
        return (rates[0], beta.as_integer_ratio(), rates[2]), "b2", ()

    monkeypatch.setattr(engine, "compute_betas", overshoot)
    with pytest.raises(InternalInvariantError, match="moved the violation level"):
        solve(generate_instance(3, 8, 10, 2))


def uniform_state(bundles: list[list[int]]) -> EngineState:
    """Agents who value every good 1, every good priced 1: each good is a best-ratio good of everyone."""
    m = sum(map(len, bundles))
    inst = Instance.from_values([[1] * m for _ in bundles])
    return EngineState.from_solution(inst, bundles, [F(1)] * m)


def test_online_checks_catch_overlapping_bundles():
    state = uniform_state([[0, 1], [2, 3], []])
    state.bundles[2].add(0)  # held by agents 0 and 2 at once
    with pytest.raises(InternalInvariantError, match="bundles overlap"):
        find_solution(state)


def test_online_checks_catch_an_agent_below_the_violation_level():
    # Agent 0 spends 1 under agent 1's drop-one price 2; only the newcomer spends less.
    state = uniform_state([[0], [1, 2, 3], []])
    with pytest.raises(InternalInvariantError, match="agent 0 fell below the violation level"):
        find_solution(state)


def test_online_checks_catch_a_lowest_spender_besides_the_newcomer():
    # Agents 0 and 2 both spend 1; any lowest spender but the newcomer is under the level.
    state = uniform_state([[0], [1, 2, 3], [4]])
    with pytest.raises(InternalInvariantError, match="agent 0 fell below the violation level"):
        find_solution(state)


def test_online_checks_catch_every_agent_at_the_violation_level(monkeypatch):
    from fairmarket import engine

    # A drop-one kernel that prices every hat at 2 makes both agents maximum violators
    # while the newcomer spends nothing; the rebuild agrees, as it runs the same kernel.
    monkeypatch.setattr(engine, "_spend_and_hat", lambda nums: (sum(nums), 2))
    state = uniform_state([[0, 1], []])
    with pytest.raises(InternalInvariantError, match="violator count 2 out of range"):
        find_solution(state)


def test_online_checks_catch_a_transfer_that_raises_the_violation_level(monkeypatch):
    from fairmarket import engine
    from fairmarket.core import _spend_and_hat

    def overfill(state, path):
        # The transfer, then the newcomer's goods handed on to agent 1, past the level.
        cut = transfer(state, path)
        state.bundles[1] |= state.bundles[path[0]]
        state.bundles[path[0]] = set()
        for i in (path[0], 1):
            state.spends[i], state.hats[i] = _spend_and_hat([state.nums[g] for g in state.bundles[i]])
        return cut

    monkeypatch.setattr(engine, "transfer", overfill)
    state = uniform_state([[0, 1, 2], [3, 4, 5], []])
    with pytest.raises(InternalInvariantError, match="transfer raised the violation level"):
        find_solution(state)
    assert state.trace.events[-1].kind == "transfer"


def test_online_checks_catch_a_valued_good_that_has_not_joined(demo_instance, monkeypatch):
    from fairmarket import engine

    def withhold(state, agent):
        # The newcomer's introduction without its last new good.
        goods, prices = initial_prices_for_agent(state, agent)
        return goods[:-1], {g: prices[g] for g in goods[:-1]}

    monkeypatch.setattr(engine, "initial_prices_for_agent", withhold)
    with pytest.raises(InternalInvariantError, match="agent 0 values good 1, which has not joined"):
        solve(demo_instance)


# ---------------------------------------------------------------------------
# maintained market state


def rebuilt_market(state: EngineState) -> tuple:
    """The state's edges, spends and hats from their literal `Fraction` definitions."""
    prices = prices_of(state)
    return (
        reference.mbb(state.inst, prices, state.agents, state.joined),
        [reference.bundle_price(prices, b) for b in state.bundles],
        [reference.hat_price(prices, b) for b in state.bundles],
    )


def stepped_states(seed: int, count: int, check: bool):
    """Seeded states, yielded after every event of a solve driven step by step."""
    from fairmarket.engine import step

    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(n, 3 * n + 2)
        rows = [[rng.randint(0, rng.choice([2, 9, 100])) for _ in range(m)] for _ in range(n)]
        for i, g in enumerate(rng.sample(range(m), n)):
            rows[i][g] = max(1, rows[i][g])
        state = EngineState(Instance.from_values(rows), check=check)
        for _ in range(n):
            add_agent(state)
            yield state
            state.trace.start_call(state.num_agents, iteration_bound(state.num_agents, m))
            while step(state) is not None:
                yield state


def test_maintained_market_state_matches_rebuild_after_every_event():
    kinds = set()
    for state in stepped_states(seed=31, count=60, check=False):
        assert state.den >= 1 and gcd(state.den, *state.nums) == 1
        spends, hats = ([F(x, state.den) for x in xs] for xs in (state.spends, state.hats))
        assert (state.mbb, spends, hats) == rebuilt_market(state)
        # searching the maintained state finds what searching a rebuilt graph finds
        graph = MbbGraph.from_state(
            state.inst, state.bundles, prices_of(state), state.agents, state.joined
        )
        reach = reach_from(state, [state.k])
        assert reach == reach_from(graph, [state.k])
        others = [i for i in state.agents if i != state.k]
        assert shortest_violator_path(state, reach, others) == shortest_violator_path(
            graph, reach, others
        )
        if state.trace.events:
            kinds.add(state.trace.events[-1].kind)
            kinds.add(state.trace.events[-1].chosen)
    assert {"transfer", "price_rise", "b1", "b2", "b3"} <= kinds


@pytest.mark.parametrize("target", ["edge", "spend", "hat"])
def test_online_checks_catch_a_corrupted_maintained_state(target):
    from fairmarket.engine import step

    def corrupted(i: int) -> EngineState:
        """A state of three agents before its call, with agent i's maintained `target` corrupted."""
        state = next(s for s in stepped_states(seed=7, count=20, check=True) if s.num_agents == 3)
        if target == "edge":
            state.mbb[i] ^= {state.joined[-1]}
        elif target == "spend":
            state.spends[i] += 1
        else:
            state.hats[i] += 1
        return state

    # The audit that opens a call checks every agent.
    with pytest.raises(InternalInvariantError, match="differs from a rebuild"):
        find_solution(corrupted(0))
    # So does the audit after a step.  Agent 0 is unreached, so the next rise would drop
    # a flipped edge of its own; flip the newcomer's instead.
    state = corrupted(2 if target == "edge" else 0)
    state.trace.start_call(3, iteration_bound(3, state.inst.m))
    with pytest.raises(InternalInvariantError, match="differs from a rebuild"):
        step(state)


def test_online_checks_catch_a_price_on_a_good_not_joined():
    """The owned goods are exactly the goods with a nonzero numerator, each positive."""
    from fairmarket.engine import _check_state

    state = next(s for s in stepped_states(seed=7, count=20, check=True) if not all(s.nums))
    _check_state(state)
    nums = list(state.nums)
    stray, owned = nums.index(0), state.joined[0]
    # A price on a good nobody owns, an owned good with no price, a negative price.
    for g, num in [(stray, 1), (owned, 0), (owned, -nums[owned])]:
        state.nums = list(nums)
        state.nums[g] = num
        with pytest.raises(InternalInvariantError, match="not exactly the goods with a positive"):
            _check_state(state)


@pytest.mark.parametrize("target", ["numerator", "denominator"])
def test_online_checks_catch_a_corrupted_price_vector(target):
    from fairmarket.engine import _check_state

    state = next(
        s for s in stepped_states(seed=7, count=20, check=True) if s.num_agents == 3
    )
    _check_state(state)
    if target == "numerator":
        state.nums[state.joined[0]] += 1
        message = "outside its best-ratio set|differs from a rebuild"
    else:
        # Every number doubled: the same prices, spends and hats over an unreduced den.
        state.nums = [2 * num for num in state.nums]
        state.den *= 2
        state.spends = [2 * spend for spend in state.spends]
        state.hats = [2 * hat for hat in state.hats]
        message = "not reduced"
    with pytest.raises(InternalInvariantError, match=message):
        _check_state(state)
