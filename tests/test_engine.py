import random
from fractions import Fraction
from math import gcd

import pytest

from fairmarket import (
    Allocation,
    HallViolationError,
    Instance,
    InternalInvariantError,
    MbbGraph,
    Solution,
    check_ef1,
    check_mbb_consistency,
    is_pef1,
    solve,
)
from fairmarket.core import spending_profile
from fairmarket.engine import (
    BetaBreakdown,
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
from fairmarket.market import compute_alphas, reach_from, shortest_violator_path

F = Fraction


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
    assert prices == {0: F(1, 5), 1: F(1, 6)}


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
            floor = min(state.fraction_prices().values())
            goods, prices = initial_prices_for_agent(state, state.num_agents)
            if goods:
                batch = sum(prices.values(), F(0))
                assert batch <= inst.m * max(prices.values()) <= floor
            add_agent(state)
            find_solution(state)


# ---------------------------------------------------------------------------
# price-rise rates


def test_rates_on_demo_state(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2], 3)
    rates = compute_betas(state, reach)
    assert (rates.b1, rates.b2, rates.b3) == (F(5, 3), F(5, 3), F(5, 4))
    assert rates.beta == F(5, 4) and rates.chosen == "b3"


def test_rate_three_alone_when_others_infinite():
    # newcomer owns the only reachable good; nothing outside is valued by it
    inst = Instance.from_values([[1, 1, 0], [0, 0, 1]])
    state = EngineState.from_solution(inst, [[0, 1], [2]], [F(1), F(1), F(1, 100)])
    reach = reach_from(state, [1], 2)
    rates = compute_betas(state, reach)
    assert rates.b1 is None and rates.b2 is None
    assert rates.beta == rates.b3 == F(100)
    assert rates.chosen == "b3"


def test_rate_one_invariant_under_uniform_price_scaling(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2], 3)
    base = compute_betas(state, reach)
    scaled = EngineState.from_solution(
        demo_instance,
        [[0, 1], [2, 3], [4]],
        [p * 3 for p in (F(6), F(5), F(7), F(3), F(4))],
    )
    r2 = reach_from(scaled, [2], 3)
    assert compute_betas(scaled, r2).b1 == base.b1


def test_price_rise_on_demo_state(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2], 3)
    rates = compute_betas(state, reach)
    apply_price_rise(state, reach, rates)
    prices = state.fraction_prices()
    assert [prices[g] for g in range(5)] == [F(6), F(5), F(35, 4), F(15, 4), F(5)]
    assert is_pef1(state.to_solution())
    # afterwards nobody outside the reachable set has a best-ratio edge into it
    for i in range(3):
        if i not in reach.agents:
            assert not state.mbb[i] & reach.goods


def test_price_rise_rejects_rate_at_most_one(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2], 3)
    rates = compute_betas(state, reach)
    bogus = type(rates)(rates.b1, rates.b2, rates.b3, F(1), "b3")
    with pytest.raises(InternalInvariantError):
        apply_price_rise(state, reach, bogus)


def test_price_rise_rederives_an_unreachable_agent_whose_edges_all_rise():
    # Agent 1 owns nothing, so it stays outside the reach while its only edge goes into it.
    inst = Instance.from_values([[1, 1], [1, 2], [0, 1]])
    state = EngineState.from_solution(inst, [[0], [], [1]], [F(1), F(1)])
    reach = reach_from(state, [2], 3)
    assert (reach.agents, reach.goods, state.mbb[1]) == ({2}, {1}, {1})
    apply_price_rise(state, reach, BetaBreakdown(None, None, F(3), F(3), "b3"))
    assert (state.alphas, state.mbb) == ([F(1), F(1), F(1, 3)], [{0}, {0}, {1}])


# ---------------------------------------------------------------------------
# transfers


def hoard_state() -> EngineState:
    inst = Instance.from_values([[1, 1, 1], [1, 1, 1]])
    return EngineState.from_solution(inst, [[0, 1, 2], []], [F(1), F(1), F(1)])


def test_transfer_two_agent_hoard():
    state = hoard_state()
    path = shortest_violator_path(state, reach_from(state, [1], 2), [0])
    assert transfer(state, path) == (1, 0)
    assert state.bundles == [{1, 2}, {0}]


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
            state._current_call = state.trace.start_call(
                state.num_agents, iteration_bound(state.num_agents, inst.m)
            )
            state._prev_potential = None
            while True:
                sizes = [len(b) for b in state.bundles]
                na = state.num_agents
                levels = reach_from(state, [state.k], na).levels
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
                new_levels = reach_from(state, [state.k], na).levels
                for i in range(na):
                    if levels[i] <= outcome.b:
                        assert new_levels[i] == levels[i]
            state._current_call = None
    assert seen_transfers > 0


# ---------------------------------------------------------------------------
# the rebalancing loop


def test_rebalance_demo_state_single_rise(demo_instance):
    state = demo_engine_state(demo_instance)
    find_solution(state)
    events = list(state.trace.events)
    assert len(events) == 1
    assert events[0].kind == "price_rise"
    betas = events[0].beta
    assert (betas.b1, betas.b2, betas.b3) == (F(5, 3), F(5, 3), F(5, 4))
    assert betas.chosen == "b3"
    out = state.to_solution()
    assert out.prices == (F(6), F(5), F(35, 4), F(15, 4), F(5))
    assert is_pef1(out)
    assert check_mbb_consistency(demo_instance, out)


def test_rebalance_noop_when_already_fair():
    inst = Instance.from_values([[1, 1], [1, 1]])
    state = EngineState.from_solution(inst, [[0], [1]], [F(1), F(1)])
    find_solution(state)
    assert state.trace.total_iterations == 0
    assert state.bundles == [{0}, {1}]


def test_rebalance_single_agent_never_iterates():
    inst = Instance.from_values([[4, 2, 1]])
    state = EngineState.from_solution(inst, [[0, 1, 2]], [F(4), F(2), F(1)])
    find_solution(state)
    assert state.trace.total_iterations == 0


def test_potential_on_demo_state(demo_instance):
    state = demo_engine_state(demo_instance)
    reach = reach_from(state, [2], 3)
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
        reach = reach_from(state, [n - 1], n)
        pot = compute_potential(state, reach)
        assert sum(pot[:-1]) == m


def test_potential_all_goods_at_level_zero():
    inst = Instance.from_values([[1, 1], [2, 2]])
    # the newest agent holds everything, so every good sits at level 0
    state = EngineState.from_solution(inst, [[], [0, 1]], [F(1), F(1)])
    reach = reach_from(state, [1], 2)
    pot = compute_potential(state, reach)
    assert pot[0] == 2
    assert sum(pot[:-1]) == 2


def test_iteration_bound_values():
    assert iteration_bound(1, 10) == 0
    assert iteration_bound(2, 5) > 0
    assert iteration_bound(3, 5) > iteration_bound(2, 5)


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
            if event.beta is not None:
                chosen[event.beta.chosen] += 1
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
    assert is_pef1(sol)
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
    assert not is_pef1(lopsided)


def test_solve_exercises_transfers():
    inst = Instance.from_values([[1, 1, 1], [1, 1, 1]])
    sol, trace = solve(inst)
    kinds = [e.kind for e in trace.events]
    assert "transfer" in kinds
    assert is_pef1(sol)


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
            state._current_call = state.trace.start_call(
                state.num_agents, iteration_bound(state.num_agents, inst.m)
            )
            state._prev_potential = None
            while True:
                spends, hats = spending_profile(state.bundles, state.fraction_prices())
                if state.num_agents > 1:
                    level = max(hats)
                    assert all(
                        spends[i] >= level
                        for i in range(state.num_agents - 1)
                    ) or min(spends) >= level
                if step(state) is None:
                    break
                prices = state.fraction_prices()
                alphas = compute_alphas(inst, prices, range(state.num_agents), state.goods)
                for i in range(state.num_agents):
                    for g in state.bundles[i]:
                        ratio = inst.valuations[i][g] / prices[g]
                        assert ratio == alphas[i]
            state._current_call = None
        final = state.to_solution()
        assert is_pef1(final)
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


def test_online_audit_catches_a_price_rise_that_moves_the_violation_level(monkeypatch):
    from fairmarket import engine
    from fairmarket.cli import generate_instance

    def overshoot(state, reach):
        # A rate past b2 (and short of b1) lifts a reachable hat over the level.
        b = compute_betas(state, reach)
        if b.b2 is None or (b.b1 is not None and b.b1 <= b.b2):
            return b
        beta = b.b2 * 2 if b.b1 is None else (b.b2 + b.b1) / 2
        return BetaBreakdown(b.b1, b.b2, b.b3, beta, "b2")

    monkeypatch.setattr(engine, "compute_betas", overshoot)
    with pytest.raises(InternalInvariantError, match="moved the violation level"):
        solve(generate_instance(3, 8, 10, 2))


# ---------------------------------------------------------------------------
# maintained market state


def rebuilt_market(state: EngineState) -> tuple:
    prices = state.fraction_prices()
    graph = MbbGraph.from_state(
        state.inst, state.bundles, prices, range(state.num_agents), state.goods
    )
    return (
        [graph.alphas[i] for i in graph.agents],
        [set(graph.mbb[i]) for i in graph.agents],
        *spending_profile(state.bundles, prices),
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
            state._current_call = state.trace.start_call(
                state.num_agents, iteration_bound(state.num_agents, m)
            )
            state._prev_potential = None
            while step(state) is not None:
                yield state
            state._current_call = None


def test_maintained_market_state_matches_rebuild_after_every_event():
    kinds = set()
    for state in stepped_states(seed=31, count=60, check=False):
        assert state.den >= 1 and gcd(state.den, *state.nums.values()) == 1
        spends, hats = ([F(x, state.den) for x in xs] for xs in (state.spends, state.hats))
        assert (state.alphas, state.mbb, spends, hats) == rebuilt_market(state)
        # searching the maintained state finds what searching a rebuilt graph finds
        graph = MbbGraph.from_state(
            state.inst, state.bundles, state.fraction_prices(), state.agents, state.goods
        )
        reach = reach_from(state, [state.k], state.num_agents)
        assert reach == reach_from(graph, [state.k], state.num_agents)
        others = [i for i in state.agents if i != state.k]
        assert shortest_violator_path(state, reach, others) == shortest_violator_path(
            graph, reach, others
        )
        if state.trace.events:
            kinds.add(state.trace.events[-1].kind)
            beta = state.trace.events[-1].beta
            kinds.add(beta and beta.chosen)
    assert {"transfer", "price_rise", "b1", "b2", "b3"} <= kinds


@pytest.mark.parametrize("target", ["alpha", "edge", "spend", "hat"])
def test_online_checks_catch_a_corrupted_maintained_state(target):
    from fairmarket.engine import step

    state = next(
        s for s in stepped_states(seed=7, count=20, check=True) if s.num_agents == 3
    )
    i = 0
    if target == "alpha":
        state.alphas[i] *= 2
    elif target == "edge":
        state.mbb[i] ^= {state.goods[-1]}
    elif target == "spend":
        state.spends[i] += 1
    else:
        state.hats[i] += 1
    with pytest.raises(InternalInvariantError):
        find_solution(state)
    with pytest.raises(InternalInvariantError):
        state._current_call = state.trace.start_call(3, iteration_bound(3, state.inst.m))
        while step(state) is not None:
            pass


@pytest.mark.parametrize("target", ["numerator", "denominator"])
def test_online_checks_catch_a_corrupted_price_vector(target):
    from fairmarket.engine import _check_state

    state = next(
        s for s in stepped_states(seed=7, count=20, check=True) if s.num_agents == 3
    )
    _check_state(state)
    if target == "numerator":
        state.nums[state.goods[0]] += 1
        message = "outside its best-ratio set|differs from a rebuild"
    else:
        # Every number doubled: the same prices, spends and hats over an unreduced den.
        state.nums = {g: 2 * num for g, num in state.nums.items()}
        state.den *= 2
        state.spends = [2 * spend for spend in state.spends]
        state.hats = [2 * hat for hat in state.hats]
        message = "not reduced"
    with pytest.raises(InternalInvariantError, match=message):
        _check_state(state)
