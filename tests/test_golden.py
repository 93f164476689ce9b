"""Golden digests: solutions and traces must stay byte-identical across refactors.

Each case is a seeded `generate_instance(n, m, 100, 11)` solved with the
online checks on and off, its agents added in input order or in the order
the case names (by `solve_in_order`).  The digests are sha256 of the
solution JSON and of the trace JSONL, both serialized as `fairmarket
solve` writes them.
Recorded before the engine kept its market state incrementally.

`RATIONAL_GOLDEN` holds the same digests for rational valuations, which
the benchmark corpora never draw: n=3 with each value `randint(1, 10)`
over its own prime, or over `randint(1, 12)`.  Recorded before the engine
kept its prices as integer numerators over one denominator.

The report digests are sha256 of `verify`'s report JSON, with sorted keys,
on the solution of each case above, and on small cases that the
brute-force searches do not skip.  Recorded before `verify` read each
instance through one integer view.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairmarket import Allocation, Instance, Solution, verify
from fairmarket.cli import generate_instance
from fairmarket.engine import solve

GOLDEN = {
    (3, 20, None): (
        "a376e12944108a07d6e1e30ea079c8e7dfe5dd589265ffa989d92f0b8cae23ee",
        "9f3b44751cd9507faa0b893e4bbd76a6effe791e32225b067b74eb8ee03aa9cf",
    ),
    (3, 40, None): (
        "49b508bb8fc5895a31492556b1f3d4367fa5bdcfa7652a2a4aac140f04316386",
        "1db9bff658b67a0f237732cac5ba473475095c2a5a26367f1fddf21e3042c019",
    ),
    (5, 15, None): (
        "af2d5269a7060dea36c2fe732a241352991d5fd17b48bd928c65dc38b8bf5db5",
        "b2a08cd8e9944c537d689eba0d5e78ae645a3ddbbcd63027d7d907b891fec7d4",
    ),
    (8, 24, None): (
        "9e22434201ffa3c98a7679ab4c7b973042ece90ef6ccd32de096722722c67d48",
        "88d1c3b30d4cf4f3a420637f59b5a6726d82d76bf38f9b222561a370ffb62382",
    ),
    (5, 15, (4, 2, 0, 3, 1)): (
        "93ab3d11dfffb144fe04c2168b9ad22169a7e813655b8a358eb89c6935d02661",
        "b6e2f0c7d403b1255d7e53ac11114ab078d720524e864b1d602256c6165ede95",
    ),
}

RATIONAL_GOLDEN = {
    (20, "primes"): (
        "56bd8700c3fa86d6f49222ffe53a45360549dbe6faa0e65276f34f296a96cd00",
        "24555389c9c280eb4c3bfd3ca600915be50fa9739d62011fa9933356bcd7f63c",
    ),
    (20, "small"): (
        "f9d0a570450ec0cf3f38a064af6b0a8ad5622643d5cbf17bebe6f53f98ffd85e",
        "fa41e8c88448ae727cc6d825a0279f59f5b86bcf441b8ff5ad1d338a772e7524",
    ),
    (40, "primes"): (
        "f9ad601affd98c83ffa779facf25235d2006e30ad2a1d317086b3fff980caa0a",
        "bae541f54bb076318cf4c0efe0a07c4d8af99b8b9c08cf00736c035e05fa9d20",
    ),
    (40, "small"): (
        "6d0457e09a57efc89d848fde5bf11f8bb3621de0db30894472412c10a183ea09",
        "c74520f05495cfeb80db8e6e9160076ff8db59feff5a428242aaff5f7a48fd1a",
    ),
}

REPORT_GOLDEN = {
    (3, 20, None): "796d2b69b8ad79ab83521306a0e88a2cd1e4642d8ee475287a7534fef719fb3b",
    (3, 40, None): "b18c70dd084362006a46e07dbbe9003efb56263bf6ef528c7efe5cb44a6e5f9b",
    (5, 15, None): "c41c978915bafa8b68bd47895d6d9c580d28ed5213ea5d4b6d20843888c1dd05",
    (8, 24, None): "662850dcd90585b896e7bb2405885604811b08d44717ab4a1b4afc98ffa3b72f",
    (5, 15, (4, 2, 0, 3, 1)): "573778f8f76c4725c8c7249ff2ccc7722284f64a6f0be69007a9116e60d6cad4",
}

RATIONAL_REPORT_GOLDEN = {
    (20, "primes"): "ab6a84a6191ca4327dd66bbd891a5fea1b345cb16b750a244234ad70dd6e3052",
    (20, "small"): "188eadb3f9b613bb60b432188cd2ca0a1ebbf215300d60f5986ee227ba854b4a",
    (40, "primes"): "694dc1f0fb03e2db31cc054a3a3e01758200e54b6c25e4f9c1405594aee21cc5",
    (40, "small"): "0cedc90bd488dfb4d7d0437108dad3c7bb3ca3b4a2a25ae83eb43f2fef3dac3a",
}

# Small cases, n**m within the brute-force cap: "int" is `generate_instance(n, m, 100, 11)`,
# "primes" and "small" are `rational_instance(m, ...)` with n=3.  Per case, the digests of the
# reports on its solution, on every good given to agent 0 at the solution's prices, and on
# the solution's bundles moved one agent up.
SEARCHED_REPORT_GOLDEN = {
    ("int", 2, 6): (
        "dd8e4fb44fd57b670b41082e11a25532da5393e4cd63795d72e5db5a99d552d3",
        "67797bc52176f590a12587c6741e2a93bd949c74ea1fd39295c9831743eecb01",
        "6fc65970242b63e4ccdc0de8e3b94117b6b372e6f7233218293638357166f486",
    ),
    ("int", 3, 8): (
        "02d4aaec78070e99b63ea6b2ae14e4660be59f0a88f7516cf62b1ab7a6aeedef",
        "5de35fb6183ec57426949d8a05e936ce55a0291b2ce392895f3d631fe76a95fe",
        "55138dbcf48ee3cb8ca87d598fc3f96058824790c813094900980d9cbf02db83",
    ),
    ("int", 4, 7): (
        "c1000a5d6d16bd63417a2969bbbd0ed685c8101086c766a5a5538f71b5dae2e6",
        "0bb4e81fdfd8b3ee9f39f065b34710b721d7bba2e30b58131b38918ed01ce075",
        "405398fe593ad908ddd5f701807c3d60eab576b2bf0c97a878bb906434ebbd92",
    ),
    ("primes", 3, 8): (
        "b6b155362aad65eeae74c2ebbb4c0cdfbd0ca7d02ad8ea71e7d771cc6df05ef9",
        "f8e68c86b635b78af5961ff3a3550cd300681490234262b4e4b033ce0ef47ae5",
        "38cd87320eb247efa8bae3510d33151cfb1487c393b892a6935f5d2683a2feda",
    ),
    ("small", 3, 8): (
        "380082912475b22bc80a088970d3f3a758389fd9891e189df8ffd51263e4a127",
        "6baec3a27b04fbbe135f7f5c8c5201f01f311ce198a3d732e471fe02bcd2c91a",
        "45f09f049766245a928bf231628dcfeabe1a9ca830004880068c55ac8bbc062e",
    ),
}


def primes(count: int) -> list[int]:
    found: list[int] = []
    q = 2
    while len(found) < count:
        if all(q % p for p in found if p * p <= q):
            found.append(q)
        q += 1
    return found


def rational_instance(m: int, over: str, seed: int = 0) -> Instance:
    """Three agents; each value over its own prime ("primes") or a small denominator."""
    rng = random.Random(seed)
    dens = iter(primes(3 * m)) if over == "primes" else None
    return Instance(
        tuple(
            tuple(
                Fraction(rng.randint(1, 10), next(dens) if dens else rng.randint(1, 12))
                for _ in range(m)
            )
            for _ in range(3)
        )
    )


def solve_in_order(inst: Instance, order: tuple[int, ...] | None, **kwargs):
    """`solve` adding agent `order[j]` j-th: solve the rows permuted to `order`, then map
    the bundles back to the input's agents."""
    order = order or range(inst.n)
    sol, trace = solve(Instance(tuple(inst.valuations[i] for i in order)), **kwargs)
    bundles = dict(zip(order, sol.allocation))
    return Solution(Allocation(tuple(bundles[i] for i in range(inst.n))), sol.prices), trace


def digests(sol, trace) -> tuple[str, str]:
    solution_text = json.dumps(sol.to_json_dict(), sort_keys=True)
    trace_text = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
    return sha256(solution_text), sha256(trace_text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(inst: Instance, sol: Solution) -> str:
    return sha256(json.dumps(verify(inst, sol).to_json_dict(), sort_keys=True))


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
def test_golden_digests(case, check):
    n, m, order = case
    sol, trace = solve_in_order(generate_instance(n, m, 100, 11), order, check=check)
    assert digests(sol, trace) == GOLDEN[case]


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", sorted(RATIONAL_GOLDEN), ids=str)
def test_rational_golden_digests(case, check):
    m, over = case
    sol, trace = solve(rational_instance(m, over), check=check)
    assert digests(sol, trace) == RATIONAL_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(REPORT_GOLDEN, key=str), ids=str)
def test_report_golden_digests(case):
    n, m, order = case
    inst = generate_instance(n, m, 100, 11)
    sol, _ = solve_in_order(inst, order)
    assert report_digest(inst, sol) == REPORT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(RATIONAL_REPORT_GOLDEN), ids=str)
def test_rational_report_golden_digests(case):
    inst = rational_instance(*case)
    sol, _ = solve(inst)
    assert report_digest(inst, sol) == RATIONAL_REPORT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SEARCHED_REPORT_GOLDEN), ids=str)
def test_searched_report_golden_digests(case):
    values, n, m = case
    inst = generate_instance(n, m, 100, 11) if values == "int" else rational_instance(m, values)
    sol, _ = solve(inst)
    bundles = sol.allocation.as_sorted_lists()
    moved = [[list(range(m))] + [[]] * (n - 1), bundles[1:] + bundles[:1]]
    solutions = [sol] + [Solution(Allocation.from_lists(b), sol.prices) for b in moved]
    assert tuple(report_digest(inst, s) for s in solutions) == SEARCHED_REPORT_GOLDEN[case]
