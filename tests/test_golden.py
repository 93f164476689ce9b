"""Golden digests: solutions and traces must stay byte-identical across refactors.

Each case is a seeded `generate_instance(n, m, 100, 11)` solved with the
online checks on and off.  The digests are sha256 of the solution JSON and
of the trace JSONL, both serialized as `fairmarket solve` writes them.
Recorded before the engine kept its market state incrementally.

`RATIONAL_GOLDEN` holds the same digests for rational valuations, which
the benchmark corpora never draw: n=3 with each value `randint(1, 10)`
over its own prime, or over `randint(1, 12)`.  Recorded before the engine
kept its prices as integer numerators over one denominator.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairmarket import Instance
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


def digests(sol, trace) -> tuple[str, str]:
    solution_text = json.dumps(sol.to_json_dict(), sort_keys=True)
    trace_text = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
    return sha256(solution_text), sha256(trace_text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
def test_golden_digests(case, check):
    n, m, order = case
    sol, trace = solve(generate_instance(n, m, 100, 11), order=order, check=check)
    assert digests(sol, trace) == GOLDEN[case]


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", sorted(RATIONAL_GOLDEN), ids=str)
def test_rational_golden_digests(case, check):
    m, over = case
    sol, trace = solve(rational_instance(m, over), check=check)
    assert digests(sol, trace) == RATIONAL_GOLDEN[case]
