"""Golden digests: solutions and traces must stay byte-identical across refactors.

Each case is a seeded `generate_instance(n, m, 100, 11)` solved with the
online checks on and off.  The digests are sha256 of the solution JSON and
of the trace JSONL, both serialized as `fairmarket solve` writes them.
Recorded before the engine kept its market state incrementally.
"""

import hashlib
import json

import pytest

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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=str)
def test_golden_digests(case, check):
    n, m, order = case
    sol, trace = solve(generate_instance(n, m, 100, 11), order=order, check=check)
    solution_text = json.dumps(sol.to_json_dict(), sort_keys=True)
    trace_text = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
    assert (sha256(solution_text), sha256(trace_text)) == GOLDEN[case]
