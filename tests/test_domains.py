"""Every instance of two small domains, solved, certified and digested.

Small integer values with zeros make ties the norm, and the engine's tie
rules are where its determinism lives.  So each domain below is run in
full: every valuation matrix over the value set, in `itertools.product`
order.  Each instance is solved with the online checks on, then `verify`
at the default brute-force cap must report ok and `audit_trace` must find
nothing.  Instances that fail the matching condition are counted, so a
change in what is refused shows.

One sha256 per domain runs over each instance in turn: its solution JSON
with sorted keys and a newline, then its trace text as `fairmarket solve
--trace` writes it, or the line "hall" for a refused instance.  Traces do
not depend on `check`, so hashing the checked solves holds the unchecked
ones too.  Recorded before trace lines were written by
`TraceEvent.to_json_line`, with the `json.dumps` writer it replaced.
"""

import hashlib
import json
from itertools import product

import pytest

from fairmarket import HallViolationError, Instance, audit_trace, solve, verify

# (agents, goods, values): (Hall-rejected count, sha256)
DOMAINS = {
    (2, 4, (0, 1, 2)): (16, "b1b64af968768b674993c7356e8e7978f72e2f119459cd1cb5824116614f67cb"),
    (3, 3, (0, 1, 2)): (1980, "7e3865b47e700e7e28892901cd5ddf8b7d71c3202fd0108be6a129a97eb831dc"),
}


def trace_text(trace) -> str:
    """The trace file `fairmarket solve --trace` writes for `trace`."""
    return "".join(ev.to_json_line() + "\n" for ev in trace.events)


def instances(n: int, m: int, values: tuple[int, ...]):
    for flat in product(values, repeat=n * m):
        yield Instance.from_values([flat[i * m : (i + 1) * m] for i in range(n)])


@pytest.mark.parametrize("domain", sorted(DOMAINS), ids=lambda d: "{}x{} over {}".format(*d))
def test_every_instance_of_a_small_domain_is_certified_and_digested(domain):
    refused, digest = 0, hashlib.sha256()
    for inst in instances(*domain):
        try:
            sol, trace = solve(inst)
        except HallViolationError:
            refused += 1
            digest.update(b"hall\n")
            continue
        assert verify(inst, sol).ok, inst
        assert audit_trace(trace.events, inst.m) == [], inst
        text = json.dumps(sol.to_json_dict(), sort_keys=True) + "\n" + trace_text(trace)
        digest.update(text.encode("utf-8"))
    assert (refused, digest.hexdigest()) == DOMAINS[domain]

