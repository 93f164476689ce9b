"""Every instance of a few small domains, solved, certified and digested.

Small integer values with zeros make ties the norm, and the engine's tie
rules are where its determinism lives.  So each domain below is run in
full: every valuation matrix over the value set, in `itertools.product`
order.  The rational domain gives its values distinct denominators.  Each
instance is solved with the online checks on, then `verify` at the default
brute-force cap must report ok and `audit_trace` must find nothing.
Instances that fail the matching condition are counted, so a change in
what is refused shows.

One sha256 per domain runs over each instance in turn: its solution JSON
with sorted keys and a newline, then its trace text as `fairmarket solve
--trace` writes it, or the line "hall" for a refused instance.  Traces do
not depend on `check`, so hashing the checked solves holds the unchecked
ones too.  The two tier-1 digests over {0, 1, 2} were recorded before
trace lines were written by `TraceEvent.to_json_line`, with the
`json.dumps` writer it replaced; the rational domain's and those of 4×3
over {0, 1, 2} and 2×5 over {0, 1, 3} before a price rise rescaled in
one pass and a transfer moved numerators instead of re-summing bundles;
that of 3×4 over {0, 1, 2} before the search kept agent lists and marked
the path one level at a time.

The larger domains in `LARGER` take half a minute to a few minutes each
(3×4 over {0, 1, 2} the longest), too long for tier-1; `python
tests/test_domains.py` runs them and exits 1 if any count or digest
differs.
"""

import hashlib
import json
import sys
from fractions import Fraction
from itertools import product

import pytest

from fairmarket import HallViolationError, Instance, audit_trace, solve, verify

# (agents, goods, values): (Hall-rejected count, sha256)
DOMAINS = {
    (2, 4, (0, 1, 2)): (16, "b1b64af968768b674993c7356e8e7978f72e2f119459cd1cb5824116614f67cb"),
    (3, 3, (0, 1, 2)): (1980, "7e3865b47e700e7e28892901cd5ddf8b7d71c3202fd0108be6a129a97eb831dc"),
    (2, 3, (0, Fraction(1, 2), 1, 3)): (27, "3ecefcfecf094cb8248c9c160c7d3c9b982317149eb3e38f15aaf20c77d217bb"),
}

LARGER = {
    (4, 3, (0, 1, 2)): (464824, "0b55854c296ba0a3be9e5f5e6e8d232eea87a8e0b63dff19c88d94ee1a4e679f"),
    (2, 5, (0, 1, 3)): (20, "3cceca1d3490923b18e783346d6f0e8a83b722c9800087093a84d2f6f21f4217"),
    (3, 4, (0, 1, 2)): (5936, "ecbdd59685aaf206c09e5a056c8f091ea6cb2cc99da8b690dc73bd5a620e06d8"),
}


def trace_text(trace) -> str:
    """The trace file `fairmarket solve --trace` writes for `trace`."""
    return "".join(ev.to_json_line() + "\n" for ev in trace.events)


def instances(n: int, m: int, values: tuple):
    for flat in product(values, repeat=n * m):
        yield Instance.from_values([flat[i * m : (i + 1) * m] for i in range(n)])


def name(domain) -> str:
    n, m, values = domain
    return f"{n}x{m} over ({', '.join(map(str, values))})"


def certify_and_digest(domain) -> tuple[int, str]:
    """The domain's Hall-rejection count and sha256, after certifying every solved instance."""
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
    return refused, digest.hexdigest()


@pytest.mark.parametrize("domain", sorted(DOMAINS), ids=name)
def test_every_instance_of_a_small_domain_is_certified_and_digested(domain):
    assert certify_and_digest(domain) == DOMAINS[domain]


if __name__ == "__main__":
    failed = False
    for domain, expected in LARGER.items():
        got = certify_and_digest(domain)
        print(name(domain), *got, "ok" if got == expected else "DIFFERS", flush=True)
        failed |= got != expected
    sys.exit(failed)
