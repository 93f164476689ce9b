"""One benchmark workload in a fresh interpreter: set up, then measure.

Prints `READY` once set-up is done (the parent times set-up up to that
line), then zero or more detail lines, then one JSON result line.  With
`--setup-only` it exits right after `READY`.

Set-up imports `fairmarket` from the checkout's `src`, builds the seeded
corpus and writes it as instance files (`wide`, which goes through the
CLI) or round-trips it through JSON (`crowd`, `audit`).

The untraced run cycles through the corpus, one instance at a time,
until `--seconds` have passed and every instance has run at least once.
An instance's latency is the median of its repeats, each corrected for
the host's speed at the time by probes taken between instances
(`hostclock`), since a shared host's slow spells last longer than an
instance.

The traced run solves each instance once untraced and once with span
wrappers installed, and reports the per-layer split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import certify
import corpus
import hostclock
import spans

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 0

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
# Self time of a span, unless noted.
SPAN_METRICS = {
    "core.normalize_s": "core.normalize",
    "core.hall_s": "core.hall",
    "core.denormalize_s": "core.denormalize",
    "core.profile_s": "core.profile",
    "market.graph_build_s": "market.graph_build",
    "market.reach_s": "market.reach",
    "market.path_s": "market.path",
    "engine.add_agent_s": "engine.add_agent",
    "engine.betas_s": "engine.betas",
    "engine.price_rise_s": "engine.price_rise",
    "engine.transfer_s": "engine.transfer",
    "engine.potential_s": "engine.potential",
    "engine.step_self_s": "engine.step",
    "oracles.ef1_s": "oracles.ef1",
    "oracles.mbb_cert_s": "oracles.mbb_cert",
    "oracles.brute_po_s": "oracles.brute_po",
    "oracles.brute_mnw_s": "oracles.brute_mnw",
    "oracles.audit_trace_s": "oracles.audit_trace",
    "cli.io_s": "cli.main",
}
INCLUSIVE_SPAN_METRICS = {
    "engine.checks_s": "engine.checks",
    "oracles.verify_s": "oracles.verify",
}
PER_ITER_METRICS = {
    "core.profile_calls_per_iter": "core.profile",
    "market.graph_builds_per_iter": "market.graph_build",
}
COUNTER_METRICS = {
    "engine.iterations": ("iterations", "count"),
    "engine.transfers": ("transfers", "count"),
    "engine.price_rises": ("price_rises", "count"),
    "engine.bound_ratio_max": ("bound_ratio_max", "ratio"),
    "engine.price_bits_max": ("price_bits_max", "bits"),
}
PER_LAYER_UNITS = (
    {name: "s" for name in SPAN_METRICS}
    | {name: "s" for name in INCLUSIVE_SPAN_METRICS}
    | {name: "calls/iter" for name in PER_ITER_METRICS}
    | {name: unit for name, (_, unit) in COUNTER_METRICS.items()}
    | {
        "market.reach_agents_mean": "agents",
        "market.path_goods_mean": "goods",
        "oracles.brute_skipped": "count",
        "bench.trace_overhead_frac": "frac",
        "bench.traced_wall_s": "s",
    }
)


class InstanceFailed(Exception):
    """The program reported a failure, or its output failed a check."""


@dataclass
class Item:
    """One corpus instance in the form its workload hands to the program."""

    values: list[list[int]]
    instance: object = None  # a parsed fairmarket.Instance (crowd, audit)
    path: str = ""  # instance file (wide)
    out: str = ""  # solution file (wide)
    trace: str = ""  # trace file (wide)


def import_program() -> None:
    """Import the checkout's own `fairmarket` package."""
    sys.path.insert(0, str(ROOT / "src"))
    import fairmarket

    if Path(fairmarket.__file__).resolve().parent != ROOT / "src" / "fairmarket":
        raise ImportError(f"fairmarket imported from {fairmarket.__file__}, not {ROOT / 'src'}")


def prepare(workload: str, values_list: list, workdir: Path) -> list[Item]:
    """Hand each instance to the program's input format: files or parsed JSON."""
    from fairmarket import Instance

    items = []
    for idx, values in enumerate(values_list):
        text = json.dumps(
            {"agents": len(values), "goods": len(values[0]), "valuations": values},
            sort_keys=True,
        )
        if workload == "wide":
            path = workdir / f"{idx:04d}.json"
            path.write_text(text + "\n", encoding="utf-8")
            items.append(
                Item(values, path=str(path), out=str(workdir / f"{idx:04d}.sol.json"),
                     trace=str(workdir / f"{idx:04d}.trace.jsonl"))
            )
        else:
            items.append(Item(values, instance=Instance.from_json_dict(json.loads(text))))
    return items


# ---------------------------------------------------------------------------
# one instance per workload: returns (seconds, solution JSON, trace records)


def run_wide(item: Item):
    from fairmarket import cli

    start = perf_counter()
    code = cli.main(["solve", item.path, "-o", item.out, "--trace", item.trace])
    took = perf_counter() - start
    if code != 0:
        raise InstanceFailed(f"solve exited with {code}")
    solution = json.loads(Path(item.out).read_text(encoding="utf-8"))
    with open(item.trace, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return took, solution, records


def run_crowd(item: Item):
    from fairmarket import engine, oracles

    start = perf_counter()
    sol, trace = engine.solve(item.instance, check=False)
    report = oracles.verify(item.instance, sol, brute_cap=0)
    took = perf_counter() - start
    if not report.ok:
        raise InstanceFailed(f"verify failed: {report.to_json_dict()}")
    return took, sol.to_json_dict(), list(trace.iter_json_dicts())


def run_audit(item: Item):
    from fairmarket import engine, oracles

    start = perf_counter()
    sol, trace = engine.solve(item.instance)
    report = oracles.verify(item.instance, sol)
    violations = oracles.audit_trace(trace.events, item.instance.m)
    took = perf_counter() - start
    if not report.ok:
        raise InstanceFailed(f"verify failed: {report.to_json_dict()}")
    if report.brute_po is None or report.mnw_product is None:
        raise InstanceFailed("a brute-force oracle skipped an instance under the cap")
    if violations:
        raise InstanceFailed(f"trace audit: {violations[:3]}")
    return took, sol.to_json_dict(), list(trace.iter_json_dicts())


RUNNERS = {"wide": run_wide, "crowd": run_crowd, "audit": run_audit}


# ---------------------------------------------------------------------------
# checking outputs


def corpus_digest(values_list: list) -> str:
    return hashlib.sha256(json.dumps(values_list).encode("utf-8")).hexdigest()


def load_golden(workload: str, seed: int, values_list: list) -> list | None:
    """Committed (solution, trace) digests per instance, for the golden seed only.

    A corpus that no longer matches the golden one yields a list of Nones,
    so every instance counts as a mismatch.
    """
    if seed != GOLDEN_SEED:
        return None
    golden = json.loads((GOLDEN_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    if golden["corpus_sha256"] != corpus_digest(values_list):
        return [None] * len(values_list)
    return [tuple(pair) for pair in golden["outputs"]]


class Checker:
    """Certifies each output and holds every instance to its first result."""

    def __init__(self, count: int, golden: list | None) -> None:
        self.golden = golden
        self.first: list[tuple | None] = [None] * count
        self.attempted = 0
        self.failed = 0
        self.golden_mismatches = 0
        self.nondeterministic = 0
        self.errors: list[str] = []

    def run(self, runner, items: list[Item], idx: int) -> float | None:
        """Seconds the instance took when it ran and passed every check, else None."""
        self.attempted += 1
        item = items[idx]
        try:
            took, solution, records = runner(item)
            found = certify.problems(item.values, solution)
            if found:
                raise InstanceFailed("; ".join(found[:3]))
        except Exception as exc:  # one instance must never abort the run
            self.failed += 1
            self.errors.append(f"instance {idx}: {type(exc).__name__}: {exc}"[:300])
            return None
        outcome = (
            certify.digests(solution, records),
            certify.counters(item.values, solution, records),
        )
        if self.first[idx] is None:
            self.first[idx] = outcome
            if self.golden is not None and self.golden[idx] != outcome[0]:
                self.golden_mismatches += 1
        elif self.first[idx] != outcome:
            self.nondeterministic += 1
        return took

    def counters(self) -> dict:
        total: dict = {}
        for outcome in self.first:
            if outcome is not None:
                certify.merge_counters(total, outcome[1])
        return total

    @property
    def clean(self) -> bool:
        return not (self.failed or self.golden_mismatches or self.nondeterministic)

    def detail(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
            "golden_checked": self.golden is not None,
            "golden_mismatch_frac": self.golden_mismatches / len(self.first),
            "nondeterministic": self.nondeterministic,
            "counters": self.counters(),
            "errors": self.errors[:5],
        }


# ---------------------------------------------------------------------------
# the two runs


def measure(items: list[Item], runner, seconds: float, checker: Checker) -> tuple[dict, dict]:
    """Untraced run: (end-to-end metrics without setup_s, detail).

    An instance's latency is the median of its repeats, each corrected to
    the nominal host speed (see `hostclock`).
    """
    clock = hostclock.HostClock()
    repeats: list[list[int]] = [[] for _ in items]  # sample indices per instance
    start = perf_counter()
    i = 0
    while i < len(items) or perf_counter() - start < seconds:
        idx = i % len(items)
        clock.before_instance()
        took = checker.run(runner, items, idx)
        if took is not None:
            repeats[idx].append(clock.record(took))
        i += 1
    clock.probe()
    wall = perf_counter() - start
    corrected = clock.corrected()
    done = [statistics.median(corrected[s] for s in r) for r in repeats if r]
    if not done:
        raise InstanceFailed("no instance completed")
    raw = [min(clock.samples[s][1] for s in r) for r in repeats if r]
    metrics = {
        "instances_per_s": len(done) / sum(done),
        "latency_ms.p50": quantile(done, 0.5) * 1000,
        "latency_ms.p90": quantile(done, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = checker.detail() | {
        "instances": len(items),
        "passes": i / len(items),
        "samples": len(clock.samples),
        "wall_s": wall,
        "probes": len(clock.probes),
        "probe_min_ms": min(clock.probes) * 1000,
        "probe_median_ms": statistics.median(clock.probes) * 1000,
        "uncorrected_best_instances_per_s": len(raw) / sum(raw),
        "uncorrected_best_latency_ms.p50": statistics.median(raw) * 1000,
    }
    return metrics, detail


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    mass over each one's slot, so the estimate does not rest on the one or
    two instances nearest the quantile (on `wide`, 20 instances of four
    sizes).  Each slot's mass is summed over 32 midpoints.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 32
    slots = n * steps

    def log_density(k: int) -> float:  # at the k-th of `slots` midpoints
        u = (k + 0.5) / slots
        return (a - 1) * math.log(u) + (b - 1) * math.log1p(-u)

    peak = max(log_density(k) for k in range(slots))
    weights = [
        sum(math.exp(log_density(i * steps + j) - peak) for j in range(steps)) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure_traced(items: list[Item], runner, checker: Checker) -> tuple[dict, dict]:
    """Traced run: (per-layer metrics, detail).

    Each instance runs untraced and then traced, back to back, so both
    sides of the tracing overhead see the same state of the host.  The
    wrappers are installed around the traced solve only.
    """
    tracer = spans.Tracer()
    plain_wall = traced_wall = 0.0
    for idx in range(len(items)):
        plain_wall += checker.run(runner, items, idx) or 0.0
        with tracer:
            traced_wall += checker.run(runner, items, idx) or 0.0
    counts = checker.counters()
    iterations = counts.get("iterations", 0)
    stats = tracer.stats

    metrics: dict = {}
    for name, span in SPAN_METRICS.items():
        if span not in tracer.missing:
            metrics[name] = stats[span][1] / 1e9
    for name, span in INCLUSIVE_SPAN_METRICS.items():
        if span not in tracer.missing:
            metrics[name] = stats[span][2] / 1e9
    for name, span in PER_ITER_METRICS.items():
        if span not in tracer.missing and iterations:
            metrics[name] = stats[span][0] / iterations
    for name, (key, _) in COUNTER_METRICS.items():
        if key in counts:
            metrics[name] = counts[key]
    for name, (span, sample) in {
        "market.reach_agents_mean": ("market.reach", "reach_agents"),
        "market.path_goods_mean": ("market.path", "path_goods"),
    }.items():
        taken, total = tracer.observed.get(sample, (0, 0))
        if span not in tracer.missing and taken:
            metrics[name] = total / taken
    if not {"oracles.brute_po", "oracles.brute_mnw"} & tracer.missing:
        metrics["oracles.brute_skipped"] = tracer.observed.get("brute_skipped", (0, 0))[1]
    metrics["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1
    metrics["bench.traced_wall_s"] = traced_wall
    detail = checker.detail() | {
        "instances": len(items),
        "untraced_wall_s": plain_wall,
        "missing_spans": sorted(tracer.missing),
        "self_share": {
            span: round(rec[1] / 1e9 / traced_wall, 4) for span, rec in sorted(stats.items())
        },
    }
    return metrics, detail


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_program()
        values_list = corpus.build_corpus(args.workload, args.seed)
        items = prepare(args.workload, values_list, workdir)
        checker = Checker(len(items), load_golden(args.workload, args.seed, values_list))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        runner = RUNNERS[args.workload]
        if args.trace:
            metrics, detail = measure_traced(items, runner, checker)
            correct = checker.clean
            if args.workload == "audit":
                correct = correct and metrics.get("oracles.brute_skipped", 0) == 0
        else:
            wrapped_before = spans.installed()
            metrics, detail = measure(items, runner, args.seconds, checker)
            detail["wrappers_installed"] = wrapped_before + spans.installed()
            correct = checker.clean and not detail["wrappers_installed"]
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        print(json.dumps({"workload": args.workload, "seed": args.seed} | detail), flush=True)
        print(json.dumps({
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
