"""Command-line interface: solve, verify, gen, and bench.

Exit codes: 0 success, 1 invalid input, 2 matching-condition violation,
3 internal invariant breach, 4 verification found a failing check.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .core import (
    HallViolationError,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
)
from .engine import solve
from .oracles import (
    DEFAULT_BRUTE_CAP,
    brute_force_mnw,
    nash_product,
    verify,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_HALL_VIOLATION = 2
EXIT_INTERNAL = 3
EXIT_VERIFY_FAILED = 4

BRUTE_CAP_ENV = "FAIRMARKET_BRUTE_CAP"


@dataclass
class RunConfig:
    """Parsed command-line invocation."""

    command: str
    input_path: str | None = None
    solution_path: str | None = None
    output_path: str | None = None
    trace_path: str | None = None
    graph_path: str | None = None
    order: list[int] | None = None
    seed: int = 0
    n: int = 0
    m: int = 0
    max_value: int = 10
    brute_cap: int | None = None
    bench_spec: str | None = None


def _fail(code: int, kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return code


def _resolved_brute_cap(cfg: RunConfig) -> int:
    if cfg.brute_cap is not None:
        return cfg.brute_cap
    env = os.environ.get(BRUTE_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError(f"{BRUTE_CAP_ENV} must be an integer, got {env!r}")
    return DEFAULT_BRUTE_CAP


def load_json(path: str, parse):
    """Read a JSON file and parse it, e.g. with `Instance.from_json_dict`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from None
    return parse(obj)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def generate_instance(n: int, m: int, max_value: int, seed: int) -> Instance:
    """Seeded random instance with a planted agent-to-good matching.

    Values are uniform integers in [0, max_value]; one distinct good per
    agent is forced positive, so the normalized instance always satisfies
    the matching condition.
    """
    if n < 1:
        raise InvalidInputError("need at least one agent")
    if n > m:
        raise InvalidInputError(f"need at least as many goods as agents (n={n}, m={m})")
    if max_value < 1:
        raise InvalidInputError("max value must be at least 1")
    rng = random.Random(seed)
    values = [[rng.randint(0, max_value) for _ in range(m)] for _ in range(n)]
    for i, g in enumerate(rng.sample(range(m), n)):
        values[i][g] = max(1, values[i][g])
    return Instance.from_values(values)


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: RunConfig) -> int:
    try:
        inst = load_json(cfg.input_path, Instance.from_json_dict)
        if cfg.order is not None and sorted(cfg.order) != list(range(inst.n)):
            raise InvalidInputError(f"--order must be a permutation of 0..{inst.n - 1}")
    except InvalidInputError as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", str(exc))
    try:
        solution, trace = solve(inst, order=cfg.order)
    except HallViolationError as exc:
        return _fail(EXIT_HALL_VIOLATION, "hall-violation", str(exc))
    except InternalInvariantError as exc:
        return _fail(EXIT_INTERNAL, "internal-invariant", str(exc))

    try:
        report = verify(inst, solution, brute_cap=0)  # self-check without brute force
        if not report.ok:
            raise InternalInvariantError(f"self-verification failed: {report.to_json_dict()}")
    except InternalInvariantError as exc:
        return _fail(EXIT_INTERNAL, "internal-invariant", str(exc))

    _write_text(cfg.output_path, json.dumps(solution.to_json_dict(), sort_keys=True))
    if cfg.trace_path is not None:
        lines = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
        Path(cfg.trace_path).write_text(lines, encoding="utf-8")
    if cfg.graph_path is not None:
        from .market import build_graph, reach_from

        if all(p > 0 for p in solution.prices):
            graph = build_graph(inst, solution)
            dump = graph.as_dict()
            levels = reach_from(graph, [inst.n - 1], inst.n).levels
            dump["levels"] = {str(i): levels[i] for i in graph.agents}
        else:
            dump = {"note": "zero-priced goods present; graph restricted to none"}
        Path(cfg.graph_path).write_text(json.dumps(dump, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    try:
        inst = load_json(cfg.input_path, Instance.from_json_dict)
        solution = load_json(cfg.solution_path, Solution.from_json_dict)
        cap = _resolved_brute_cap(cfg)
        report = verify(inst, solution, brute_cap=cap)
    except InvalidInputError as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", str(exc))
    except InternalInvariantError as exc:
        return _fail(EXIT_INTERNAL, "internal-invariant", str(exc))
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_gen(cfg: RunConfig) -> int:
    try:
        inst = generate_instance(cfg.n, cfg.m, cfg.max_value, cfg.seed)
    except InvalidInputError as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", str(exc))
    _write_text(cfg.output_path, json.dumps(inst.to_json_dict(), sort_keys=True))
    return EXIT_OK


def _bench_one(inst: Instance, label: dict, cap: int) -> dict:
    started = time.perf_counter()
    solution, trace = solve(inst)
    elapsed = time.perf_counter() - started
    row = dict(label)
    row.update(
        {
            "n": inst.n,
            "m": inst.m,
            "iterations_per_call": [c.iterations for c in trace.calls],
            "total_iterations": trace.total_iterations,
            "bound_ratio_max": max(
                (float(c.iterations / c.bound) for c in trace.calls if c.bound > 0),
                default=0.0,
            ),
            "wall_time_s": round(elapsed, 6),
        }
    )
    mnw = brute_force_mnw(inst, cap)
    if mnw is not None and mnw[0] > 0:
        ratio = nash_product(inst, solution.allocation) / mnw[0]
        row["nsw_ratio"] = float(ratio)
    else:
        row["nsw_ratio"] = None
    return row


def cmd_bench(cfg: RunConfig) -> int:
    try:
        with open(cfg.bench_spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", f"cannot read bench spec: {exc}")
    try:
        cap = _resolved_brute_cap(cfg)
        rows = []
        for sweep in spec.get("runs", []):
            n = sweep["n"]
            ms = sweep["m"] if isinstance(sweep["m"], list) else [sweep["m"]]
            max_value = sweep.get("max_value", 10)
            seeds = sweep.get("seeds", [0])
            for m in ms:
                for seed in seeds:
                    inst = generate_instance(n, m, max_value, seed)
                    rows.append(_bench_one(inst, {"seed": seed}, cap))
        for path in spec.get("instances", []):
            inst = load_json(path, Instance.from_json_dict)
            rows.append(_bench_one(inst, {"path": path}, cap))
    except InvalidInputError as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", str(exc))
    except HallViolationError as exc:
        return _fail(EXIT_HALL_VIOLATION, "hall-violation", str(exc))
    except InternalInvariantError as exc:
        return _fail(EXIT_INTERNAL, "internal-invariant", str(exc))

    if cfg.output_path is not None and cfg.output_path.endswith(".csv"):
        fields = [
            "n", "m", "seed", "path", "iterations_per_call", "total_iterations",
            "bound_ratio_max", "wall_time_s", "nsw_ratio",
        ]
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                flat = dict(row)
                flat["iterations_per_call"] = ";".join(map(str, row["iterations_per_call"]))
                writer.writerow({f: flat.get(f, "") for f in fields})
    else:
        _write_text(cfg.output_path, json.dumps({"rows": rows}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmarket",
        description="EF1 + fractionally Pareto optimal allocations via market dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("input", help="instance JSON path")
    p_solve.add_argument("-o", "--output", help="solution JSON path (default: stdout)")
    p_solve.add_argument("--trace", help="write the event trace as JSON lines")
    p_solve.add_argument("--dump-graph", help="write the final ratio graph as JSON")
    p_solve.add_argument(
        "--order",
        help="agent insertion order as comma-separated original indices, e.g. 2,0,1",
    )

    p_verify = sub.add_parser("verify", help="verify a solution against an instance")
    p_verify.add_argument("instance", help="instance JSON path")
    p_verify.add_argument("solution", help="solution JSON path")
    p_verify.add_argument("--brute-cap", type=int, help="state cap for brute-force checks")

    p_gen = sub.add_parser("gen", help="generate a random solvable instance")
    p_gen.add_argument("-n", type=int, required=True, help="agent count")
    p_gen.add_argument("-m", type=int, required=True, help="good count (at least n)")
    p_gen.add_argument("--max", type=int, default=10, help="largest integer value")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="instance JSON path (default: stdout)")

    p_bench = sub.add_parser("bench", help="benchmark iteration counts and welfare ratios")
    p_bench.add_argument("--spec", required=True, help="bench specification JSON path")
    p_bench.add_argument("-o", "--output", help="report path (.json or .csv; default stdout)")
    p_bench.add_argument("--brute-cap", type=int, help="state cap for the welfare oracle")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command == "solve":
        cfg.input_path = args.input
        cfg.output_path = args.output
        cfg.trace_path = args.trace
        cfg.graph_path = args.dump_graph
        if args.order is not None:
            try:
                cfg.order = [int(x) for x in args.order.split(",")]
            except ValueError:
                raise InvalidInputError(f"cannot parse --order {args.order!r}")
    elif args.command == "verify":
        cfg.input_path = args.instance
        cfg.solution_path = args.solution
        cfg.brute_cap = args.brute_cap
    elif args.command == "gen":
        cfg.n = args.n
        cfg.m = args.m
        cfg.max_value = args.max
        cfg.seed = args.seed
        cfg.output_path = args.output
    elif args.command == "bench":
        cfg.bench_spec = args.spec
        cfg.output_path = args.output
        cfg.brute_cap = args.brute_cap
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except InvalidInputError as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", str(exc))
    dispatch = {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "gen": cmd_gen,
        "bench": cmd_bench,
    }
    return dispatch[cfg.command](cfg)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
