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


def _fail(code: int, kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return code


def _resolved_brute_cap(brute_cap: int | None) -> int:
    if brute_cap is not None:
        return brute_cap
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
    except ValueError as exc:  # malformed JSON, bad UTF-8, or an int past CPython's digit limit
        raise InvalidInputError(f"cannot parse {path} as JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError(f"{path} nests too deeply to parse") from None
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


def cmd_solve(args: argparse.Namespace) -> int:
    order = None
    if args.order is not None:
        try:
            order = [int(x) for x in args.order.split(",")]
        except ValueError:
            raise InvalidInputError(f"cannot parse --order {args.order!r}") from None
    inst = load_json(args.input, Instance.from_json_dict)
    solution, trace = solve(inst, order=order)
    report = verify(inst, solution, brute_cap=0)  # self-check without brute force
    if not report.ok:
        raise InternalInvariantError(f"self-verification failed: {report.to_json_dict()}")
    _write_text(args.output, json.dumps(solution.to_json_dict(), sort_keys=True))
    if args.trace is not None:
        lines = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
        Path(args.trace).write_text(lines, encoding="utf-8")
    if args.dump_graph is not None:
        from .market import build_graph, reach_from

        if all(p > 0 for p in solution.prices):
            graph = build_graph(inst, solution)
            dump = graph.as_dict()
            levels = reach_from(graph, [inst.n - 1], inst.n).levels
            dump["levels"] = {str(i): levels[i] for i in graph.agents}
        else:
            dump = {"note": "zero-priced goods present; graph restricted to none"}
        Path(args.dump_graph).write_text(json.dumps(dump, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_json(args.instance, Instance.from_json_dict)
    solution = load_json(args.solution, Solution.from_json_dict)
    report = verify(inst, solution, brute_cap=_resolved_brute_cap(args.brute_cap))
    checks = report.to_json_dict()
    print(json.dumps(checks, sort_keys=True))
    if not report.ok:
        failed = [c for c, passed in checks.items() if passed is False and c != "ok"]
        return _fail(EXIT_VERIFY_FAILED, "verification-failed", ", ".join(failed))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(args.n, args.m, args.max, args.seed)
    _write_text(args.output, json.dumps(inst.to_json_dict(), sort_keys=True))
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
    optimum = None if mnw is None else mnw[0]
    row["nsw_ratio"] = float(nash_product(inst, solution.allocation) / optimum) if optimum else None
    return row


def _bench_cells(spec: object) -> tuple[list[tuple[int, int, int, int]], list[str]]:
    """A bench spec's (n, m, max_value, seed) cells, in run order, and its instance paths."""
    try:
        cells = [
            (run["n"], m, run.get("max_value", 10), seed)
            for run in spec.get("runs", [])
            for m in (run["m"] if isinstance(run["m"], list) else [run["m"]])
            for seed in run.get("seeds", [0])
        ]
        paths = spec.get("instances", [])
    except (AttributeError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed bench spec: {exc!r}") from None
    if not all(type(x) is int for cell in cells for x in cell):
        raise InvalidInputError("bench spec 'n', 'm', 'max_value' and 'seeds' must be integers")
    if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
        raise InvalidInputError("bench spec 'instances' must be a list of file paths")
    return cells, paths


def cmd_bench(args: argparse.Namespace) -> int:
    cells, paths = load_json(args.spec, _bench_cells)
    cap = _resolved_brute_cap(args.brute_cap)
    rows = []
    for n, m, max_value, seed in cells:
        rows.append(_bench_one(generate_instance(n, m, max_value, seed), {"seed": seed}, cap))
    for path in paths:
        rows.append(_bench_one(load_json(path, Instance.from_json_dict), {"path": path}, cap))
    if args.output is not None and args.output.endswith(".csv"):
        fields = [
            "n", "m", "seed", "path", "iterations_per_call", "total_iterations",
            "bound_ratio_max", "wall_time_s", "nsw_ratio",
        ]
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                flat = dict(row)
                flat["iterations_per_call"] = ";".join(map(str, row["iterations_per_call"]))
                writer.writerow({f: flat.get(f, "") for f in fields})
    else:
        _write_text(args.output, json.dumps({"rows": rows}, sort_keys=True))
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
    p_solve.set_defaults(run=cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a solution against an instance")
    p_verify.add_argument("instance", help="instance JSON path")
    p_verify.add_argument("solution", help="solution JSON path")
    p_verify.add_argument("--brute-cap", type=int, help="state cap for brute-force checks")
    p_verify.set_defaults(run=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random solvable instance")
    p_gen.add_argument("-n", type=int, required=True, help="agent count")
    p_gen.add_argument("-m", type=int, required=True, help="good count (at least n)")
    p_gen.add_argument("--max", type=int, default=10, help="largest integer value")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="instance JSON path (default: stdout)")
    p_gen.set_defaults(run=cmd_gen)

    p_bench = sub.add_parser("bench", help="benchmark iteration counts and welfare ratios")
    p_bench.add_argument("--spec", required=True, help="bench specification JSON path")
    p_bench.add_argument("-o", "--output", help="report path (.json or .csv; default stdout)")
    p_bench.add_argument("--brute-cap", type=int, help="state cap for the welfare oracle")
    p_bench.set_defaults(run=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; its errors exit with their code and one JSON line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InvalidInputError as exc:
        return _fail(EXIT_INVALID_INPUT, "invalid-input", str(exc))
    except HallViolationError as exc:
        return _fail(EXIT_HALL_VIOLATION, "hall-violation", str(exc))
    except InternalInvariantError as exc:
        return _fail(EXIT_INTERNAL, "internal-invariant", str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
