"""Command-line interface: solve, verify, and gen.

Exit codes: 0 success, 1 invalid input, 2 matching-condition violation,
3 internal invariant breach, 4 verification found a failing check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from .core import (
    HallViolationError,
    Instance,
    InternalInvariantError,
    InvalidInputError,
    Solution,
)
from .engine import solve
from .oracles import verify

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_HALL_VIOLATION = 2
EXIT_INTERNAL = 3
EXIT_VERIFY_FAILED = 4


def _fail(code: int, kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return code


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


@contextmanager
def _unlimited_digits():
    """Lift CPython's int/str digit limit, which input keeps, around the CLI's output."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _write_text(path: str | None, text: str) -> None:
    """Write `text` to `path`, or to stdout if None, ending a non-empty text with a newline."""
    if text and not text.endswith("\n"):
        text += "\n"
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # a full disk or a closed pipe shows here, not at exit
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        if path is None:  # the text stays buffered: send it, and the exit-time flush, nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InvalidInputError(f"cannot write {path or 'stdout'}: {exc}") from None


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
    inst = load_json(args.input, Instance.from_json_dict)
    solution, trace = solve(inst)
    report = verify(inst, solution, brute_cap=0)  # self-check without brute force
    with _unlimited_digits():
        if not report.ok:
            raise InternalInvariantError(f"self-verification failed: {report.to_json_dict()}")
        _write_text(args.output, json.dumps(solution.to_json_dict(), sort_keys=True))
        if args.trace is not None:
            _write_text(args.trace, "\n".join(ev.to_json_line() for ev in trace.events))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.brute_cap or 0) < 0:  # exit 1 here, not argparse's exit 2
        raise InvalidInputError("--brute-cap must be at least 0")
    inst = load_json(args.instance, Instance.from_json_dict)
    solution = load_json(args.solution, Solution.from_json_dict)
    report = verify(inst, solution, brute_cap=args.brute_cap)
    with _unlimited_digits():
        checks = report.to_json_dict()
        _write_text(None, json.dumps(checks, sort_keys=True))
    if not report.ok:
        failed = [c for c, passed in checks.items() if passed is False and c != "ok"]
        return _fail(EXIT_VERIFY_FAILED, "verification-failed", ", ".join(failed))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(args.n, args.m, args.max, args.seed)
    _write_text(args.output, json.dumps(inst.to_json_dict(), sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@cache
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
