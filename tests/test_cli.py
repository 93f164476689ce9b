import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmarket import Instance, Solution, check_hall, normalize_instance, solve
from fairmarket.cli import build_parser, generate_instance, main
from fairmarket.engine import iteration_bound

DEMO = {
    "agents": 3,
    "goods": 5,
    "valuations": [[6, 5, 0, 0, 0], [0, 1, 7, 3, 0], [2, 3, 6, 3, 4]],
}

def write_demo(tmp_path, name="inst.json", obj=None):
    path = tmp_path / name
    path.write_text(json.dumps(obj if obj is not None else DEMO))
    return str(path)

# ---------------------------------------------------------------------------
# gen

def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "-n", "3", "-m", "5", "--max", "9", "--seed", "7", "-o", str(a)]) == 0
    assert main(["gen", "-n", "3", "-m", "5", "--max", "9", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

def test_gen_output_always_solvable():
    for seed in range(25):
        inst = generate_instance(3, 6, 10, seed)
        core, _ = normalize_instance(inst)
        assert core is not None and check_hall(core)

def test_gen_rejects_more_agents_than_goods(tmp_path):
    assert main(["gen", "-n", "3", "-m", "2", "-o", str(tmp_path / "x.json")]) == 1

def test_gen_rejects_zero_max(tmp_path):
    assert main(["gen", "-n", "2", "-m", "3", "--max", "0", "-o", str(tmp_path / "x.json")]) == 1

# ---------------------------------------------------------------------------
# solve

def test_solve_demo_file(tmp_path):
    inst_path = write_demo(tmp_path)
    out_path = tmp_path / "sol.json"
    trace_path = tmp_path / "trace.jsonl"
    code = main(["solve", inst_path, "-o", str(out_path), "--trace", str(trace_path)])
    assert code == 0
    sol = Solution.from_json_dict(json.loads(out_path.read_text()))
    sol.validate(Instance.from_json_dict(DEMO))
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert lines and all("kind" in ev for ev in lines)

def test_solve_is_deterministic(tmp_path):
    inst_path = write_demo(tmp_path)
    outs = []
    traces = []
    for tag in ("1", "2"):
        out = tmp_path / f"sol{tag}.json"
        tr = tmp_path / f"tr{tag}.jsonl"
        assert main(["solve", inst_path, "-o", str(out), "--trace", str(tr)]) == 0
        outs.append(out.read_bytes())
        traces.append(tr.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]

def test_solve_rejects_negative_value(tmp_path):
    obj = {"agents": 1, "goods": 2, "valuations": [[1, -3]]}
    assert main(["solve", write_demo(tmp_path, obj=obj)]) == 1

def test_solve_rejects_boolean_counts(tmp_path, capsys):
    for key in ("agents", "goods"):
        obj = {"agents": 1, "goods": 1, "valuations": [[1]], key: True}  # True == 1
        assert main(["solve", write_demo(tmp_path, obj=obj)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "invalid-input"

def test_solve_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    for text in ("{nope", "[" * 100_000 + "]" * 100_000):
        path.write_text(text)
        assert main(["solve", str(path)]) == 1

def test_input_past_the_int_digit_limit_exits_cleanly(tmp_path, capsys):
    # CPython refuses to convert integers of more than 4300 digits from text.
    huge = "9" * 4400
    inst_path = tmp_path / "huge.json"
    inst_path.write_text(f'{{"agents": 1, "goods": 1, "valuations": [[{huge}]]}}')
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"bundles": [[0]], "prices": ["1"]}))
    for argv in (["solve", str(inst_path)], ["verify", str(inst_path), str(sol_path)]):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "invalid-input"

def test_rejected_numbers_are_cut_short_in_the_error_line(tmp_path, capsys):
    # The detail shows the start of a rejected number and its digit count, not all of it.
    huge = "9" * 4400
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"bundles": [[0]], "prices": ["-" + "9" * 4000]}))
    for value, command in (
        (huge, "solve"),
        (f"1/{huge}", "solve"),
        (f"{huge}/7", "solve"),
        ("9" * 4000 + "/0", "solve"),  # a zero denominator under a long numerator
        (f"x{huge}", "solve"),
        ("-" + "9" * 4000, "solve"),  # parses, then is rejected as negative
        (1, "verify"),  # the solution's price is negative
    ):
        inst = write_demo(tmp_path, obj={"agents": 1, "goods": 1, "valuations": [[value]]})
        argv = ["solve", inst] if command == "solve" else ["verify", inst, str(solution)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) < 300, lines[0][:300]
        detail = json.loads(lines[0])["detail"]
        assert json.loads(lines[0])["error"] == "invalid-input" and "digits)" in detail


def test_exponent_strings_are_rejected_before_solving(tmp_path, capsys):
    # "1e5000" is six bytes of JSON but 10**5000, past the digit limit on output.
    obj = {"agents": 1, "goods": 1, "valuations": [["1e5000"]]}
    assert main(["solve", write_demo(tmp_path, obj=obj)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "invalid-input"

def test_outputs_past_the_int_digit_limit_are_written(tmp_path, capsys):
    # Accepted input (2500-digit denominators) whose solution and trace hold
    # integers far past CPython's 4300-digit limit on int/str conversion.
    rng = random.Random(0)
    values = [
        [f"{rng.randint(1, 9)}/{10**2499 + 7 + rng.randint(0, 50)}" for _ in range(6)]
        for _ in range(3)
    ]
    inst_path = write_demo(tmp_path, obj={"agents": 3, "goods": 6, "valuations": values})
    sol, trace = tmp_path / "sol.json", tmp_path / "trace.jsonl"
    limit = sys.get_int_max_str_digits()
    assert main(["solve", inst_path, "-o", str(sol), "--trace", str(trace)]) == 0
    assert sys.get_int_max_str_digits() == limit  # restored, so input keeps the limit
    assert max(len(p) for p in json.loads(sol.read_text())["prices"]) > 4300
    assert trace.read_text()
    capsys.readouterr()
    code = main(["verify", inst_path, str(sol)])  # the solution's own numbers exceed the limit
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["ok"] is True
    else:
        err = err.strip().splitlines()
        assert code == 1 and len(err) == 1 and json.loads(err[0])["error"] == "invalid-input"
    assert sys.get_int_max_str_digits() == limit

def test_solve_exit_two_on_matching_failure(tmp_path):
    obj = {"agents": 2, "goods": 1, "valuations": [[1], [1]]}
    assert main(["solve", write_demo(tmp_path, obj=obj)]) == 2

def test_solve_with_order_flag(tmp_path):
    inst_path = write_demo(tmp_path)
    out = tmp_path / "sol.json"
    assert main(["solve", inst_path, "--order", "2,1,0", "-o", str(out)]) == 0
    assert main(["solve", inst_path, "--order", "2,2,0", "-o", str(out)]) == 1
    assert main(["solve", inst_path, "--order", "2,x,0", "-o", str(out)]) == 1

def test_solve_trace_file_holds_each_record_with_sorted_keys(tmp_path):
    # The demo in this order takes both transfers and price rises.
    inst_path, trace_path = write_demo(tmp_path), tmp_path / "trace.jsonl"
    assert main(["solve", inst_path, "--order", "2,0,1", "--trace", str(trace_path)]) == 0
    _, trace = solve(Instance.from_json_dict(DEMO), order=[2, 0, 1])
    assert {ev.kind for ev in trace.events} == {"transfer", "price_rise"}
    expected = "".join(json.dumps(ev, sort_keys=True) + "\n" for ev in trace.iter_json_dicts())
    assert trace_path.read_text() == expected

def test_a_solve_without_events_writes_an_empty_trace(tmp_path):
    # One agent takes every good without a step; its trace file stays at 0 bytes.
    inst_path = write_demo(tmp_path, obj={"agents": 1, "goods": 2, "valuations": [[1, 2]]})
    trace_path = tmp_path / "t.jsonl"
    assert main(["solve", inst_path, "-o", str(tmp_path / "s.json"), "--trace", str(trace_path)]) == 0
    assert trace_path.read_bytes() == b""

@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{inst}", "-o", "{tmp}/missing/s.json"],
        ["solve", "{inst}", "-o", "{tmp}/s.json", "--trace", "{tmp}/missing/t.jsonl"],
        ["gen", "-n", "2", "-m", "3", "-o", "{tmp}"],  # a directory
    ],
)
def test_an_unwritable_output_path_is_one_error_line(tmp_path, capsys, argv):
    inst_path = write_demo(tmp_path)
    argv = [arg.format(inst=inst_path, tmp=tmp_path) for arg in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    error = json.loads(line)
    assert out == "" and error["error"] == "invalid-input"
    assert error["detail"].startswith(f"cannot write {argv[-1]}: ")

def test_the_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    """Calls in one process answer as each does on a freshly built parser."""
    assert build_parser() is build_parser()
    inst_path, trace_path = write_demo(tmp_path), tmp_path / "trace.jsonl"
    calls = [
        ["solve", inst_path, "--order", "2,0,1", "--trace", str(trace_path)],
        ["solve", inst_path],
        ["solve", write_demo(tmp_path, "bad.json", {"agents": 1})],
        ["solve", inst_path],
    ]

    def run(argv):
        trace_path.unlink(missing_ok=True)
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err, trace_path.read_text() if trace_path.exists() else None

    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, *_ in first] == [0, 0, 1, 0]
    assert first[0][1] != first[1][1]  # the order changes the solution, so a kept order shows
    assert [run(argv) for argv in calls] == first

def run_module(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python -m fairmarket` with `args`, in a fresh interpreter that imports this checkout's `src`."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "fairmarket", *args]
    return subprocess.run(cmd, text=True, env=env, timeout=120, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["gen", "-n", "2", "-m", "3"], ["gen", "-n", "3", "-m", "3000"], ["verify", "{inst}", "{sol}"]],
    ids=["gen-small", "gen-large", "verify"],
)
def test_a_failed_write_to_stdout_is_one_error_line(tmp_path, buffered, argv):
    # Stdout on a full device fails the write, or with a buffered stdout only the flush
    # of a short text; either way the run exits 1 with one JSON line and nothing more.
    inst_path, sol_path = write_demo(tmp_path), str(tmp_path / "sol.json")
    assert run_module("solve", inst_path, "-o", sol_path).returncode == 0
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [arg.format(inst=inst_path, sol=sol_path) for arg in argv]
    with open("/dev/full", "w") as full:
        done = run_module(*argv, env=env, stdout=full, stderr=subprocess.PIPE)
    [line] = done.stderr.splitlines()
    error = json.loads(line)
    assert done.returncode == 1 and error["error"] == "invalid-input"
    assert error["detail"].startswith("cannot write stdout: ")


def test_module_entry_point(tmp_path):
    """`python -m fairmarket` end to end, in a fresh interpreter."""

    def run(*args):
        return run_module(*args, capture_output=True)

    inst, sol = str(tmp_path / "inst.json"), str(tmp_path / "sol.json")
    assert run("gen", "-n", "3", "-m", "6", "--seed", "4", "-o", inst).returncode == 0
    assert run("solve", inst, "-o", sol).returncode == 0
    verified = run("verify", inst, sol)
    assert verified.returncode == 0 and json.loads(verified.stdout)["ok"] is True
    failed = run("solve", write_demo(tmp_path, "bad.json", {"agents": 1}))
    assert (failed.returncode, failed.stdout) == (1, "")
    [line] = failed.stderr.splitlines()
    assert json.loads(line)["error"] == "invalid-input"

# ---------------------------------------------------------------------------
# verify

def test_verify_solver_output(tmp_path, capsys):
    inst_path = write_demo(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(sol_path)]) == 0
    assert main(["verify", inst_path, str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["ok"] is True and report["brute_po"] is True

def test_verify_flags_bad_solution(tmp_path, capsys):
    inst_path = write_demo(tmp_path)
    bad = {"bundles": [[0, 1, 2, 3, 4], [], []], "prices": ["1", "1", "1", "1", "1"]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["verify", inst_path, str(bad_path)]) == 4
    captured = capsys.readouterr()
    report = json.loads(captured.out.strip().splitlines()[-1])
    assert report["ok"] is False
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "verification-failed"

def test_verify_brute_cap_flag(tmp_path, capsys):
    inst_path = write_demo(tmp_path)
    sol_path = tmp_path / "sol.json"
    main(["solve", inst_path, "-o", str(sol_path)])

    assert main(["verify", inst_path, str(sol_path), "--brute-cap", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["brute_po"] == "skipped" and report["mnw_product"] == "skipped"

@pytest.mark.parametrize("command", ["verify"])  # the one command with a --brute-cap
def test_negative_brute_cap_is_invalid_input(tmp_path, capsys, command):
    inst_path = write_demo(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(sol_path)]) == 0
    capsys.readouterr()
    assert main([command, inst_path, str(sol_path), "--brute-cap", "-5"]) == 1
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert out == "" and len(lines) == 1 and json.loads(lines[0])["error"] == "invalid-input"

def test_verify_single_agent_many_goods(tmp_path, capsys):
    # one agent: a single allocation, settled without a per-good search
    obj = {"agents": 1, "goods": 1500, "valuations": [[g % 7 + 1 for g in range(1500)]]}
    inst_path = write_demo(tmp_path, obj=obj)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(sol_path)]) == 0
    assert main(["verify", inst_path, str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["ok"] is True and report["brute_po"] is True
    assert report["mnw_product"] == report["nsw_product"]

def test_verify_two_agents_past_the_recursion_limit(tmp_path, capsys):
    # 1100 goods: a search that recursed once per good would overflow the stack
    obj = {"agents": 2, "goods": 1100, "valuations": [[1] * 1100, [1] + [0] * 1099]}
    inst_path = write_demo(tmp_path, obj=obj)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(sol_path)]) == 0
    capsys.readouterr()
    assert main(["verify", inst_path, str(sol_path), "--brute-cap", str(2**1101)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and json.loads(out[0])["brute_po"] is True

def test_verify_rejects_malformed_solution_fields(tmp_path, capsys):
    inst_path = write_demo(tmp_path)
    bad_path = tmp_path / "bad.json"
    ok_bundles = [[0, 1], [2, 3], [4]]
    for bad in (
        {"bundles": ok_bundles, "prices": 5},
        {"bundles": [[[0]], [1]], "prices": ["1", "1"]},
        {"bundles": [[{"g": 0}], [1]], "prices": ["1", "1"]},
        {"bundles": [[0, 0, 1], [2, 3], [4]], "prices": ["1"] * 5},  # good 0 listed twice
    ):
        bad_path.write_text(json.dumps(bad))
        assert main(["verify", inst_path, str(bad_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "invalid-input"

def test_verify_rejects_mismatched_solution(tmp_path):
    inst_path = write_demo(tmp_path)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"bundles": [[0]], "prices": ["1"]}))
    assert main(["verify", inst_path, str(bad_path)]) == 1

# ---------------------------------------------------------------------------
# sweeps

def test_bench_command_is_gone(capsys):
    # Sweeps run gen, solve --trace and verify; argparse rejects the old command.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--spec", "spec.json"])
    assert exc.value.code == 2 and "invalid choice: 'bench'" in capsys.readouterr().err

def test_dump_graph_flag_is_gone(tmp_path, capsys):
    # The engine's graph is the one graph; argparse rejects the old dump flag.
    with pytest.raises(SystemExit) as exc:
        main(["solve", write_demo(tmp_path), "--dump-graph", str(tmp_path / "g.json")])
    assert exc.value.code == 2 and "unrecognized arguments: --dump-graph" in capsys.readouterr().err

def sweep_figures(instance: dict, trace_lines: list[str], report: dict) -> dict:
    """A sweep cell's figures, derived from its files as README "Sweeps" says."""
    valued = [[Fraction(v) > 0 for v in row] for row in instance["valuations"]]
    calls, core_goods = sum(map(any, valued)), sum(map(any, zip(*valued)))
    steps = {}
    for line in trace_lines:
        event = json.loads(line)
        steps[event["k"]] = max(steps.get(event["k"], 0), event["step"])
    nsw, mnw = report["nsw_product"], report["mnw_product"]
    return {
        "iterations_per_call": [steps.get(k, 0) for k in range(1, calls + 1)],
        "total_iterations": len(trace_lines),
        "bound_ratio_max": max(
            (float(s / iteration_bound(k, core_goods)) for k, s in steps.items() if k > 1), default=0.0
        ),
        "nsw_ratio": None if mnw in ("skipped", "0") else float(Fraction(nsw) / Fraction(mnw)),
    }

def test_sweep_recipe_gives_the_library_figures(tmp_path, capsys, monkeypatch):
    # gen, solve --trace and verify per cell; verify seeds its welfare search with the
    # certified allocation, and the figures match the library's unseeded search.
    from fairmarket import brute_force_mnw, nash_product, oracles

    search, incumbents = oracles._max_nash_welfare, []

    def spy(inst, cap, incumbent):
        incumbents.append(incumbent)
        return search(inst, cap, incumbent)

    monkeypatch.setattr(oracles, "_max_nash_welfare", spy)
    for m in (3, 5, 6):
        for seed in (0, 1, 2):
            inst = generate_instance(3, m, 4, seed)
            sol, trace = solve(inst)
            core_goods = normalize_instance(inst)[0].m
            optimum, _ = brute_force_mnw(inst)
            iterations = [c.iterations for c in trace.calls]

            cell = tmp_path / f"m{m}-s{seed}"
            inst_path, sol_path, trace_path = (f"{cell}{ext}" for ext in (".json", ".sol.json", ".trace.jsonl"))
            assert main(["gen", "-n", "3", "-m", str(m), "--max", "4", "--seed", str(seed), "-o", inst_path]) == 0
            assert main(["solve", inst_path, "-o", sol_path, "--trace", trace_path]) == 0
            capsys.readouterr()
            incumbents.clear()
            assert main(["verify", inst_path, sol_path]) == 0
            assert incumbents == [sol.allocation]
            report = json.loads(capsys.readouterr().out)
            assert report["ok"] is True
            trace_lines = Path(trace_path).read_text().splitlines()
            assert sweep_figures(json.loads(Path(inst_path).read_text()), trace_lines, report) == {
                "iterations_per_call": iterations,
                "total_iterations": sum(iterations),
                "bound_ratio_max": max(
                    float(i / iteration_bound(k, core_goods)) for k, i in enumerate(iterations[1:], 2)
                ),
                "nsw_ratio": float(nash_product(inst, sol.allocation) / optimum),
            }

# ---------------------------------------------------------------------------
# fuzzing solve and verify with mutated documents

DEMO_SOLUTION = solve(Instance.from_json_dict(DEMO))[0].to_json_dict()

small_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.text(max_size=4)
    | st.builds("{}/{}".format, st.integers(-3, 12), st.integers(-1, 5))
)

def nested(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    )

# Numbers near and past CPython's 4300-digit limit on int/str conversion: integers
# of 4000 to 4299 digits, denominators that long, and digit strings past the limit.
long_ints = st.builds(lambda k, r: 10**k + r, st.integers(3999, 4298), st.integers(0, 10**9))
large_leaves = (
    long_ints
    | st.builds("{}/{}".format, st.integers(-3, 12), long_ints)
    | st.integers(4301, 4400).map(lambda k: "7" * k)
)
json_values = nested(small_leaves | st.integers() | large_leaves)

def _slots(node):
    """(container, key) for every value nested in a JSON document."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])

@st.composite
def mutated(draw, doc):
    """`doc` with up to three values replaced, deleted or duplicated, or replaced whole."""
    root = [copy.deepcopy(doc)]
    for _ in range(draw(st.integers(1, 3))):
        # deepest slots first: Hypothesis favours early choices, and shrinks towards them
        container, key = draw(st.sampled_from(list(_slots(root))[::-1]))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace" or container is root:
            container[key] = draw(st.integers(0, 12) | json_values)
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[draw(st.text(max_size=3))] = copy.deepcopy(container[key])
    return root[0]

def _run(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()

@settings(max_examples=60)
@given(mutated(DEMO), mutated(DEMO_SOLUTION))
def test_cli_exits_cleanly_on_mutated_documents(instance, solution):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sol_path = Path(tmp, "inst.json"), Path(tmp, "sol.json")
        inst_path.write_text(json.dumps(instance))
        sol_path.write_text(json.dumps(solution))
        for argv in (
            ["solve", str(inst_path), "-o", str(Path(tmp, "out.json"))],
            ["verify", str(inst_path), str(sol_path)],
        ):
            code, err = _run(argv)
            assert 0 <= code <= 4
            assert "Traceback" not in err
            if code:
                lines = err.splitlines()
                assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
