import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fairmarket import Instance, Solution, check_hall, normalize_instance, solve
from fairmarket.cli import generate_instance, main

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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(f'{{"runs": [], "instances": [], "pad": {huge}}}')
    for argv in (
        ["solve", str(inst_path)],
        ["verify", str(inst_path), str(sol_path)],
        ["bench", "--spec", str(spec_path)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "invalid-input"

def test_solve_exit_two_on_matching_failure(tmp_path):
    obj = {"agents": 2, "goods": 1, "valuations": [[1], [1]]}
    assert main(["solve", write_demo(tmp_path, obj=obj)]) == 2

def test_solve_with_order_flag(tmp_path):
    inst_path = write_demo(tmp_path)
    out = tmp_path / "sol.json"
    assert main(["solve", inst_path, "--order", "2,1,0", "-o", str(out)]) == 0
    assert main(["solve", inst_path, "--order", "2,2,0", "-o", str(out)]) == 1
    assert main(["solve", inst_path, "--order", "2,x,0", "-o", str(out)]) == 1

def test_module_entry_point(tmp_path):
    """`python -m fairmarket` end to end, in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        cmd = [sys.executable, "-m", "fairmarket", *args]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    inst, sol = str(tmp_path / "inst.json"), str(tmp_path / "sol.json")
    assert run("gen", "-n", "3", "-m", "6", "--seed", "4", "-o", inst).returncode == 0
    assert run("solve", inst, "-o", sol).returncode == 0
    verified = run("verify", inst, sol)
    assert verified.returncode == 0 and json.loads(verified.stdout)["ok"] is True
    failed = run("solve", write_demo(tmp_path, "bad.json", {"agents": 1}))
    assert (failed.returncode, failed.stdout) == (1, "")
    [line] = failed.stderr.splitlines()
    assert json.loads(line)["error"] == "invalid-input"

def test_solve_graph_dump(tmp_path):
    inst_path = write_demo(tmp_path)
    graph_path = tmp_path / "graph.json"
    assert main(["solve", inst_path, "-o", str(tmp_path / "s.json"), "--dump-graph", str(graph_path)]) == 0
    dump = json.loads(graph_path.read_text())
    assert "mbb_edges" in dump and "alphas" in dump and "levels" in dump
    assert dump["levels"]["2"] == 0  # levels are measured from the newest agent

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

def test_verify_brute_cap_flag_and_env(tmp_path, capsys, monkeypatch):
    inst_path = write_demo(tmp_path)
    sol_path = tmp_path / "sol.json"
    main(["solve", inst_path, "-o", str(sol_path)])

    assert main(["verify", inst_path, str(sol_path), "--brute-cap", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["brute_po"] == "skipped"

    monkeypatch.setenv("FAIRMARKET_BRUTE_CAP", "0")
    assert main(["verify", inst_path, str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["brute_po"] == "skipped"

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
# bench

def test_bench_report(tmp_path):
    spec = {"runs": [{"n": 2, "m": [2, 4], "max_value": 6, "seeds": [0, 1]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    report_path = tmp_path / "report.json"
    assert main(["bench", "--spec", str(spec_path), "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["rows"]) == 4
    for row in report["rows"]:
        assert row["bound_ratio_max"] <= 1.0
        assert row["total_iterations"] == sum(row["iterations_per_call"])
        assert row["nsw_ratio"] is None or row["nsw_ratio"] >= 0.6922

def test_bench_single_agent_rows_never_iterate(tmp_path):
    spec = {"runs": [{"n": 1, "m": [1, 3, 5], "max_value": 4, "seeds": [0]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    report_path = tmp_path / "report.json"
    assert main(["bench", "--spec", str(spec_path), "-o", str(report_path)]) == 0
    for row in json.loads(report_path.read_text())["rows"]:
        assert row["total_iterations"] == 0

def test_bench_csv_and_instance_paths(tmp_path):
    inst_path = write_demo(tmp_path)
    spec = {"instances": [inst_path]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    report_path = tmp_path / "report.csv"
    assert main(["bench", "--spec", str(spec_path), "-o", str(report_path)]) == 0
    text = report_path.read_text().splitlines()
    assert text[0].startswith("n,m,")
    assert len(text) == 2

def test_bench_rejects_malformed_specs(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    for spec in (
        {"runs": [{}]},
        {"runs": [{"n": "x", "m": 5}]},
        [1],
        {"runs": [{"n": 2, "m": 5, "seeds": 3}]},
        {"runs": [{"n": True, "m": 5}]},
        {"runs": [{"n": 2, "m": [3, 4.5]}]},
        {"runs": "n=2"},
        {"instances": [5]},
        {"instances": [0]},  # not a file descriptor: stdin stays open
        {"instances": "inst.json"},
    ):
        spec_path.write_text(json.dumps(spec))
        assert main(["bench", "--spec", str(spec_path)]) == 1, spec
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "invalid-input", spec
        assert captured.out == ""

# ---------------------------------------------------------------------------
# fuzzing solve, verify and bench with mutated documents

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

json_values = nested(small_leaves | st.integers())
small_values = nested(small_leaves)  # bench builds instances as large as its integers ask

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
def mutated(draw, doc, values=json_values):
    """`doc` with up to three values replaced, deleted or duplicated, or replaced whole."""
    root = [copy.deepcopy(doc)]
    for _ in range(draw(st.integers(1, 3))):
        # deepest slots first: Hypothesis favours early choices, and shrinks towards them
        container, key = draw(st.sampled_from(list(_slots(root))[::-1]))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace" or container is root:
            container[key] = draw(st.integers(0, 12) | values)
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

BENCH_SPEC = {"runs": [{"n": 2, "m": [2, 3], "max_value": 4, "seeds": [0, 1]}], "instances": []}

@settings(max_examples=40, deadline=None)
@given(mutated(BENCH_SPEC, small_values), st.booleans())
def test_bench_exits_cleanly_on_mutated_specs(spec, with_instance):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp, "spec.json")
        if with_instance and isinstance(spec, dict) and isinstance(spec.get("instances"), list):
            spec["instances"].append(write_demo(Path(tmp)))
        spec_path.write_text(json.dumps(spec))
        code, err = _run(["bench", "--spec", str(spec_path), "--brute-cap", "10000"])
        assert 0 <= code <= 4
        assert "Traceback" not in err
        if code:
            lines = err.splitlines()
            assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
