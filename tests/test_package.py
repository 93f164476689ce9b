"""The package's public surface, and the independence of the tests' reference."""

import ast
import itertools
import re
from pathlib import Path

import pytest

import fairmarket
from fairmarket import core, engine, market, oracles

import reference

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_lists_exactly_the_exported_names():
    lines = _library_section().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- "))
    bullets = "\n".join(itertools.takewhile(str.strip, lines[start:]))
    listed = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets)
    assert sorted(listed) == sorted(fairmarket.__all__)
    assert len(fairmarket.__all__) == len(set(fairmarket.__all__)) == 28
    for name in fairmarket.__all__:
        assert getattr(fairmarket, name) is not None


@pytest.mark.parametrize(
    "name",
    ["bundle_price", "hat_price", "min_spenders", "max_violators", "compute_alphas", "build_graph"],
)
def test_raw_index_price_helpers_are_gone(name):
    with pytest.raises(ImportError):
        exec(f"from fairmarket import {name}", {})
    assert not hasattr(core, name) and not hasattr(market, name)


def _names_used(path: str) -> set[str]:
    """Every name a module imports, reads or reads as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_reference_uses_no_package_kernel():
    used = _names_used(reference.__file__)
    assert not used & {"best_ratios", "_common_denominator", "_spend_and_hat", "spending_profile"}


def test_oracles_use_no_engine_kernel():
    # The checks certify the engine's output, so a fault in its kernels must not reach them.
    used = _names_used(oracles.__file__)
    kernels = {"best_ratios", "MbbGraph", "split_valuations", "spending_profile", "_spend_and_hat", "_common_denominator"}
    assert not used & kernels


def test_online_audit_uses_no_engine_kernel():
    # The audit checks the state those kernels maintain, so a fault in one must not reach it.
    # It is read with every package function it names and every `state` member it reads.
    trees = [ast.parse(Path(m.__file__).read_text(encoding="utf-8")) for m in (core, market, engine, oracles)]
    functions = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)}
    members = {
        node.name: node
        for cls in trees[2].body if isinstance(cls, ast.ClassDef) and cls.name == "EngineState"
        for node in cls.body if isinstance(node, ast.FunctionDef)
    }
    used, read, todo = set(), set(), [functions["_check_state"]]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name):
                name, callee = node.id, functions.get(node.id)
            elif isinstance(node, ast.Attribute):
                is_state = isinstance(node.value, ast.Name) and node.value.id in ("state", "self")
                name, callee = node.attr, members.get(node.attr) if is_state else None
            else:
                continue
            used.add(name)
            if callee is not None and callee not in read:
                read.add(callee)
                todo.append(callee)
    assert {"_audit_prices", "_over_lcm", "joined"} <= used  # the helpers it calls are read too
    assert not used & {"best_ratios", "split_valuations", "_spend_and_hat", "_common_denominator"}


def _package_imports(module) -> set[str]:
    """The package modules `module` imports from, as written: ".core", "fairmarket.engine", ..."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return {name for name in names if name.startswith(".") or name.split(".")[0] == "fairmarket"}


def test_oracles_import_only_core_and_core_imports_no_sibling():
    # The oracles load without the engine or the market they certify; `core` sits below both.
    assert _package_imports(oracles) == {".core"}
    assert _package_imports(core) == set()


def _top_level_names(module) -> set[str]:
    """The names `module`'s source defines at its top level."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_the_trace_record_lives_in_core():
    record = {"E_UPPER", "iteration_bound", "RATES", "_reduced", "_text", "_parse_named", "TraceEvent", "SolveTrace"}
    assert record <= _top_level_names(core)
    assert not record & _top_level_names(engine)
    assert fairmarket.TraceEvent is core.TraceEvent and fairmarket.SolveTrace is core.SolveTrace


def test_the_validate_wrapper_and_the_prices_alias_are_gone():
    assert not hasattr(fairmarket.Solution, "validate")
    assert not hasattr(core, "Prices") and not hasattr(market, "Prices")
