"""Per-layer spans for the traced run, recorded from outside the program.

Each target is a module attribute the program calls through (for example
`engine.reach_from`, which `engine.step` looks up at call time).  While a
`Tracer` is installed, each target is replaced by a wrapper that records a
span on a stack, so each span is charged to the span that called it: a
span's self time is its duration minus the time of the spans it called.  Wrappers are
installed only for the traced run and always removed afterwards.  A target
that no longer exists is skipped and its span reported as missing.

Spans are aggregated in memory by name: calls, self time and inclusive time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

MARK = "__perfbench_span__"

# (module, attribute path, span name).  Span names are `<layer>.<what>`;
# several call sites may share one span.
TARGETS = (
    ("fairmarket.engine", "normalize_instance", "core.normalize"),
    ("fairmarket.oracles", "normalize_instance", "core.normalize"),
    ("fairmarket.engine", "check_hall", "core.hall"),
    ("fairmarket.engine", "denormalize", "core.denormalize"),
    ("fairmarket.engine", "spending_profile", "core.profile"),
    ("fairmarket.engine", "hat_profile", "core.profile"),
    ("fairmarket.market", "MbbGraph.from_state", "market.graph_build"),
    ("fairmarket.engine", "reach_from", "market.reach"),
    ("fairmarket.engine", "shortest_violator_path", "market.path"),
    ("fairmarket.engine", "solve", "engine.solve"),
    ("fairmarket.cli", "solve", "engine.solve"),
    ("fairmarket.engine", "add_agent", "engine.add_agent"),
    ("fairmarket.engine", "step", "engine.step"),
    ("fairmarket.engine", "compute_betas", "engine.betas"),
    ("fairmarket.engine", "apply_price_rise", "engine.price_rise"),
    ("fairmarket.engine", "transfer", "engine.transfer"),
    ("fairmarket.engine", "compute_potential", "engine.potential"),
    # The online checks have no public entry point; this is the one private target.
    ("fairmarket.engine", "_check_state", "engine.checks"),
    ("fairmarket.oracles", "verify", "oracles.verify"),
    ("fairmarket.cli", "verify", "oracles.verify"),
    ("fairmarket.oracles", "check_ef1", "oracles.ef1"),
    ("fairmarket.oracles", "check_mbb_consistency", "oracles.mbb_cert"),
    ("fairmarket.oracles", "brute_force_po", "oracles.brute_po"),
    ("fairmarket.oracles", "brute_force_mnw", "oracles.brute_mnw"),
    ("fairmarket.oracles", "audit_trace", "oracles.audit_trace"),
    ("fairmarket.cli", "main", "cli.main"),
)


def _owner(module: str, path: str):
    """The object holding the target attribute, and the attribute's name."""
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr


def installed() -> list[str]:
    """`module:path` of every target currently replaced by a span wrapper."""
    found = []
    for module, path, _ in TARGETS:
        try:
            owner, attr = _owner(module, path)
            value = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        if hasattr(value, MARK):
            found.append(f"{module}:{path}")
    return found


class Tracer:
    """Installs span wrappers on `TARGETS` and aggregates the spans they record.

    Use it as a context manager around the traced calls; it may be entered
    again, and spans accumulate across entries.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self ns, inclusive ns]
        self.observed: dict[str, list[int]] = {}  # name -> [samples, total]
        self.missing: set[str] = set()
        self._stack: list[list[int]] = []  # per open span: [ns spent in child spans]
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, observe=None):
        """`fn` wrapped to record a span; `observe(result)` adds a sized sample."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats[0] += 1
                stats[1] += took - frame[0]
                stats[2] += took
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _observe(self, sample: str, size: int) -> None:
        record = self.observed.setdefault(sample, [0, 0])
        record[0] += 1
        record[1] += size

    def __enter__(self) -> "Tracer":
        observers = {
            "market.reach": lambda r: self._observe("reach_agents", len(r.agents)),
            "market.path": lambda p: self._observe("path_goods", 0 if p is None else len(p) // 2),
            "oracles.brute_po": lambda r: self._observe("brute_skipped", r is None),
            "oracles.brute_mnw": lambda r: self._observe("brute_skipped", r is None),
        }
        try:
            for module, path, name in TARGETS:
                try:
                    owner, attr = _owner(module, path)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.span(name, raw.__func__, observers.get(name)))
                else:
                    wrapped = self.span(name, raw, observers.get(name))
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        # A span is missing only when none of its call sites could be wrapped.
        self.missing = {name for _, _, name in TARGETS if name not in self.stats}
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
