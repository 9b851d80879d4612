"""Per-layer spans recorded from outside the program.

The tracer wraps every public function of the traced circdom modules and
re-binds the wrapper under each name that holds the original in any
loaded circdom module (``is_dominating`` is bound in ``verify``,
``construct``, ``baselines`` and ``cli``; ``build_W`` in ``construct``
and ``expsum``). A call made through any of those names then records a
span: name, start, end and the span that was open when it began.
``uninstall`` puts every original back, so untraced passes run the
unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

TRACED_MODULES = (
    "cli", "construct", "primes", "graph", "verify", "baselines", "expsum",
)


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0


def _report_counters(name: str, result) -> dict[str, float]:
    """Work counters read from the reports that traced calls return."""
    params = getattr(result, "parameters", None)
    if params is None:
        return {}
    if name == "construct.construct_dominating":
        return {f"construct.{key}": params[key]
                for key in ("L", "num_primes", "w_size", "u_size")}
    if name == "baselines.greedy_dominating":
        return {"baselines.greedy.rounds": params["rounds"]}
    if name == "baselines.random_dominating":
        return {"baselines.random.draws": params["draws"],
                "baselines.random.size": result.size}
    return {}


def traced_functions(package) -> dict[str, object]:
    """Qualified name -> original function, for each traced module."""
    out = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                out[f"{short}.{attr}"] = value
    return out


class Tracer:
    """Records spans and report counters while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counters: list[tuple[str, float]] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else None,
                              time.perf_counter()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            counters.extend(_report_counters(name, result).items())
            return result

        return wrapper

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        originals = traced_functions(self.package)
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in originals.items()}
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Name -> (calls, self seconds): duration minus child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, tuple[int, float]] = {}
        for span, inner in zip(self.spans, child):
            calls, total = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, total + span.end - span.start - inner)
        return out

    def root_seconds(self) -> float:
        """Time inside spans that have no parent."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)
