"""In-memory span tracing of the package's public functions.

``Tracer.install`` replaces each listed function in every ``mechscm`` module
namespace that holds it (so ``mechscm.rationality.distribution`` is traced as
well as ``mechscm.core.distribution``), and the listed ``OmegaNetwork``
methods on the class.  The package source is not touched; ``uninstall``
puts the originals back.

Every call records a span (name, start, end, parent span).  Self time is a
span's duration minus the time its child spans cover.  Counters read from
return values (solutions, atoms, iterations, contexts) are kept per name.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>".
TRACED = (
    ("core", "solution_set"),
    ("core", "distribution"),
    ("core", "induce_scm"),
    ("abstraction", "check_abstraction"),
    ("abstraction", "push_omega"),
    ("abstraction", "push_tau"),
    ("abstraction", "dists_match"),
    ("abstraction", "prop1_preconditions"),
    ("rationality", "is_nontrivial_agent"),
    ("rationality", "best_response_set"),
    ("rationality", "expected_utility"),
    ("quotient", "quotient_abstraction"),
    ("voting", "sample_interventions"),
    ("voting", "vcg_ne"),
    ("voting", "median_ne"),
    ("voting", "random_dictator_ne"),
    ("surrogate", "make_dataset"),
    ("surrogate", "estimate_delta"),
    ("surrogate", "train"),
    ("surrogate", "loss_and_gradient"),
    ("surrogate", "adam_step"),
    ("surrogate", "OmegaNetwork.forward_cached"),
    ("surrogate", "OmegaNetwork.backward"),
    ("surrogate", "evaluate"),
    ("surrogate", "dictator_baseline"),
    ("surrogate", "stochastic_floor"),
)

# Counters read from a traced call's return value: span name -> (counter
# name, extractor).
COUNTERS = {
    "core.solution_set": ("core.solution_set.solutions", len),
    "core.distribution": ("core.distribution.atoms", lambda d: len(d.atoms)),
    "voting.median_ne": ("voting.median_ne.iterations", lambda r: r.iterations),
    "rationality.is_nontrivial_agent": (
        "rationality.contexts",
        lambda v: v.agent_verdict.checked,
    ),
    "abstraction.check_abstraction": (
        "abstraction.kept_distributions",
        lambda rep: sum(e.n_low + e.n_high for e in rep.entries),
    ),
}


class Tracer:
    def __init__(self):
        self.names: list = []  # span name per span
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []  # index of the parent span, -1 at the root
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.counts: dict = {}
        self.namespace_calls: dict = {}  # (namespace, span name) -> calls
        self._stack: list = []  # [span index, time covered by children]
        self._patches = None
        self._installed = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ends.append(0.0)
        self._stack.append([len(self.starts), 0.0])
        self.starts.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        index, children = self._stack.pop()
        self.ends[index] = end
        name = self.names[index]
        duration = end - self.starts[index]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name: str, namespace: str):
        counter = COUNTERS.get(name)
        key = (namespace, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.namespace_calls[key] = self.namespace_calls.get(key, 0) + 1
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _targets(self) -> list:
        """(holder, attribute, original, wrapper) for every place a traced
        function is reachable from; built once per tracer."""
        if self._patches is None:
            modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mechscm"]
            self._patches = []
            for module_name, attr in TRACED:
                owner = sys.modules[f"mechscm.{module_name}"]
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original, self._wrap(original, name, module_name)))
                    continue
                original = getattr(owner, attr)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        namespace = module.__name__.removeprefix("mechscm.")
                        self._patches.append((module, attr, original, self._wrap(original, name, namespace)))
        return self._patches

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for holder, attr, _, wrapper in self._targets():
            setattr(holder, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._targets():
            setattr(holder, attr, original)
        self._installed = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Save every span: names as a lookup table plus index, start, end
        and parent arrays (times in seconds from the first span)."""
        table = sorted(set(self.names))
        lookup = {n: i for i, n in enumerate(table)}
        starts = np.asarray(self.starts)
        origin = starts[0] if len(starts) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.asarray(table),
            name=np.asarray([lookup[n] for n in self.names], dtype=np.int32),
            start=starts - origin,
            end=np.asarray(self.ends) - origin,
            parent=np.asarray(self.parents, dtype=np.int64),
        )
