"""Span tracing of the frailplp modules, installed from outside the package.

Every public function of a package module is replaced, at each module
attribute through which a caller resolves it, by a wrapper that records a
span (name, start, end, parent) in memory.  ``frailplp.dpm.log_target_z`` is
wrapped as well as ``frailplp.hmc.log_target_z``, because ``run_chain`` looks
the name up in ``dpm``'s namespace.  A span is named after the module that
defines the function (its layer), so both wrappers above record
``hmc.log_target_z``.  Hooks turn a call's arguments and result into counts
(events, levels, accepted trajectories) at the boundary where the work
happens.  The wrappers call the original functions with the original
arguments and draw no random numbers, so a traced run computes the same
outputs as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("data", "simulate", "plp", "dpm", "hmc", "diagnostics", "cli")

# Methods are not module attributes; these are wrapped on their class.
METHODS = (("plp", "GammaMarginal", "interval"),)


def _count_simulated(counts, args, result):
    counts["simulate.events"] += len(result[0])


def _count_ingested(counts, args, result):
    counts["data.ingest.events"] += len(result)


def _count_levels(counts, args, result):
    counts["dpm.levels"] += result


def _count_clusters(counts, args, result):
    counts["dpm.clusters"] += np.unique(result).size
    counts["dpm.instantiated"] += args[0].l_star


def _count_trajectory(counts, args, result):
    _, accepted, divergent, _ = result
    counts["hmc.accepted"] += bool(accepted)
    counts["hmc.divergent"] += bool(divergent)


def _keep_chain(counts, args, result):
    counts.chains.append(result)


HOOKS = {
    "simulate.simulate": _count_simulated,
    "data.ingest": _count_ingested,
    "dpm.extend_levels": _count_levels,
    "dpm.update_allocations": _count_clusters,
    "hmc.hmc_update": _count_trajectory,
    "dpm.run_chain": _keep_chain,
}


class Counts(defaultdict):
    """Named counters plus the chains returned by ``run_chain``."""

    def __init__(self):
        super().__init__(float)
        self.chains = []


class Tracer:
    """Holds the spans of one run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counts()
        self._stack = [-1]
        self._patched = []

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, hook = self._stack, self.counts, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self):
        for mod_name in MODULES:
            module = importlib.import_module(f"frailplp.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("frailplp."):
                    continue
                layer = obj.__module__.rsplit(".", 1)[1]
                self._patch(module, attr, f"{layer}.{obj.__name__}")
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"frailplp.{mod_name}"), cls_name)
            self._patch(cls, attr, f"{mod_name}.{attr}")

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def spans(self):
        """(name, start, end, parent) tuples in call order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def totals(self):
        """Per span name: call count, inclusive seconds and self seconds."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, s in zip(self.names, dur, self_time):
            row = out[name]
            row[0] += 1
            row[1] += d
            row[2] += s
        return {name: tuple(row) for name, row in out.items()}
