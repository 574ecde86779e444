"""Span tracing of the isogeo package from outside, by wrapping functions.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that records one span (name, start, end, parent) per call.  It also
rebinds every other reference the package holds to those functions: names
bound by ``from .x import y`` in any isogeo module, values in module-level
dicts (``experiments.RUNNERS``, ``objectives._LOSSES``), and each entry of
``checks.ALL_CHECKS``, which additionally gets a span named after its check
id.  Without the rebinding, calls such as ``train -> pgd_attack ->
input_gradient -> normal`` go through the original objects and are not seen.
`uninstall()` puts every original back.  The program's source is not edited.

Spans live in flat arrays while the workload runs; `summary()` turns them into
per-function calls, total and self time (duration minus the time covered by
child spans), and `save()` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = (
    "rng",
    "data",
    "linalg",
    "network",
    "objectives",
    "diagnostics",
    "checks",
    "experiments",
    "cli",
)

# Private helpers that are wrapped too: the worker count is read from the
# return value of experiments._worker_count.
EXTRA = {"experiments": ("_worker_count",)}


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _n_values(args, kwargs):
    shape = _arg(args, kwargs, 1, "shape")
    if isinstance(shape, (int, np.integer)):
        return int(shape)
    return int(np.prod(shape)) if len(shape) else 1


def _n_rows(args, kwargs):
    return np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "x"))).shape[0]


# Work sizes recorded alongside the span of a call.
SIZES = {
    "rng.normal": _n_values,
    "data.sample": lambda a, k: int(_arg(a, k, 1, "n")),
    "network.encoder_forward": _n_rows,
    "objectives.train": lambda a, k: _arg(a, k, 0, "config").steps,
}

# Calls whose span name carries a variant: train spans are split by objective.
VARIANTS = {
    "objectives.train": lambda a, k: _arg(a, k, 0, "config").objective,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.returns: dict[str, list] = {}
        self._stack = [-1]
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, keep_return: bool = False):
        size = SIZES.get(name)
        variant = VARIANTS.get(name)
        fixed_id = self._id(name)
        ids = self._id
        name_id, parent, start, end, sizes = (
            self.name_id, self.parent, self.start, self.end, self.size
        )
        stack = self._stack
        clock = time.perf_counter
        returns = self.returns.setdefault(name, []) if keep_return else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(ids(f"{name}.{variant(args, kwargs)}") if variant else fixed_id)
            parent.append(stack[-1])
            sizes.append(size(args, kwargs) if size else 0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if returns is not None:
                returns.append(out)
            return out

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _set(self, holder, key, value):
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def install(self) -> None:
        import isogeo  # noqa: F401  (loads every submodule)

        wrapped: dict[int, object] = {}
        for mod_name in MODULES:
            mod = sys.modules[f"isogeo.{mod_name}"]
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(mod_name, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(
                        obj, f"{mod_name}.{attr}", keep_return=attr.startswith("_")
                    )
        # Rebind every reference the package holds: module attributes (which
        # covers each `from .x import y`) and values of module-level dicts.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "isogeo" and not mod_name.startswith("isogeo."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._set(obj, key, wrapped[id(val)])
        registry = sys.modules["isogeo.checks"].ALL_CHECKS
        for check_id, fn in list(registry.items()):
            self._set(registry, check_id, self._wrap(fn, f"checks.{check_id}"))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), self.returns)


class SpanSummary:
    """Aggregates of a span table, keyed by span name: calls, summed work
    sizes, total time and self time."""

    def __init__(self, names: list[str], spans: dict, returns: dict):
        self.returns = returns
        name_id, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])

        def per_name(weights=None):
            sums = np.bincount(name_id, weights=weights, minlength=len(names))
            return dict(zip(names, sums.tolist()))

        self.calls = per_name()
        self.total = per_name(dur)
        self.self_time = per_name(dur - covered)
        self.sizes = per_name(spans["size"])
        self.n_spans = len(dur)
        self.under_train = self._count_under_train(names, name_id, parent)

    @staticmethod
    def _count_under_train(names, name_id, parent) -> dict:
        """(objective, span name) -> calls made inside that objective's train spans."""
        train_of = {i: nm.rsplit(".", 1)[1] for i, nm in enumerate(names)
                    if nm.startswith("objectives.train.")}
        owner = np.full(len(name_id), -1, dtype=np.int64)
        counts: dict = {}
        for i in range(len(name_id)):  # parents precede children
            nid = int(name_id[i])
            if nid in train_of:
                owner[i] = nid
                continue
            p = parent[i]
            if p >= 0 and owner[p] >= 0:
                owner[i] = owner[p]
                key = (train_of[int(owner[p])], names[nid])
                counts[key] = counts.get(key, 0) + 1
        return counts

    def module_self(self, module: str) -> float:
        return sum(t for nm, t in self.self_time.items() if nm.split(".", 1)[0] == module)
