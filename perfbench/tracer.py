"""Spans around the public functions of each netrank module, from outside.

Each public function defined in a layer module is replaced, in every netrank
namespace that binds it, by a wrapper that records a span
[name, layer, bucket, start, end, parent, op_id, count, count_s].  Names the
BUCKETS table lists but the package no longer defines are skipped, so a
refactor that removes or renames a function leaves tracing working.  Spans
are recorded only inside an operation (see Tracer.op).
"""

from __future__ import annotations

import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graph_core", "chain_builder", "eigenrank", "rank_stats", "experiments", "cli")

# bucket -> function names; a public function not listed counts toward its
# layer's self time only.
BUCKETS = {
    "graph_core": {
        "parse": ("read_dense_csv", "load_dense_matrix", "read_edge_list_csv", "read_roster_csv"),
        "edges": ("load_edge_list",),
        "patch": ("patch_zero_rows",),
    },
    "chain_builder": {
        "build": (
            "transition_from_patched",
            "transition_generalized_inverse",
            "damped_transition",
            "augment_adjacency",
            "transition_from_augmented",
        ),
        "regular": ("is_regular",),
    },
    "eigenrank": {"exact": ("eigenvalue_one_space",), "power": ("stationary_power",)},
    "rank_stats": {
        "rank": ("rank_statistic",),
        "compare": ("is_finer", "is_identical_rank", "agreement_count"),
    },
    "experiments": {"gen": ("gen_er", "gen_block"), "sweep": ("invariance_sweep",)},
}


def _file_mb(args, kwargs, out):
    return os.path.getsize(args[0]) / 1e6


def _matrix_mb(args, kwargs, out):
    return out.entries.nbytes / 1e6


def _zero_rows(args, kwargs, out):
    return int((args[0].entries.sum(axis=1) == 0).sum())


def _exact_m(args, kwargs, out):
    return args[0].m


def _power_iters(args, kwargs, out):
    return out.iterations, args[0].m


# work counts, taken after a span ends and kept out of every span's time
COUNTERS = {
    "read_dense_csv": _file_mb,
    "read_edge_list_csv": _file_mb,
    "read_roster_csv": _file_mb,
    "load_edge_list": lambda args, kwargs, out: len(args[0]),
    "patch_zero_rows": _zero_rows,
    "transition_from_patched": _matrix_mb,
    "transition_generalized_inverse": _matrix_mb,
    "damped_transition": _matrix_mb,
    "augment_adjacency": _matrix_mb,
    "transition_from_augmented": _matrix_mb,
    "is_regular": lambda args, kwargs, out: out.witness_k,
    "eigenvalue_one_space": _exact_m,
    "stationary_power": _power_iters,
    "invariance_sweep": lambda args, kwargs, out: len(out.records),
}

NAME, LAYER, BUCKET, START, END, PARENT, OP, COUNT, COUNT_S = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches = []  # (namespace, attribute, original, wrapper)
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"netrank.{layer}")
            if module is None:
                continue
            buckets = {n: b for b, names in BUCKETS.get(layer, {}).items() for n in names}
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                originals[fn] = self._wrap(fn, name, layer, buckets.get(name, "other"))
        for module_name, module in list(sys.modules.items()):
            if module_name != "netrank" and not module_name.startswith("netrank."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in originals:
                    self._patches.append((module, attr, value, originals[value]))

    def _wrap(self, fn, name, layer, bucket):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, layer, bucket, 0.0, 0.0, stack[-1], self._op, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[COUNT] = counter(args, kwargs, out)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # a changed signature loses the count, not the operation
                span[COUNT_S] = perf_counter() - span[END]
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def op(self, name: str, op_id: int):
        """Span for one benchmark operation; netrank spans inside it are recorded."""
        span = [name, "op", "op", 0.0, 0.0, None, op_id, None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._op = op_id
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._op = None
            self._stack.pop()

    def self_times(self):
        """Per span: duration minus the time its children and their counters took."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START] + s[COUNT_S]
        return own
