"""Per-layer spans recorded from outside the program.

The tracer rebinds a fixed list of layer entry points to timing wrappers
in every `jetorders.*` namespace that holds them (`jets`, `diffops` and
`toric` import `rank_exact` by name, so patching `linalg` alone would miss
their calls), and restores the original bindings on exit.  Only entry
points are wrapped, never per-element helpers such as `binomial_product`,
whose call counts would make the wrappers cost more than the work.

Each span is (name, start, end, parent index, op id).  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _rows_cells(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return len(rows), ncols


def _count_rank(counts, args, kwargs, result):
    nrows, ncols = _rows_cells(args, kwargs)
    counts["cells"] += nrows * ncols
    counts["full_rank"] += result == min(nrows, ncols)


def _count_nullspace(counts, args, kwargs, result):
    nrows, ncols = _rows_cells(args, kwargs)
    counts["cells"] += nrows * ncols


def _count_jet_matrix(counts, args, kwargs, result):
    counts["cells"] += result.nrows * result.ncols


def _count_generic_rank(counts, args, kwargs, result):
    counts[result.method.replace("-", "_")] += 1
    counts["uncertified"] += not result.certified


#: (module, function, counter) for every traced entry point
ENTRY_POINTS = (
    ("linalg", "rank_exact", _count_rank),
    ("linalg", "nullspace", _count_nullspace),
    ("algebra", "poly_divexact", None),
    ("jets", "jet_matrix", _count_jet_matrix),
    ("jets", "generic_rank", _count_generic_rank),
    ("jets", "n_inj_at", None),
    ("jets", "weierstrass_minors", None),
    ("diffops", "preserving_weight_space", None),
    ("diffops", "evaluation_image", None),
    ("toric", "polytope_build", None),
    ("toric", "smooth_check", None),
    ("toric", "n_inj_hilbert", None),
    ("toric", "n_inj_face", None),
    ("toric", "n1_surj_toric", None),
    ("toric", "toric_report", None),
    ("cli", "main", None),
    ("cli", "parse_space", None),
)


class Tracer:
    """Context manager that records spans for the entry points of `package`."""

    def __init__(self, package="jetorders", entry_points=ENTRY_POINTS, clock=time.perf_counter):
        self.package = package
        self.entry_points = entry_points
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(Counter)  # span name -> counter name -> value
        self.op_id = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts
        takes_rows = counter in (_count_rank, _count_nullspace)

        def traced(*args, **kwargs):
            if takes_rows and args and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]  # the counter reads the rows after the call
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                counter(counts[name], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == self.package or n.startswith(self.package + "."))]
        try:
            for module, func, counter in self.entry_points:
                original = getattr(sys.modules[f"{self.package}.{module}"], func)
                wrapper = self._wrap(f"{module}.{func}", original, counter)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)
        return False

    def summary(self):
        """{span name: {"calls", "self_s", counters...}} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        for name, counter in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0}).update(counter)
        return out

    def reset(self):
        self.spans.clear()
        self.counts.clear()
