"""Spans around calls into rootmult's public names, recorded from outside.

:meth:`Tracer.install` replaces each traced name where its caller looks it
up (a module global such as ``rootmult.cli.count_canonical``, or a method on
its class such as ``EchelonBasis.insert``) with a wrapper that records one
span per call; :meth:`Tracer.remove` restores the originals.  Nothing in
``src/`` changes.  Spans stay in memory until :meth:`Tracer.dump`.

A span is ``(id, parent, query, layer, name, start, end, count)``.  Its
parent is the innermost open span of the same thread or, in a thread with
no open span (the ``compare`` thread pool), the outermost open span of the
main thread.  ``count`` carries the per-call figure of the layer's counter
(rows kept, configurations, words, bytes) or 0.
"""
from __future__ import annotations

import functools
import io
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = ("cli", "peterson", "serre", "linalg", "freelie", "tuples", "formula")


def _kept(args: tuple, result: Any) -> int:
    return 1 if result else 0


def _configs(args: tuple, result: Any) -> int:
    return result.raw


def _words(args: tuple, result: Any) -> int:
    return len(result.coeffs)


def _bytes_out(args: tuple, result: Any) -> int:
    out = args[1] if len(args) > 1 else None
    return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0


def traced_names() -> list[tuple[Any, str, str, str, Callable[[tuple, Any], int] | None]]:
    """(owner, attribute, layer, span name, counter) for every traced call."""
    import rootmult.cli as cli
    import rootmult.serre as serre
    from rootmult.linalg import EchelonBasis
    from rootmult.peterson import MultiplicityTable

    return [
        (cli, "main", "cli", "main", _bytes_out),
        (MultiplicityTable, "multiplicity", "peterson", "multiplicity", None),
        (serre.SerreQuotient, "multiplicity", "serre", "multiplicity", None),
        (EchelonBasis, "insert", "linalg", "insert", _kept),
        (serre, "ad_generator", "freelie", "ad_generator", None),
        (serre, "free_lie_dim", "freelie", "free_lie_dim", None),
        (cli, "parse_bracket", "freelie", "parse", None),
        (cli, "to_standard_form", "freelie", "rewrite", None),
        (cli, "expand_tensor", "freelie", "expand", _words),
        (cli, "expand_combination", "freelie", "expand", _words),
        (cli, "count_canonical", "tuples", "count_canonical", _configs),
        (cli, "closed_form_dim", "formula", "closed_form_dim", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.query = ""
        self.tables: dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, layer: str, name: str, counter: Callable | None) -> Callable:
        tracer = self
        main = threading.main_thread()
        is_table = layer == "peterson"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            root = not stack and threading.current_thread() is main
            parent = stack[-1] if stack else tracer._root
            if root:
                tracer._root = span_id
            stack.append(span_id)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    tracer._root = None
                count = counter(args, result) if ok and counter else 0
                tracer.spans.append((span_id, parent, tracer.query, layer, name, start, end, count))
                if is_table:
                    tracer.tables[id(args[0])] = args[0]

        return traced

    def install(self) -> None:
        for owner, attr, layer, name, counter in traced_names():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def table_counters(self) -> dict[str, int]:
        """Cells filled and widest c-value numerator over the tables seen; resets them."""
        cells = bits = 0
        for table in self.tables.values():
            computed = table.computed()
            cells += len(computed)
            for w in computed:
                bits = max(bits, table.c_value(w).numerator.bit_length())
        self.tables.clear()
        return {"peterson.cells": cells, "peterson.c_bits_max": bits}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one pass from its spans.

    ``busy_s`` is the union of a layer's span intervals, ``span_s`` their
    sum, and ``self_s`` the sum over its spans of the duration minus the part
    of the span that its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, *_, start, end, _count in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_layer: dict[str, list[tuple]] = defaultdict(list)
    by_name: dict[tuple[str, str], list[tuple]] = defaultdict(list)
    for span in spans:
        by_layer[span[3]].append(span)
        by_name[(span[3], span[4])].append(span)

    m: dict[str, float] = {}
    for layer in LAYERS:
        own = by_layer.get(layer, [])
        self_s = 0.0
        for span_id, _p, _q, _l, _n, start, end, _c in own:
            covered = _union(
                [(max(s, start), min(e, end)) for s, e in children.get(span_id, []) if e > start and s < end]
            )
            self_s += end - start - covered
        m[f"{layer}.busy_s"] = _union([(s[5], s[6]) for s in own])
        m[f"{layer}.span_s"] = sum(s[6] - s[5] for s in own)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.calls"] = len(own)

    def total(layer: str, name: str, field: str) -> float:
        rows = by_name.get((layer, name), [])
        if field == "count":
            return sum(s[7] for s in rows)
        if field == "calls":
            return len(rows)
        return sum(s[6] - s[5] for s in rows)

    m["cli.bytes_out"] = total("cli", "main", "count")
    m["linalg.insert_calls"] = total("linalg", "insert", "calls")
    m["linalg.insert_kept"] = total("linalg", "insert", "count")
    m["linalg.keep_ratio"] = (
        m["linalg.insert_kept"] / m["linalg.insert_calls"] if m["linalg.insert_calls"] else 0.0
    )
    m["linalg.insert_s"] = total("linalg", "insert", "s")
    m["freelie.ad_generator_calls"] = total("freelie", "ad_generator", "calls")
    m["freelie.ad_generator_s"] = total("freelie", "ad_generator", "s")
    m["freelie.free_lie_dim_s"] = total("freelie", "free_lie_dim", "s")
    m["freelie.parse_s"] = total("freelie", "parse", "s")
    m["freelie.rewrite_s"] = total("freelie", "rewrite", "s")
    m["freelie.expand_s"] = total("freelie", "expand", "s")
    m["freelie.words_out"] = total("freelie", "expand", "count")
    m["tuples.configs"] = total("tuples", "count_canonical", "count")
    return m
