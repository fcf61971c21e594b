"""Spans around the package's public functions, from outside the package.

The tracer swaps module attributes (and a few attributes of one
extractor instance) for wrappers that record a span per call: name,
start, end, parent span and tweet id. Spans stay in memory until the
run ends; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, tweet)
        self.tweet = None
        self.results: dict[str, list] = defaultdict(list)
        self._stack = [0]
        self._next_id = 0

    def wrap(self, name, fn, keep_result=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        results = self.results[name]

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.tweet))
            if keep_result:
                results.append((args, result))
            return result
        return traced

    def call(self, name, fn, *args):
        return self.wrap(name, fn)(*args)

    @contextmanager
    def patched(self, targets, keep_results=(), replace=None):
        """Trace each (owner, attribute, span name) while the block runs.

        replace maps a span name to the function to trace in place of
        the attribute's current value.
        """
        replace = replace or {}
        saved = []
        for owner, attr, name in targets:
            saved.append((owner, attr, owner.__dict__.get(attr)))
            fn = replace.get(name) or getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, fn, name in keep_results))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)  # instance attribute shadowing a method
                else:
                    setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += (end - start) / 1e9
            own[name] += (end - start - child_ns[span_id]) / 1e9
        return calls, total, own

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span_id, name, start, end, parent, tweet in self.spans:
                f.write(json.dumps({"id": span_id, "name": name,
                                    "start_ns": start, "end_ns": end,
                                    "parent": parent, "tweet": tweet}) + "\n")
