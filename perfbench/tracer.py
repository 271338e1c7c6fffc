"""Span tracing around the library's public functions, from outside it.

`Tracer.install()` replaces each traced function, in every polyqsym module
namespace and class that refers to it, by a wrapper that records a span
(name, start, end, parent span, request id) or bumps a counter.
`Tracer.restore()` puts every original object back.  Spans stay in memory;
the caller writes them out when its work is done.

Private names (`_key`, `_flags`, `cli._load_cache`, ...) are read
defensively: when a later version of the library drops one, the counter
that needs it reads as missing instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

_MISSING = object()

# (module, attribute path, span name).  Constructions share one span name
# so their self time adds up to `polytopes.construct.self_s`.
SPANS = [
    ("posets", "GradedPoset.canonical_key", "posets.canonical_key"),
    ("polytopes", "flag_number", "polytopes.flag_number"),
    ("polytopes", "flag_vector", "polytopes.flag_vector"),
    ("ring", "d_k", "ring.d_k"),
    ("ring", "antipode_rp", "ring.antipode_rp"),
    ("transforms", "f_poly", "transforms.f_poly"),
    ("transforms", "ehrenborg_F", "transforms.ehrenborg_F"),
    ("transforms", "f_rp", "transforms.f_rp"),
    ("transforms", "bb_basis", "transforms.bb_basis"),
    ("transforms", "project_bb", "transforms.project_bb"),
    ("qsym", "QSym.__mul__", "qsym.mul"),
    ("qsym", "QSym.expand", "qsym.expand"),
    ("ncalg", "normal_form", "ncalg.normal_form"),
    ("ncalg", "antipode", "ncalg.antipode"),
    ("ncalg", "coproduct", "ncalg.coproduct"),
    ("lyndon", "lyndon_words", "lyndon.lyndon_words"),
    ("lyndon", "series_exponents", "lyndon.series_exponents"),
    ("exprs", "parse_expression", "exprs.parse_expression"),
    ("suites", "execute_check", "suites.check"),
    ("cli", "_load_cache", "cli.cache_load"),
    ("cli", "_save_cache", "cli.cache_save"),
] + [("polytopes", name, "polytopes.construct")
     for name in ("empty", "point", "simplex", "segment", "cube", "cross",
                  "polygon", "cell24", "product", "join", "cone",
                  "bipyramid", "dual", "from_word", "face_polytope")]


# Counters that a wrapper derives, and so read as missing with it.
DERIVED = {"cli.cache_load": ("cli.cache_entries",),
           "cli.cache_save": ("cli.cache_bytes",)}


def _resolve(module, path):
    """The object at `path` in polyqsym.`module`, or None if it is gone."""
    obj = importlib.import_module("polyqsym." + module)
    for part in path.split("."):
        obj = getattr(obj, part, _MISSING)
        if obj is _MISSING:
            return None
    return obj


def _namespaces():
    """Every module namespace and class dict in the library."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "polyqsym"
                               or name.startswith("polyqsym.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and \
                    value.__module__.startswith("polyqsym"):
                yield value


class Tracer:
    """Spans and counters of one process; `install` before the work,
    `finish` after it."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, request id]
        self.stack = []
        self.counts = Counter()
        self.missing = set()
        self.request = None
        self._patches = []

    # -- recording ------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)
        return wrapper

    # -- hooks with counters ------------------------------------------------

    def _canonical_key(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(lattice):
            cached = getattr(lattice, "_key", _MISSING)
            if cached is _MISSING:
                tracer.missing.add("posets.canonical_key.computed")
            elif cached is None:
                tracer.counts["posets.canonical_key.computed"] += 1
                if tracer.inside("cli.cache_load"):
                    tracer.counts["cli.cache_load.keys_computed"] += 1
            rec = tracer.open("posets.canonical_key")
            try:
                return fn(lattice)
            finally:
                tracer.close(rec)
        return wrapper

    def _flag_number(self, fn):
        tracer = self
        inner = self._span_wrapper("polytopes.flag_number", fn)

        @functools.wraps(fn)
        def wrapper(p, subset):
            memo = getattr(p, "_flags", _MISSING)
            before = len(memo) if isinstance(memo, dict) else None
            value = inner(p, subset)
            if before is None:
                tracer.missing.add("polytopes.flag_number.computed")
            elif len(memo) > before:
                tracer.counts["polytopes.flag_number.computed"] += 1
            return value
        return wrapper

    def _lattice_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(lattice, *args, **kwargs):
            fn(lattice, *args, **kwargs)
            tracer.counts["posets.lattice_elements_built"] += lattice.n
        return wrapper

    def _counted(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _canonical(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(poly, *args, **kwargs):
            result = fn(poly, *args, **kwargs)
            tracer.counts["polytopes.canonical.calls"] += 1
            if result is not poly:
                tracer.counts["polytopes.canonical.hits"] += 1
            return result
        return wrapper

    def _load_cache(self, fn):
        tracer = self
        inner = self._span_wrapper("cli.cache_load", fn)

        @functools.wraps(fn)
        def wrapper(path):
            count = inner(path)
            tracer.counts["cli.cache_entries"] = max(
                tracer.counts["cli.cache_entries"], int(count))
            return count
        return wrapper

    def _save_cache(self, fn):
        tracer = self
        inner = self._span_wrapper("cli.cache_save", fn)

        @functools.wraps(fn)
        def wrapper(path):
            count = inner(path)
            tracer.counts["cli.cache_bytes"] = max(
                tracer.counts["cli.cache_bytes"], os.path.getsize(path))
            return count
        return wrapper

    # -- installing -------------------------------------------------------------

    def _replace(self, original, wrapper):
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self):
        import polyqsym.cli  # noqa: F401  (loads every traced module)
        from polyqsym import suites
        special = {
            "posets.canonical_key": self._canonical_key,
            "polytopes.flag_number": self._flag_number,
            "cli.cache_load": self._load_cache,
            "cli.cache_save": self._save_cache,
        }
        for module, path, name in SPANS:
            fn = _resolve(module, path)
            if fn is None:
                self.missing.add(name)
                self.missing.update(DERIVED.get(name, ()))
                continue
            make = special.get(name)
            wrapper = make(fn) if make else self._span_wrapper(name, fn)
            self._replace(fn, wrapper)
        counted = [("posets", "GradedPoset.__init__", self._lattice_init),
                   ("posets", "GradedPoset.interval",
                    functools.partial(self._counted, "posets.interval.calls")),
                   ("polytopes", "canonical", self._canonical)]
        for module, path, make in counted:
            fn = _resolve(module, path)
            if fn is None:
                self.missing.add(module + "." + path.split(".")[-1])
                continue
            self._replace(fn, make(fn))
        for suite, build in list(suites.SUITES.items()):
            self._patches.append((suites.SUITES, suite, build))
            suites.SUITES[suite] = self._span_wrapper("suites.setup", build)
        self.registry_start = registry_size()
        self.shuffle_start = quasi_shuffle_info()

    def restore(self):
        for ns, attr, original in reversed(self._patches):
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)
        self._patches = []

    def finish(self):
        """Restore the originals and return this process's counters,
        including the registry growth and the quasi-shuffle memo use."""
        self.restore()
        counts = dict(self.counts)
        end = registry_size()
        counts["polytopes.registry_size"] = end
        counts["registry_new_types"] = end - self.registry_start
        shuffle = quasi_shuffle_info()
        if shuffle is None or self.shuffle_start is None:
            self.missing.add("qsym.quasi_shuffle.hit_ratio")
        else:
            counts["qsym.quasi_shuffle.hits"] = \
                shuffle[0] - self.shuffle_start[0]
            counts["qsym.quasi_shuffle.misses"] = \
                shuffle[1] - self.shuffle_start[1]
        return counts


def registry_size():
    from polyqsym import polytopes
    return len(polytopes.registry_snapshot())


def quasi_shuffle_info():
    from polyqsym import qsym
    info = getattr(qsym.quasi_shuffle, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def self_times(spans):
    """{name: [calls, self seconds, inclusive seconds]} from span records.

    A span's self time is its duration minus the part of it covered by its
    child spans (clipped to the parent and merged where they overlap)."""
    children = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append(rec)
    out = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda r: r[1]):
            lo, hi = max(child[1], cursor), min(child[2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered
        row[2] += end - start
    return out
