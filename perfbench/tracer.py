"""Per-layer tracing from outside the library.

The tracer replaces public functions in the module namespaces that call
them with timing wrappers, and puts the originals back on ``restore``.  Each
wrapped call is a span; a span's self time is its duration minus the
durations of the spans it directly encloses.  Spans are aggregated in
memory: self time per span name plus counters.

A target that no longer exists (say a later change merges ``orbit`` into
another function) is recorded as missing; a layer all of whose targets are
missing is reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._layer_targets: dict[str, list[bool]] = defaultdict(list)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._seen: dict[int, tuple[set, set]] = {}   # id(datum) -> (pairs, tables)

    # -- spans ---------------------------------------------------------------

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name: str, fn, *args, **kwargs):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    # -- installation --------------------------------------------------------

    def _lookup(self, layer: str, path: str):
        module_name, attr = path.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(path)
            self._layer_targets[layer].append(False)
            return None, None, None
        self._layer_targets[layer].append(True)
        return module, attr, fn

    def wrap(self, layer: str, path: str, make_wrapper) -> None:
        """Replace ``module.attr`` (given as a dotted path) by
        ``make_wrapper(original)``."""
        module, attr, fn = self._lookup(layer, path)
        if module is None:
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make_wrapper(fn))

    def timed(self, span: str, after=None):
        """Wrapper factory: time calls as ``span``; ``after(result, args)``
        updates counters."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call(span, fn, *args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def absent_layers(self) -> list[str]:
        return sorted(layer for layer, found in self._layer_targets.items()
                      if not any(found))

    # -- the weightlab layer boundaries ----------------------------------------

    def install(self) -> None:
        wl = "weightlab."
        count = self.counts

        def built(result, args):
            count["rootdata.builds"] += 1

        for path in ("cli.build_root_datum", "rootdata.build_root_datum"):
            self.wrap("rootdata", wl + path, self.timed("rootdata.build", built))

        def orbited(result, args):
            count["weyl.orbit_calls"] += 1
            count["weyl.orbit_rows"] += len(result)

        self.wrap("weyl", wl + "charcalc.orbit", self.timed("weyl.orbit", orbited))

        walk = self._lookup("charcalc", wl + "charcalc.dominant_weights_below")[2]

        def character_wrapper(fn):
            # the walk is timed on its own just before each character call;
            # the character call then finds it cached and is the recursion
            def wrapper(datum, lam, *rest, **kwargs):
                if walk is not None:
                    below = self.call("charcalc.walk", walk, datum, lam)
                    count["charcalc.walk_weights"] += len(below)
                char = self.call("charcalc.freudenthal", fn, datum, lam, *rest, **kwargs)
                count["charcalc.characters"] += 1
                count["charcalc.dominant_entries"] += len(char.entries)
                return char
            wrapper.__wrapped__ = fn
            return wrapper

        for path in ("tensor.character", "cli.character", "constructions.character"):
            self.wrap("charcalc", wl + path, character_wrapper)

        def table_rows(result, args):
            count["charcalc.expanded_rows"] += len(result[0])

        def map_rows(result, args):
            count["charcalc.expanded_rows"] += len(result)

        self.wrap("charcalc", wl + "tensor.expanded_weight_table",
                  self.timed("charcalc.expand", table_rows))
        for path in ("tensor.expand_character", "constructions.expand_character"):
            self.wrap("charcalc", wl + path, self.timed("charcalc.expand", map_rows))

        for path in ("perfectmonoid.tensor_decompose", "constructions.tensor_decompose",
                     "cli.tensor_decompose", "tensor.tensor_decompose"):
            self.wrap("tensor", wl + path, self._tensor_wrapper)

        def projected(result, args):
            count["latticecalc.project_calls"] += 1

        self.wrap("latticecalc", wl + "latticecalc.project_to_cocenter",
                  self.timed("latticecalc.project", projected))

        def swept(result, args):
            m = len(result)
            count["perfectmonoid.closures"] += 1
            count["perfectmonoid.members"] += m
            count["perfectmonoid.pairs"] += m * (m + 1) // 2

        for path in ("perfectmonoid.bounded_perfect_closure", "cli.bounded_perfect_closure"):
            self.wrap("perfectmonoid", wl + path, self.timed("perfectmonoid.sweep", swept))
        self.wrap("perfectmonoid", wl + "perfectmonoid.predicted_members",
                  self.timed("perfectmonoid.predict"))

        for path in ("cli.w0_antifixed_weight", "cli.factor_antifixed_sequence"):
            self.wrap("constructions", wl + path, self.timed("constructions.trace"))

        def checked(result, args):
            count["constructions.prv_steps"] += result.prv_steps
            count["constructions.tensor_checked"] += result.tensor_checked

        self.wrap("constructions", wl + "cli.check_prv_chain",
                  self.timed("constructions.check", checked))

        self.wrap("cli", wl + "cli.run", self.timed("cli"))

    def _tensor_wrapper(self, fn):
        from weightlab.charcalc import character, weyl_dimension
        from weightlab.weyl import orbit_size

        count = self.counts

        def bookkeeping(datum, key):
            seen = self._seen.get(id(datum))
            if seen is None:
                seen = self._seen[id(datum)] = (set(), set())
                weakref.finalize(datum, self._seen.pop, id(datum), None)
            pairs, tables = seen
            if key in pairs:
                count["tensor.repeats"] += 1
                return
            pairs.add(key)
            # rows folded, computed from the smaller factor's character; the
            # library expands key[1] unless key[0] has the smaller dimension
            small = key[0] if weyl_dimension(datum, key[0]) < weyl_dimension(datum, key[1]) \
                else key[1]
            char = character(datum, small)
            count["tensor.fold_rows"] += sum(orbit_size(datum, w) for w in char.entries)
            if small in tables:
                count["tensor.table_reuses"] += 1
            tables.add(small)

        def wrapper(datum, lam, mu, *rest, **kwargs):
            if self.current() == "perfectmonoid.sweep":
                count["perfectmonoid.pairs_decomposed"] += 1
            result = self.call("tensor.fold", fn, datum, lam, mu, *rest, **kwargs)
            count["tensor.calls"] += 1
            count["tensor.summands"] += len(result.summands)
            key = tuple(sorted((tuple(lam), tuple(mu))))
            # a span of its own, so that enclosing spans exclude this cost
            self.call("trace.bookkeeping", bookkeeping, datum, key)
            return result
        wrapper.__wrapped__ = fn
        return wrapper
