"""Span tracer for the traced benchmark run (``--trace 1``).

Wraps public names of the five canvdw modules at run time, in every module
namespace that refers to them, so calls made inside the library are seen
too.  Each call becomes a span (id, name, start, end, parent).  Self time
is a span's duration minus the time its child spans cover.  Totals are kept
per name; raw spans are kept in memory up to a cap and written out at the
end.  The untraced run never imports this module.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("search.canonical_number", "search", "canonical_number"),
    ("search.naive_canonical_number", "search", "naive_canonical_number"),
    ("search.run_report", "search", "run_report"),
    ("witness.find_witness", "witness", "find_witness"),
    ("witness.verify_certificate", "witness", "verify_certificate"),
    ("coloring.colouring_digest", "coloring", "colouring_digest"),
    ("coloring.serialize", "coloring", "serialize"),
    ("polynomial.load_family", "polynomial", "load_family"),
)
# (span name, module, class, attribute) for methods and classmethods.
METHODS = (
    ("polynomial.evaluate", "polynomial", "IntegralPolynomial", "evaluate"),
    ("coloring.TypedColouring", "coloring", "TypedColouring", "single"),
    ("witness.Certificate.to_json", "witness", "Certificate", "to_json"),
    ("witness.Certificate.from_json", "witness", "Certificate", "from_json"),
)


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() undoes it."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.stack: list[list] = []  # [span id, time covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []
        self.recording = False
        self.next_id = 0
        self.find_hits = 0
        self.cold_calls = 0
        self.cold_s = 0.0
        self.rejects = 0
        self._seen_plans: set = set()
        self._undo: list = []

    def wrap(self, name: str, fn, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self.next_id += 1
            frame = [self.next_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if self.recording and len(self.spans) < self.span_cap:
                    self.spans.append(
                        (frame[0], name, t0, t1, parent[0] if parent is not None else 0)
                    )
            if observe is not None:
                observe(args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_find(self, args, kwargs, result, dur):
        if result is not None:
            self.find_hits += 1
        # Every caller passes the scan-plan inputs positionally; pad with
        # find_witness's defaults.
        col, mono, rain, h, policy = args + (None, 0, "nonzero")[len(args) - 2 :]
        key = (mono, rain, col.length, h, policy)
        if key not in self._seen_plans:
            self._seen_plans.add(key)
            self.cold_calls += 1
            self.cold_s += dur

    def _observe_verify(self, args, kwargs, result, dur):
        if not result.ok:
            self.rejects += 1

    def install(self) -> None:
        """Swap every traced name for its wrapper in all canvdw modules."""
        mods = {k: v for k, v in sys.modules.items() if k == "canvdw" or k.startswith("canvdw.")}
        hooks = {
            "witness.find_witness": self._observe_find,
            "witness.verify_certificate": self._observe_verify,
        }
        for name, modname, attr in FUNCTIONS:
            orig = getattr(mods[f"canvdw.{modname}"], attr)
            wrapper = self.wrap(name, orig, hooks.get(name))
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(mods[f"canvdw.{modname}"], clsname)
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take(self) -> dict:
        """Per-name totals and counters since the last take, then reset."""
        snap = {name: tuple(v) for name, v in self.stats.items()}
        snap["find_hits"] = self.find_hits
        snap["cold_calls"] = self.cold_calls
        snap["cold_s"] = self.cold_s
        snap["rejects"] = self.rejects
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.find_hits = self.cold_calls = self.rejects = 0
        self.cold_s = 0.0
        return snap

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
