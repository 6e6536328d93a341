"""Layer-boundary spans recorded from outside the library.

A ``Tracer`` replaces public entry points of ``delta_forge`` with thin
wrappers for the length of a traced pass and puts the originals back
afterwards.  Each wrapped call appends one span (name, start, end, parent,
op id) to an in-memory list; counts that belong to a boundary, such as the
terms a prolongation produced, are taken inside the same wrapper.  Ring
element operations are never wrapped: at about a microsecond each they
cost less than the wrapper itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

WRAPPED_MARK = "__perfbench_wrapped__"


def _targets(df):
    """(span name, owner, attribute, count function) for every boundary.

    Module-level functions are patched in every ``delta_forge`` module that
    holds a reference to them, because callers look them up in their own
    module globals (``homs.gm_hom`` calls ``psi`` through ``homs``, the CLI
    through ``cli``).  Methods are patched on their class.
    """
    terms = lambda poly: len(poly.terms)  # noqa: E731
    return [
        ("rings.build", df.rings.WittRing, "__init__", None),
        ("rings.find_irreducible", df.selftest, "find_irreducible", None),
        ("homs.psi", df.homs, "psi", None),
        ("homs.gm_hom", df.homs, "gm_hom", None),
        ("matrices.mul", df.matrices.SquareMatrix, "__mul__", None),
        ("matrices.det", df.matrices.SquareMatrix, "det", None),
        ("matrices.invert", df.matrices.SquareMatrix, "invert", None),
        ("matrices.solve_linear", df.matrices, "solve_linear", None),
        ("matrices.random_gl", df.matrices, "random_gl", None),
        ("jets.prolong", df.jets.JetPolynomial, "prolong", terms),
        ("jets.mul", df.jets.JetPolynomial, "__mul__", None),
        ("jets.eval_jet", df.jets, "eval_jet", None),
        ("jets.nabla", df.jets, "nabla", None),
        ("cocycles.cocycle_check", df.cocycles, "cocycle_check", None),
        ("cocycles.coherence_check", df.cocycles, "coherence_check", None),
        ("cocycles.recover", df.cocycles, "recover", None),
        ("cocycles.handle", df.cocycles.DeltaMapHandle, "__call__", None),
        ("cocycles.classified_eval", df.cocycles, "classified_eval", None),
        ("cocycles.log_derivative", df.cocycles, "log_derivative", None),
        ("decomp.decompose", df.decomp, "decompose", None),
        ("decomp.reconstruct", df.decomp, "reconstruct", None),
        ("decomp.precondition", df.decomp, "precondition", None),
        ("decomp.is_admissible", df.decomp, "is_admissible", None),
        ("cli.main", df.cli, "main", None),
    ]


def _library_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "delta_forge" or name.startswith("delta_forge."))
    ]


class Tracer:
    """Span recorder; ``install`` patches the library, ``restore`` undoes it."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = {}
        self.op_id = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._paused = False

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op_id)
            if count is not None:
                key = name + ".terms_out"
                tracer.counts[key] = tracer.counts.get(key, 0) + count(result)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def install(self, df):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("delta_forge.cli")  # loads selftest as well
        modules = _library_modules()
        for name, owner, attr, count in _targets(df):
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, count)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    @contextmanager
    def installed(self, df):
        self.install(df)
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording spans."""
        prev, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = prev

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)


def wrapped_names():
    """Attributes of the library that currently hold a tracer wrapper."""
    found = []
    for mod in _library_modules():
        for key, value in vars(mod).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED_MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def self_times(spans):
    """Per span: duration minus the part of it covered by its children.

    Children may in general overlap, so their intervals are merged before
    being subtracted; coverage is clipped to the parent's own interval.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans):
    """name -> {"calls", "total_s", "self_s"} plus parent-child call counts."""
    selfs = self_times(spans)
    by_name = {}
    pairs = {}
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, _ = span
        rec = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += self_s
        if parent >= 0:
            key = (spans[parent][0], name)
            pairs[key] = pairs.get(key, 0) + 1
    return by_name, pairs


CALLS_AND_SELF = [
    "rings.build", "rings.find_irreducible",
    "homs.psi",
    "matrices.mul", "matrices.det", "matrices.invert", "matrices.solve_linear",
    "matrices.random_gl",
    "jets.prolong", "jets.mul", "jets.eval_jet",
    "cocycles.cocycle_check", "cocycles.coherence_check", "cocycles.recover",
    "cocycles.handle",
    "decomp.decompose", "decomp.reconstruct", "decomp.precondition",
    "cli.main",
]
SELF_ONLY = ["homs.gm_hom", "jets.nabla", "cocycles.classified_eval",
             "cocycles.log_derivative"]


def layer_metrics(spans, counts):
    """The per-layer metrics of a traced pass, as name -> (value, unit).

    A layer that was never called reports zero calls and zero seconds.
    """
    by_name, pairs = aggregate(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    get = lambda name: by_name.get(name, empty)  # noqa: E731
    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = (get(name)["calls"], "count")
        out[name + ".self_s"] = (get(name)["self_s"], "s")
    for name in SELF_ONLY:
        out[name + ".self_s"] = (get(name)["self_s"], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    psi = get("homs.psi")
    out["homs.psi.us_per_call"] = (ratio(psi["total_s"] * 1e6, psi["calls"]), "us")
    terms = counts.get("jets.prolong.terms_out", 0)
    out["jets.prolong.terms_out"] = (terms, "count")
    out["jets.prolong.terms_per_s"] = (ratio(terms, get("jets.prolong")["total_s"]), "1/s")
    out["matrices.random_gl.tries_per_sample"] = (
        ratio(pairs.get(("matrices.random_gl", "matrices.det"), 0),
              get("matrices.random_gl")["calls"]), "ratio")
    out["decomp.precondition.attempts_per_call"] = (
        ratio(pairs.get(("decomp.precondition", "decomp.is_admissible"), 0),
              get("decomp.precondition")["calls"]), "ratio")
    return out
