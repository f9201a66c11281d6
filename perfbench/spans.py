"""Span tracing of hyplab from the outside, by wrapping its public names.

A ``Tracer`` replaces every public function of the hyplab modules at each
name a caller looks it up by (``hyplab.theoremlab.min_norm_solve`` as well
as ``hyplab.dop.min_norm_solve``), plus ``numpy.linalg.svd`` and
``numpy.linalg.lstsq``.  Each call records one span: name, start, end,
parent span and op id, kept in flat in-memory arrays and written out once
at the end.  Constructors of the scalar types are counted, not spanned,
because there are thousands per op.

Two names are left alone on purpose: ``jsonio.dumps`` inside ``jsonio``
(it calls itself once per element, so only its callers' names are
wrapped) and ``jsonio.format_float`` (called only from inside ``dumps``).

Every span name belongs to one category.  The per-layer metrics are built
from categories: a layer's busy time is the time covered by its outermost
spans, and its self time is span time minus the time of child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from array import array
from collections import Counter

#: hyplab modules whose public functions are wrapped, in import order.
MODULES = ("hyperscalar", "dmodule", "dop", "theoremlab", "jsonio", "cli")

#: Classes whose methods are spanned; ``to_json_dict`` methods anywhere
#: are spanned too, as serialization.
SPANNED_METHODS = {
    ("dmodule", "BCVector"): ("__init__", "scale", "__add__", "__sub__", "__neg__", "zeros"),
    ("dmodule", "DSeminorm"): ("__call__",),
    ("dop", "BCMatrix"): ("__init__", "identity", "zeros"),
}

#: Scalar classes whose constructions are counted as ``hyperscalar.values``.
COUNTED_CLASSES = ("Hyperbolic", "DPlus", "Bicomplex")

_JSONIO_CATEGORY = {
    "load_json": "parse",
    "parse_scalar": "parse",
    "parse_vector": "parse",
    "parse_matrix": "parse",
    "parse_series": "parse",
    "parse_hyp_literal": "parse",
    "digest": "digest",
    "matrix_to_json": "digest",
    "vector_to_json": "digest",
    "dumps": "emit",
    "scalar_to_json": "emit",
}

#: Names never wrapped, as (module, name): see the module docstring.
_SKIP = {("jsonio", "format_float")}

CATEGORIES = (
    "dmodule", "dop", "linalg", "theoremlab", "emit", "parse", "digest",
    "jsonio", "cli", "subprocess",
)
_CAT_BIT = {c: 1 << i for i, c in enumerate(CATEGORIES)}


def category_of(name: str) -> str:
    """Category of a span name such as ``dop.op_dnorm`` or ``numpy.linalg.svd``."""
    if name.startswith("numpy.linalg."):
        return "linalg"
    if name.endswith(".to_json_dict"):
        return "emit"
    if name == "subprocess":
        return "subprocess"
    mod, _, rest = name.partition(".")
    if mod == "jsonio":
        return _JSONIO_CATEGORY.get(rest, "jsonio")
    return mod


class Tracer:
    """Installs wrappers while enabled and records spans and counters."""

    def __init__(self, extra_namespaces=()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._extra = list(extra_namespaces)
        self._patches: list[tuple[object, str, object]] = []

    # recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    def _span(self, fn, name: str):
        nid = self._nid(name)
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        # open_span and close_span inlined: this runs thousands of times per op
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factored(self, fn, name: str):
        """Span a LAPACK entry point and add its operands' bytes."""
        spanned = self._span(fn, name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            counts["dop.factored_bytes"] += getattr(a, "nbytes", 0)
            if args:
                counts["dop.factored_bytes"] += getattr(args[0], "nbytes", 0)
            return spanned(a, *args, **kwargs)

        return wrapper

    def _bytes_out(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = fn(*args, **kwargs)
            counts["jsonio.bytes_out"] += len(text.encode("utf-8"))
            return text

        return wrapper

    def _bytes_in(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            try:
                counts["jsonio.bytes_in"] += os.path.getsize(path)
            except OSError:
                pass  # load_json itself reports the unreadable path
            return fn(path, *args, **kwargs)

        return wrapper

    # installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public hyplab function at every name it is bound to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy as np

        import hyplab

        mods = {m: getattr(__import__(f"hyplab.{m}"), m) for m in MODULES}
        namespaces = [hyplab, *mods.values(), *self._extra]

        # functions: build one wrapper per function object, then rebind it
        # wherever that object is found
        wrappers: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or (mname, attr) in _SKIP:
                    continue
                # scalar helpers are counted through constructors, and a
                # generator's span would end before its body runs
                if mname == "hyperscalar" or inspect.isgeneratorfunction(obj):
                    continue
                name = f"{mname}.{attr}"
                if name == "theoremlab.check_stream":
                    wrapped = self._counted(obj, "theoremlab.samples")
                elif name == "jsonio.dumps":
                    wrapped = self._bytes_out(self._span(obj, name))
                elif name == "jsonio.load_json":
                    wrapped = self._bytes_in(self._span(obj, name))
                else:
                    wrapped = self._span(obj, name)
                wrappers[id(obj)] = wrapped
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if w is None:
                    continue
                if ns is mods["jsonio"] and attr == "dumps":
                    continue  # its own recursive calls stay unwrapped
                self._set(ns, attr, w)

        # methods
        for (mname, cname), attrs in SPANNED_METHODS.items():
            cls = getattr(mods[mname], cname, None)
            if cls is None:
                continue
            for attr in attrs:
                raw = cls.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._span(raw.__func__, f"{mname}.{cname}.{attr}")))
                elif inspect.isfunction(raw):
                    self._set(cls, attr, self._span(raw, f"{mname}.{cname}.{attr}"))
        for mname, mod in mods.items():
            for cname, cls in list(vars(mod).items()):
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                raw = cls.__dict__.get("to_json_dict")
                if inspect.isfunction(raw):
                    self._set(cls, "to_json_dict", self._span(raw, f"{mname}.{cname}.to_json_dict"))
        for cname in COUNTED_CLASSES:
            cls = getattr(mods["hyperscalar"], cname, None)
            if cls is not None and inspect.isfunction(cls.__dict__.get("__init__")):
                self._set(cls, "__init__", self._counted(cls.__dict__["__init__"], "hyperscalar.values"))

        # the power-iteration kernel is private; its calls are traffic evidence
        if inspect.isfunction(getattr(mods["dop"], "_power_extremes", None)):
            self._set(mods["dop"], "_power_extremes", self._counted(mods["dop"]._power_extremes, "dop.power_iteration"))

        # LAPACK entry points, looked up as attributes of numpy.linalg
        self._set(np.linalg, "svd", self._factored(np.linalg.svd, "numpy.linalg.svd"))
        self._set(np.linalg, "lstsq", self._factored(np.linalg.lstsq, "numpy.linalg.lstsq"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # persistence -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans and counters to one file.

        The first line is a JSON header with the span names, the clock
        origin and the counters.  Each further line is one span, its row
        number its id: op, parent, name index, start and end in
        microseconds after the origin, tab-separated.
        """
        origin = self.start[0] if self.start else 0.0
        header = {"names": self.names, "origin_s": origin, "counts": dict(sorted(self.counts.items()))}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{self.op[i]}\t{self.parent[i]}\t{self.name_id[i]}\t"
                    f"{(self.start[i] - origin) * 1e6:.3f}\t{(self.end[i] - origin) * 1e6:.3f}\n"
                )

    def merge(self, path: str, parent: int) -> Counter:
        """Append the spans another process wrote, under span ``parent``.

        Returns that process's counters.  Both processes read the same
        monotonic clock, so their start and end times are comparable.
        """
        base = len(self.name_id)
        with open(path, encoding="utf-8") as fh:
            header = json.loads(next(fh))
            nids = [self._nid(n) for n in header["names"]]
            origin = header["origin_s"]
            for line in fh:
                _op, par, nid, start, end = line.split("\t")
                p = int(par)
                self.name_id.append(nids[int(nid)])
                self.parent.append(parent if p < 0 else base + p)
                self.op.append(self.op_id)
                self.start.append(origin + float(start) * 1e-6)
                self.end.append(origin + float(end) * 1e-6)
        return Counter(header["counts"])


def layer_times(tracer: Tracer, first: int, stop: int) -> dict[str, float]:
    """Busy and self times per category over spans ``first:stop``.

    ``busy:<cat>`` is the time covered by spans of that category that have
    no ancestor of the same category; ``busy:dop`` treats dop and linalg
    spans as one layer.  ``self:<cat>`` is span time minus child span time.
    """
    cats = [_CAT_BIT[category_of(n)] for n in tracer.names]
    dop_bits = _CAT_BIT["dop"] | _CAT_BIT["linalg"]
    mask: dict[int, int] = {}
    child = [0.0] * (stop - first)
    out: Counter = Counter()
    for i in range(first, stop):
        bit = cats[tracer.name_id[i]]
        p = tracer.parent[i]
        anc = 0
        if p >= first:
            anc = mask[p] | cats[tracer.name_id[p]]
        mask[i] = anc
        dur = tracer.end[i] - tracer.start[i]
        if p >= first:
            child[p - first] += dur
        if not anc & bit:
            out["busy:" + CATEGORIES[bit.bit_length() - 1]] += dur
        if bit & dop_bits and not anc & dop_bits:
            out["busy:dop+linalg"] += dur
    for i in range(first, stop):
        cat = CATEGORIES[cats[tracer.name_id[i]].bit_length() - 1]
        out["self:" + cat] += (tracer.end[i] - tracer.start[i]) - child[i - first]
    return dict(out)


def call_counts(tracer: Tracer, first: int, stop: int) -> Counter:
    """Number of spans per name over spans ``first:stop``."""
    c: Counter = Counter()
    for i in range(first, stop):
        c[tracer.names[tracer.name_id[i]]] += 1
    return c
