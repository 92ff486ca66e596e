"""Per-layer tracing of the hamnt package from outside it.

`Tracer.install()` wraps public functions, methods, constructors and
cached properties of the package and rebinds every name that refers to
them: each module that imported a function (for example
`setwise_stabilizer` is bound in `transitivity`, `family_codes`, `cli` and
the package itself) and each class attribute that aliases a method.
`uninstall()` puts every original object back.  No file of the package
changes.

Three kinds of wrapper:

* count  -- hot primitives (`apply`, `compose`, the constructors): the call
  is counted, not timed, so its cost stays in the caller's self time.
* timed  -- the call is a frame on the tracer's stack and its self time
  (duration minus the time of nested frames) is added to its name.
  Calls made once per group element (`is_code_automorphism`, and each
  step of the iterator an `iter` target returns) stop there, which keeps
  the span list small.
* span   -- a timed frame that also records a span
  (id, parent id, op id, name, start, end) in memory; the nearest
  recording ancestor is the parent.  `write_spans` writes them out.
"""

from __future__ import annotations

import csv
import gzip
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

PACKAGE = "hamnt"

# (layer = module, attribute path, metric stem, kind, size metric or None);
# a count target's stem is its metric name within the layer
TARGETS = (
    ("hamming_core", "Vertex.__init__", "vertex_new.count", "count", None),
    ("hamming_core", "neighbours", "neighbours", "span", None),
    ("hamming_core", "common_neighbours", "common_neighbours", "span", None),
    ("hamming_core", "enumerate_triples", "enumerate_triples", "iter", None),
    ("wreath_group", "Automorphism.__init__", "automorphism_new.count", "count", None),
    ("wreath_group", "Automorphism.apply", "apply.calls", "count", None),
    ("wreath_group", "Automorphism.compose", "compose.calls", "count", None),
    ("wreath_group", "orbit", "orbit", "span", None),
    ("wreath_group", "closure", "closure", "span", "elements"),
    ("wreath_group", "enumerate_full_group", "enumerate_full_group", "iter", None),
    ("code_model", "Code.__init__", "code_new.count", "count", None),
    ("code_model", "Code.min_distance", "min_distance", "span", None),
    ("code_model", "Code.neighbour_set", "neighbour_set", "span", None),
    ("code_model", "Code.image", "image", "span", None),
    ("code_model", "is_code_automorphism", "is_code_automorphism", "timed", None),
    ("code_model", "read_code_file", "read_code_file", "span", None),
    ("precodeword", "verify_pre_structure", "verify_pre_structure", "span", None),
    ("transitivity", "setwise_stabilizer", "setwise_stabilizer", "span", "elements"),
    ("transitivity", "is_neighbour_transitive", "is_neighbour_transitive", "span", None),
    ("transitivity", "classify_theorem", "classify_theorem", "span", None),
    ("family_codes", "build_family", "build_family", "span", None),
    ("family_codes", "verify_family", "verify_family", "span", None),
    ("cli", "run_lemma_suite", "run_lemma_suite", "span", None),
    ("cli", "main", "main", "span", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass produces, in a fixed order."""
    names = []
    for layer, _, stem, kind, size in TARGETS:
        base = f"{layer}.{stem}"
        if kind == "count":
            names.append(base)
            continue
        names.append(base + ".calls")
        if kind == "iter":
            names.append(base + ".items")
        if size:
            names.append(f"{base}.{size}")
        names.append(base + ".self_s")
    names.extend(f"{layer}.self_s" for layer in LAYERS)
    return names


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Counters, self times and spans of one traced pass."""

    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [name, start, child time, span id, parent span id]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- frames --------------------------------------------------------------

    def _enter(self, name: str, record: bool):
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        if record:
            self._next_id += 1
            sid = self._next_id
        else:
            sid = parent
        stack.append([name, perf_counter(), 0.0, sid, parent])

    def _exit(self, record: bool):
        end = perf_counter()
        name, start, child, sid, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if record:
            self.spans.append((sid, parent, self.op, name, start, end))

    # -- wrappers ------------------------------------------------------------

    def _counted(self, fn, metric):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, fn, name, record, size_metric):
        counts, enter, exit_ = self.counts, self._enter, self._exit
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(record)
            if size_metric:
                counts[size_metric] += len(result)
            return result
        return wrapper

    def _iterating(self, fn, name):
        """The call is a span; each later step of the returned iterator is a
        timed frame of the same name, counted in `<name>.items`."""
        call = self._timed(fn, name, True, None)
        counts, enter, exit_ = self.counts, self._enter, self._exit
        items = name + ".items"

        def steps(it):
            while True:
                enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(False)
                counts[items] += 1
                yield item

        def wrapper(*args, **kwargs):
            return steps(iter(call(*args, **kwargs)))
        return wrapper

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, replacement, owners):
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, replacement)

    def install(self) -> None:
        """Wrap every target and rebind every name that refers to one."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        try:
            for layer, path, stem, kind, size in TARGETS:
                self._install_one(modules, by_name[f"{PACKAGE}.{layer}"], layer, path,
                                  stem, kind, size)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, modules, owner, layer, path, stem, kind, size):
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        name = f"{layer}.{stem}"
        if kind == "count":
            self._rebind(original, self._counted(original, name), [owner])
        elif isinstance(original, cached_property):
            prop = cached_property(self._timed(original.func, name, True, None))
            prop.__set_name__(owner, attr)
            self._rebind(original, prop, [owner])
        elif kind == "iter":
            self._rebind(original, self._iterating(original, name), modules)
        else:
            metric = f"{name}.{size}" if size else None
            wrapped = self._timed(original, name, kind == "span", metric)
            self._rebind(original, wrapped, [owner] if cls_path else modules)

    def uninstall(self) -> None:
        """Put back every object `install` replaced, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every name of `metric_names()` with its value; absent means 0."""
        values: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            values[name + ".self_s"] = seconds
            layer_self[name.split(".", 1)[0]] += seconds
        values.update(self.counts)
        for layer, seconds in layer_self.items():
            values[layer + ".self_s"] = seconds
        return {name: values.get(name, 0) for name in metric_names()}


def write_spans(path, passes) -> int:
    """Write the spans of every traced pass as gzipped CSV; returns the count."""
    written = 0
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("pass", "id", "parent", "op", "name", "start", "end"))
        for index, spans in passes:
            for span in spans:
                out.writerow((index, *span))
                written += 1
    return written
