"""Outside-in span tracer for the locfine benchmark.

The tracer wraps public entry points of the library from the outside: each
wrapped function is replaced, in every ``locfine`` module that holds it under
any name, by a wrapper that records a span (name, start, end, parent span,
query id).  Methods are wrapped on their class.  ``uninstall`` puts every
original back, so an untraced run carries no wrappers at all.

Spans stay in memory until ``write`` dumps them.  A layer's self time is the
sum over its spans of the span's duration minus the durations of its direct
children; the process runs one thread, so children never overlap.

Work counters are derived from the arguments and results of the wrapped
calls (for instance rounds from the ``DerivationTrace`` that ``saturate``
returns), never from inside the library.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("carrier", "covering", "frames", "products", "game", "formal", "cli")


# Counter observers: called with (counters, span state, args, result) after
# the wrapped call returns normally.

def _saturate_counts(c, state, args, result):
    closed, trace = result
    rounds = len(trace.stages) - 1
    c["covering.rounds"] += rounds
    c["covering.pairs_out"] += len(closed.pairs)
    c["covering.pairs_derived"] += sum(len(added) for _, added in trace.stages[1:])


def _frame_counts(c, state, args, result):
    n = len(args[0].elements)
    c["frames.elements_built"] += n
    c["frames.table_cells"] += n * n


def _points_counts(c, state, args, result):
    c["frames.points_found"] += len(result)


def _derivable_counts(c, state, args, result):
    c["products.derivable_calls"] += 1
    target = args[1] if len(args) > 1 else None
    state.distinct_targets.add((state.query_id, id(args[0]), target))


def _coproduct_counts(c, state, args, result):
    locale, _phi = result
    c["products.locale_elements"] += len(locale.frame)


def _solve_counts(c, state, args, result):
    c["game.pieces"] += 2 ** len(args[0].monoid.carrier.points)
    c["game.winning"] += len(result.winning_set)


def _formal_saturation_counts(c, state, args, result):
    c["formal.saturations"] += 1
    c["formal.judgments"] += len(result)


# (module, attribute or Class.method, layer, observer).  Names that a later
# version of the library no longer has are skipped and reported by
# ``install``; the layer then shows fewer calls.
TARGETS = (
    ("carrier", "normalize", "carrier", None),
    ("carrier", "meet_cover", "carrier", None),
    ("carrier", "refines", "carrier", None),
    ("carrier", "restrict", "carrier", None),
    ("carrier", "fold_meet", "carrier", None),
    ("covering", "saturate", "covering", _saturate_counts),
    ("covering", "audit_axioms", "covering", None),
    ("covering", "lambda_close", "covering", None),
    ("covering", "rank", "covering", None),
    ("covering", "witness_tree", "covering", None),
    ("frames", "Frame.__init__", "frames", _frame_counts),
    ("frames", "points_of", "frames", _points_counts),
    ("frames", "is_spatial", "frames", None),
    ("products", "coproduct_frames", "products", _coproduct_counts),
    ("products", "ProductCoverage.derivable_set", "products", _derivable_counts),
    ("game", "solve", "game", _solve_counts),
    ("formal", "entails", "formal", None),
    ("formal", "derivation", "formal", None),
    ("formal", "derivable_judgments", "formal", None),
    # The formal saturation engine is private; it is wrapped only to count
    # saturations and judgments, and its time stays with the formal layer.
    ("formal", "_saturate_judgments", "formal", _formal_saturation_counts),
    ("cli", "main", "cli", None),
)

COUNTERS = (
    "covering.rounds", "covering.pairs_out", "covering.pairs_derived",
    "frames.elements_built", "frames.table_cells", "frames.points_found",
    "products.derivable_calls", "products.locale_elements",
    "game.pieces", "game.winning",
    "formal.saturations", "formal.judgments",
)


class Tracer:
    """Records spans around the TARGETS of an imported ``locfine`` package."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # (name, start, end, parent index, query id)
        self.stack = []
        self.query_id = -1
        self.recording = False
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.distinct_targets = set()
        self.missing = []
        self._layer_of = {}
        self._patches = []       # (owner, attribute, original, was it own)

    # -- installation -------------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for modname, attr, layer, observe in TARGETS:
            mod = getattr(self.package, modname, None)
            span_name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(span_name)
                    continue
                orig = vars(cls)[meth]
                self._layer_of[span_name] = layer
                self._set(cls, meth, self._wrap(orig, span_name, observe))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(span_name)
                continue
            self._layer_of[span_name] = layer
            wrapper = self._wrap(orig, span_name, observe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
        return self

    def _set(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _wrap(self, fn, span_name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, tracer.query_id)
            if observe is not None:
                observe(tracer.counters, tracer, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_totals(self):
        """(calls, self seconds) per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _q in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _p, _q) in enumerate(self.spans):
            layer = self._layer_of[name]
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
        return calls, self_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,query\n")
            for name, start, end, parent, q in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{q}\n")
