"""Spans and counts around the public callables of each zrelalg layer.

A ``Tracer`` wraps every callable named in ``TARGETS``, replacing the name
wherever it is looked up: on the class for methods, and in every loaded
``zrelalg`` module (and the benchmark's own modules) that imported the
function by name.  A span records (name, start, end, parent); a counted
target records only its number of calls.  Spans stay in memory and are
written out once, when the repetition ends.  Recording happens only while
``active`` is true, which the benchmark sets inside its timed steps, so
correctness checks never show up in the layer numbers.
"""

from __future__ import annotations

import json
import sys
import time

from zrelalg import cli, dalg, groups, murphy, repn, ring, tabular, zpart

SPAN = "span"
COUNT = "count"

# (layer name, owner, attribute, mode).  Several attributes may share one
# layer name: the three Murphy builders form "murphy.build".
TARGETS = [
    ("ring.inverse_rational", ring.ExactMatrix, "inverse_rational", SPAN),
    ("ring.rank_det_symbolic", ring.ExactMatrix, "rank_det_symbolic", SPAN),
    ("ring.rank_det_field", ring.ExactMatrix, "rank_det_field", SPAN),
    ("zpart.enumerate_rk", zpart, "enumerate_rk", SPAN),
    ("zpart.compose", zpart, "compose", SPAN),
    ("zpart.canonicalize", zpart, "canonicalize", COUNT),
    ("dalg.basis", dalg, "basis", SPAN),
    ("dalg.in_basis", dalg, "in_basis", COUNT),
    ("dalg.mul", dalg.AlgebraElement, "__mul__", SPAN),
    ("groups.ga_mul", groups.GAElement, "__mul__", SPAN),
    ("murphy.build", murphy, "sym_murphy", SPAN),
    ("murphy.build", murphy, "wreath_murphy", SPAN),
    ("murphy.build", murphy, "product_murphy", SPAN),
    ("murphy.struct_const", murphy.MurphyBasis, "struct_const", SPAN),
    ("murphy.coords", murphy.MurphyBasis, "coords", SPAN),
    ("tabular.cellular_basis", tabular, "cellular_basis", SPAN),
    ("tabular.coords", tabular.CellularBasis, "coords", SPAN),
    ("tabular.decompose", tabular, "decompose", SPAN),
    ("tabular.reconstruct", tabular, "reconstruct", SPAN),
    ("tabular.phi", tabular, "phi", SPAN),
    ("tabular.enumerate_M", tabular, "enumerate_M", SPAN),
    ("repn.gram", repn, "gram", SPAN),
    ("repn.gram_bruteforce", repn, "gram_bruteforce", SPAN),
    ("repn.irreducible_table", repn, "irreducible_table", SPAN),
    ("cli.main", cli, "main", SPAN),
]

SPAN_LAYERS = sorted({name for name, _, _, mode in TARGETS if mode == SPAN})


def _observe_inverse(tracer, args, result):
    n = args[0].nrows
    if n > tracer.counts.get("ring.inverse_rational.n_max", 0):
        tracer.counts["ring.inverse_rational.n_max"] = n


def _observe_phi(tracer, args, result):
    if result is None:
        tracer.counts["tabular.phi.none"] = (
            tracer.counts.get("tabular.phi.none", 0) + 1)


OBSERVERS = {"ring.inverse_rational": _observe_inverse,
             "tabular.phi": _observe_phi}


class Tracer:
    """In-memory spans and call counts for one repetition."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def _span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[calls] = self.counts.get(calls, 0) + 1
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[calls] = self.counts.get(calls, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, extra_modules=()):
        """Wrap every target; ``extra_modules`` are also searched for
        names imported from zrelalg."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "zrelalg" or n.startswith("zrelalg.")]
        modules.extend(extra_modules)
        for name, owner, attr, mode in TARGETS:
            original = getattr(owner, attr)
            if mode == SPAN:
                wrapper = self._span_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """Seconds per layer: each span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(SPAN_LAYERS, 0.0)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def dump(self, path):
        """Write the spans as [name index, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names, "counts": self.counts,
                       "spans": [[index[n], round(s, 7), round(e, 7), p]
                                 for n, s, e, p in self.spans]},
                      fh, separators=(",", ":"))
