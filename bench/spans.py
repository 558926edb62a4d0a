"""Per-module tracing for the traced run, kept entirely in this directory.

``Tracer.install`` swaps each listed public function for a timing wrapper
in every torusfix module namespace that binds it (``refine_root`` is also
bound in ``unitcircle``, ``classify`` in the package, and so on).  Spans
stay in memory; each records its parent, and a function's self time is
its span minus the spans of its traced children.  A listed name missing
at the current commit is reported as absent."""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

TRACED = (
    "cli.main",
    "endomorphisms.char_poly_rational",
    "endomorphisms.fix_sequence",
    "endomorphisms.fix_count",
    "endomorphisms.fix_count_quartic",
    "endomorphisms.mat_pow",
    "behavior.classify",
    "behavior.mahler_measure_interval",
    "unitcircle.validate_conjugate_pair_structure",
    "unitcircle.unit_circle_factor",
    "unitcircle.count_roots_by_modulus",
    "unitcircle.off_circle_groups",
    "unitcircle.schur_cohn_inside",
    "intervals.sqrt_interval",
    "polynomials.power_mod",
    "polynomials.resultant",
    "polynomials.squarefree_decomposition",
    "polynomials.sturm_count",
    "polynomials.real_root_isolation",
    "polynomials.refine_root",
    "polynomials.rational_roots",
    "algebras.rm_char_poly",
    "algebras.quat_char_poly",
    "algebras.cm_char_poly",
    "algebras.find_small_eigenvalue_parameter",
    "algebras.mcmullen_family",
)

# Count ratios, computed in Tracer.metrics; they count calls, not time, so
# they repeat exactly for a seed.
RATIOS = (
    "unitcircle.validate_conjugate_pair_structure.per_classify",
    "unitcircle.unit_circle_factor.per_classify",
    "endomorphisms.char_poly_rational.per_sequence_term",
    "polynomials.refine_root.per_enclosure",
    "algebras.mcmullen_family.per_search",
)

# span fields
NAME, PARENT, START, END, ARG, DONE, TAG = range(7)


def _tag(result):
    verdict = getattr(result, "verdict", None)
    if verdict is not None:
        return verdict
    return len(result) if isinstance(result, list) else None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def install(self) -> None:
        for dotted in TRACED:
            try:
                importlib.import_module("torusfix." + dotted.rsplit(".", 1)[0])
            except ImportError:
                pass  # reported below as absent
        namespaces = [m for name, m in sys.modules.items()
                      if name == "torusfix" or name.startswith("torusfix.")]
        for dotted in TRACED:
            modname, fname = dotted.rsplit(".", 1)
            orig = getattr(sys.modules.get(f"torusfix.{modname}"), fname, None)
            if not callable(orig):
                self.absent.append(dotted)
                continue
            wrapper = self._wrap(len(self.names), orig)
            self.names.append(dotted)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)

    def _wrap(self, index: int, orig):
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0,
                    type(args[0]).__name__ if args else "", False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = orig(*args, **kwargs)
                span[DONE], span[TAG] = True, _tag(result)
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def reset_stack(self) -> None:
        """Called after every op: a timeout can leave a frame unpopped."""
        self.stack.clear()

    # -- aggregation -------------------------------------------------------------

    def _under(self, target: str, ancestor: str) -> Counter:
        """For each completed `ancestor` span, how many `target` spans it
        contains (the nearest `ancestor` on the parent chain counts)."""
        t, a = self._index(target), self._index(ancestor)
        out = Counter()
        if t is None or a is None:
            return out
        for span in self.spans:
            if span[NAME] != t:
                continue
            p = span[PARENT]
            while p >= 0 and self.spans[p][NAME] != a:
                p = self.spans[p][PARENT]
            if p >= 0 and self.spans[p][DONE]:
                out[p] += 1
        return out

    def _index(self, name: str):
        return self.names.index(name) if name in self.names else None

    def _done(self, name: str, keep=lambda span: True) -> list[int]:
        i = self._index(name)
        return [k for k, s in enumerate(self.spans) if s[NAME] == i and s[DONE] and keep(s)]

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        calls, self_s = Counter(), Counter()
        for k, s in enumerate(spans):
            name = self.names[s[NAME]]
            calls[name] += 1
            self_s[name] += s[END] - s[START] - child[k]
        out = {}
        for dotted in TRACED:
            out[f"{dotted}.calls"] = (calls[dotted], "count")
            out[f"{dotted}.self_ms"] = (1000 * self_s[dotted], "ms")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        classify = self._done("behavior.classify")
        validations = self._under("unitcircle.validate_conjugate_pair_structure",
                                  "behavior.classify")
        out[RATIOS[0]] = ratio(sum(validations[k] for k in classify), len(classify))

        b1 = self._done("behavior.classify", lambda s: s[TAG] == "B1")
        circles = self._under("unitcircle.unit_circle_factor", "behavior.classify")
        out[RATIOS[1]] = ratio(sum(circles[k] for k in b1), len(b1))

        matrix_seqs = self._done("endomorphisms.fix_sequence", lambda s: s[ARG] == "RationalRep")
        polys = self._under("endomorphisms.char_poly_rational", "endomorphisms.fix_sequence")
        out[RATIOS[2]] = ratio(sum(polys[k] for k in matrix_seqs),
                               sum(spans[k][TAG] for k in matrix_seqs))

        refines = self._under("polynomials.refine_root", "behavior.classify")
        enclosures = self._under("behavior.mahler_measure_interval", "behavior.classify")
        out[RATIOS[3]] = ratio(sum(refines[k] for k in classify),
                               sum(enclosures[k] for k in classify))

        family = self._under("algebras.mcmullen_family", "algebras.find_small_eigenvalue_parameter")
        out[RATIOS[4]] = (max(family.values(), default=0), "ratio")
        return out
