"""Span tracing of the thagkl layers, installed from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with wrappers, in every ``thagkl`` module namespace that binds
them (``kl``, ``flats`` and ``equivariant`` each import
``solve_reflection_equation``, for example) and under every alias a class
gives them (``IntPoly.__rmul__`` is ``IntPoly.__mul__``).  Each wrapped call
records a span (name, start, end, parent span) in flat in-memory arrays and
accumulates its self time, meaning its duration minus the time covered by
the wrapped calls it made.  ``uninstall`` puts every original object back.

``layer_metrics`` turns one traced process into the per-layer metrics named
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute path, span name).  Several targets may share a span
# name; their calls and self time are pooled under it.
TARGETS = (
    ("polynomials", "IntPoly.__mul__", "polynomials.mul"),
    ("polynomials", "IntPoly.__add__", "polynomials.add"),
    ("polynomials", "IntPoly.__pow__", "polynomials.pow"),
    ("polynomials", "expand_F", "polynomials.expand_F"),
    ("polynomials", "solve_reflection_equation", "polynomials.reflection"),
    ("kl", "kl_poly", "kl.kl_poly"),
    ("kl", "KLTable.poly", "kl.recursion"),
    ("kl", "KLTable.entries", "kl.recursion"),
    ("kl", "char_poly_boolean", "kl.recursion"),
    ("kl", "char_poly_thag", "kl.recursion"),
    ("kl", "phi_series", "kl.phi_series"),
    ("kl", "verify_theorem", "kl.verify_theorem"),
    ("dyck", "count_by_ascents_dp", "dyck.dp"),
    ("dyck", "closed_form", "dyck.closed_form"),
    ("dyck", "closed_form_row", "dyck.closed_form_row"),
    ("dyck", "count_by_ascents_enum", "dyck.enum"),
    ("flats", "build_lattice", "flats.build"),
    ("flats", "closure", "flats.closure"),
    ("flats", "FlatLattice.__init__", "flats.order"),
    ("flats", "FlatLattice.kl_poly", "flats.kl"),
    ("flats", "FlatLattice.char_poly", "flats.kl"),
    ("flats", "FlatLattice.mu_row", "flats.mu_row"),
    ("symfunc", "SchurPoly.mul_h", "symfunc.pieri"),
    ("symfunc", "SchurPoly.mul_e", "symfunc.pieri"),
    ("symfunc", "SchurPoly.__add__", "symfunc.schur_add"),
    ("symfunc", "v_poly_via_plethysm", "symfunc.plethysm"),
    ("symfunc", "v_poly", "symfunc.tensor"),
    ("symfunc", "w_poly", "symfunc.tensor"),
    ("equivariant", "eq_kl", "equivariant.solver"),
    ("equivariant", "EqKLTable.poly", "equivariant.solver"),
    ("equivariant", "verify_conjecture", "equivariant.conjecture"),
    ("equivariant", "conjecture_poly", "equivariant.conjecture"),
    ("cli", "main", "cli.main"),
)

# Generators whose yielded items are counted; they get no span, so their
# time stays in the caller's self time.
COUNTED_GENERATORS = (
    ("symfunc", "horizontal_strips", "symfunc.strip_terms"),
    ("symfunc", "vertical_strips", "symfunc.strip_terms"),
)


def _packages() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "thagkl" or name.startswith("thagkl.")]


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def spanned(self, fn, name: str, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``after(args, result, first_child)`` runs once the call returns, with
        the index of the first span the call opened.
        """
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                duration = t1 - t0
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result, idx + 1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key: str):
        """Wrap the generator function ``fn`` to count the items it yields."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every target in every namespace and alias that binds it."""
        modules = _packages()
        hooks = self._hooks()
        for module, path, name in TARGETS:
            self._patch(modules, module, path,
                        lambda fn, n=name, p=path: self.spanned(fn, n, hooks.get(p)))
        for module, path, key in COUNTED_GENERATORS:
            self._patch(modules, module, path, lambda fn, k=key: self.counted(fn, k))

    def _patch(self, modules, module, path, make) -> None:
        *cls_path, attr = path.split(".")
        owner = sys.modules.get(f"thagkl.{module}")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapper = make(original)
        for ns in [owner] if cls_path else modules:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    def _hooks(self) -> dict:
        counts, distinct = self.counts, self.distinct
        names = self.span_name
        reflection = self.name_id("polynomials.reflection")

        def mul(args, result, _):
            a, b = args
            width = len(b.coeffs) if hasattr(b, "coeffs") else 1
            counts["polynomials.mul_coeff_products"] += len(a.coeffs) * width

        def kl_poly(args, result, first_child):
            # a call that solved no reflection equation was answered from
            # the memo table
            solved = any(names[i] == reflection for i in range(first_child, len(names)))
            counts["kl.kl_poly_hits"] += 0 if solved else 1

        def closed_form_row(args, result, _):
            distinct["dyck.closed_form_row"].add(args[0])

        def enum(args, result, _):
            counts["dyck.paths_enumerated"] += sum(result.values())

        def build(args, result, _):
            counts["flats.flats_found"] += len(result)

        return {
            "IntPoly.__mul__": mul,
            "kl_poly": kl_poly,
            "closed_form_row": closed_form_row,
            "count_by_ascents_enum": enum,
            "build_lattice": build,
        }

    def top_level_s(self) -> float:
        """Time covered by spans with no traced parent."""
        return sum(e - s for s, e, p in
                   zip(self.span_start, self.span_end, self.span_parent) if p < 0)

    def exact_counts(self) -> dict[str, int]:
        """Every count the trace makes; identical across runs of one input."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(self.names)}
        out.update(self.counts)
        out.update({f"{k}.distinct": len(v) for k, v in self.distinct.items()})
        out["spans"] = len(self.span_name)
        return dict(sorted(out.items()))

    def self_times(self) -> dict[str, float]:
        return {name: self.self_s[i] for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span, columnwise in start order, as gzipped JSON.

        ``parent`` holds the index of the enclosing span, or -1.
        """
        origin = self.span_start[0] if self.span_start else 0.0
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - origin) * 1e9) for t in self.span_start],
            "end_ns": [round((t - origin) * 1e9) for t in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def layer_metrics(counts: dict, self_s: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced process: name -> (value, unit).

    Times are self times in seconds; counts are exact; each ratio's base is
    reported next to it.  The ``wall_s`` each layer should move: polynomial
    products, powers and the series root, the kl recursion, the Dyck DP and
    closed form, and ``cli.self_s`` on verify-cli; enumeration and the flats
    engine on brute-force; polynomial adds, Pieri strips, Schur adds,
    plethysm and the equivariant solver on equivariant (and about a ninth of
    verify-cli); reflection solves on all three.
    """

    def calls(span: str) -> int:
        return counts.get(f"{span}.calls", 0)

    def own(*spans: str) -> float:
        return sum(self_s.get(span, 0.0) for span in spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kl_calls = calls("kl.kl_poly")
    row_calls = calls("dyck.closed_form_row")
    closures = calls("flats.closure")
    found = counts.get("flats.flats_found", 0)
    return {
        "polynomials.mul_calls": (calls("polynomials.mul"), "count"),
        "polynomials.mul_coeff_products": (counts.get("polynomials.mul_coeff_products", 0), "count"),
        "polynomials.mul_s": (own("polynomials.mul"), "s"),
        "polynomials.pow_calls": (calls("polynomials.pow"), "count"),
        "polynomials.expand_F_s": (own("polynomials.expand_F"), "s"),
        "polynomials.add_calls": (calls("polynomials.add"), "count"),
        "polynomials.add_s": (own("polynomials.add"), "s"),
        "polynomials.reflection_solves": (calls("polynomials.reflection"), "count"),
        "polynomials.reflection_s": (own("polynomials.reflection"), "s"),
        "kl.recursion_s": (own("kl.kl_poly", "kl.recursion"), "s"),
        "kl.phi_series_s": (own("kl.phi_series"), "s"),
        "kl.verify_theorem_s": (own("kl.verify_theorem"), "s"),
        "kl.kl_poly_calls": (kl_calls, "count"),
        "kl.kl_poly_hit_ratio": (ratio(counts.get("kl.kl_poly_hits", 0), kl_calls), "ratio"),
        "dyck.dp_calls": (calls("dyck.dp"), "count"),
        "dyck.dp_s": (own("dyck.dp"), "s"),
        "dyck.closed_form_s": (own("dyck.closed_form", "dyck.closed_form_row"), "s"),
        "dyck.closed_form_row_calls": (row_calls, "count"),
        "dyck.closed_form_row_yield": (
            ratio(counts.get("dyck.closed_form_row.distinct", 0), row_calls), "ratio"),
        "dyck.enum_s": (own("dyck.enum"), "s"),
        "dyck.paths_enumerated": (counts.get("dyck.paths_enumerated", 0), "count"),
        "flats.build_s": (own("flats.build", "flats.closure"), "s"),
        "flats.order_s": (own("flats.order"), "s"),
        "flats.kl_s": (own("flats.kl", "flats.mu_row"), "s"),
        "flats.mu_row_calls": (calls("flats.mu_row"), "count"),
        "flats.closure_calls": (closures, "count"),
        "flats.flats_found": (found, "count"),
        "flats.closure_yield": (ratio(found, closures), "ratio"),
        "symfunc.pieri_calls": (calls("symfunc.pieri"), "count"),
        "symfunc.strip_terms": (counts.get("symfunc.strip_terms", 0), "count"),
        "symfunc.pieri_s": (own("symfunc.pieri"), "s"),
        "symfunc.schur_add_calls": (calls("symfunc.schur_add"), "count"),
        "symfunc.schur_add_s": (own("symfunc.schur_add"), "s"),
        "symfunc.plethysm_s": (own("symfunc.plethysm"), "s"),
        "equivariant.solver_s": (own("equivariant.solver"), "s"),
        "equivariant.conjecture_s": (own("equivariant.conjecture"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "cli.checks_run": (counts.get("cli.checks_run", 0), "count"),
    }
