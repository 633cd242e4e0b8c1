"""Span recorder for the per-layer (traced) benchmark run.

Stdlib only, built on ``time.perf_counter``.  The library is traced from
outside: while a ``Tracer`` is installed, each entry point in ``SPANS``
(public functions of the layer modules, and ``GroupRingElement.__mul__``
as ``crossed.mul``) is rebound to a wrapper that records one span per
call.  The wrapper is rebound in every ``knotstat`` module namespace that
holds the function, so calls between modules are traced too.  Nothing
under ``src/`` is edited; ``uninstall`` restores the original bindings.
Public helpers outside ``SPANS`` (``weight_of``, ``exponent_sum``, ...)
are called hundreds of thousands of times per run; they are left
unwrapped and their time counts as self time of the span that calls them.

A span is ``(op, span_id, parent_id, name, start_s, seconds)``; spans of
one benchmark operation share ``op``.  A span's self time is its duration
minus the durations of its direct children, so summing self time per
layer splits the traced wall time between the layers without double
counting.  Per-name aggregates are exact for the whole run; the raw span
list keeps the first ``MAX_SPANS`` spans and is written as JSON at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MAX_SPANS = 50_000  # raw spans kept for the JSON dump; per-name totals are exact

LAYERS = ("cli", "catalog", "semigroup", "partition", "specfun", "crossed",
          "knotgroups", "kms")

SPANS = (
    "cli.run",
    "catalog.builtin_catalog", "catalog.load_catalog",
    "crossed.mul", "crossed.alpha_n", "crossed.sigma_n", "crossed.idempotent_e",
    "crossed.bc_normalize", "crossed.hatpi_member",
    "knotgroups.builtin_presentation", "knotgroups.amalgamate",
    "knotgroups.alexander_poly_fox", "knotgroups.abelianization",
    "knotgroups.braid_to_wirtinger", "knotgroups.derham_solve",
    "semigroup.enumerate_group_elements", "semigroup.f_weight",
    "partition.qstar_partition", "partition.z_tau", "partition.z_alternating",
    "partition.z_grothendieck", "partition.threshold_report",
    "specfun.polylog_roots_of_unity", "specfun.riemann_zeta",
    "specfun.restricted_zeta", "specfun.lerch",
    "kms.psi_product_state", "kms.psi_pushforward", "kms.bc_low_temperature",
)


def _n_terms(x) -> int:
    return len(x.terms)


# Work counters recorded at the layer boundary: span name -> function of
# (args, kwargs, result) giving {counter: increment}.
def _count_mul(args, kwargs, result):
    a, b = args
    return {"crossed.mul.term_pairs": _n_terms(a) * _n_terms(b),
            "crossed.mul.result_terms": _n_terms(result)}


def _count_alpha(args, kwargs, result):
    return {"crossed.alpha_n.preimages": args[1] * _n_terms(args[0])}


def _count_hatpi(args, kwargs, result):
    zeta, ctx = args[1], args[2]
    return {"crossed.hatpi_member.candidates": zeta.denominator * ctx.n_rho}


def _count_fox(args, kwargs, result):
    p = args[0]
    return {"knotgroups.fox_entries": len(p.relators) * p.n_generators}


def _count_enumerate(args, kwargs, result):
    return {"semigroup.group_elements": len(result),
            "semigroup.distinct_weights": len({w for _, w in result})}


COUNTERS = {
    "crossed.mul": _count_mul,
    "crossed.alpha_n": _count_alpha,
    "crossed.bc_normalize": lambda a, k, r: {"crossed.bc_normalize.tokens": len(a[0])},
    "crossed.hatpi_member": _count_hatpi,
    "knotgroups.alexander_poly_fox": _count_fox,
    "semigroup.enumerate_group_elements": _count_enumerate,
    "semigroup.f_weight": lambda a, k, r: {"semigroup.f_weight.bits": r.bit_length()},
    "partition.qstar_partition": lambda a, k, r: {"partition.qstar_partition.terms": r.terms_used},
    "partition.z_tau": lambda a, k, r: {"partition.z_tau.factors": len(a[1])},
    "specfun.polylog_roots_of_unity":
        lambda a, k, r: {"specfun.polylog_roots_of_unity.denominator_sum": a[1].denominator},
    "kms.psi_product_state": lambda a, k, r: {"kms.psi.entries": len(a[0].entries)},
}


class Tracer:
    """Records spans of calls into the knotstat layers while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                stats[0] += 1
                stats[1] += seconds
                stats[2] += seconds - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, frame[0], parent, name, start, seconds))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every entry point in ``SPANS`` to its traced wrapper."""
        for layer in LAYERS:
            importlib.import_module(f"knotstat.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "knotstat" or n.startswith("knotstat."))]
        for name in SPANS:
            layer, attr = name.split(".")
            if name == "crossed.mul":
                cls = sys.modules["knotstat.crossed"].GroupRingElement
                self._saved.append((cls, "__mul__", cls.__mul__))
                cls.__mul__ = self.wrap(name, cls.__mul__)
                continue
            fn = getattr(sys.modules[f"knotstat.{layer}"], attr)
            wrapper = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: number of spans and summed self time in seconds."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, (calls, _total, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
        return out

    def span_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1] * 1000.0

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["op", "span_id", "parent_id", "name", "start_s", "seconds"]
        payload["spans"] = self.spans
        payload["spans_dropped"] = sum(int(s[0]) for s in self.stats.values()) - len(self.spans)
        payload["stats"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in sorted(self.stats.items())}
        payload["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w") as handle:
            json.dump(payload, handle)
