"""Span tracer that wraps the package's public functions from outside.

The wrappers are installed by rebinding module attributes, including the
names one module imports from another (``postselect.coupling_unitary``,
``experiment.postselect``, ...), so nested calls become child spans. Nothing
under ``src/`` is edited. Spans stay in memory until the run ends.

A span is ``(id, parent, name, start, end, item)``; a span's self time is its
duration minus the time covered by its children. Calls are synchronous and
single-threaded, so children never overlap and "covered" is a plain sum.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Span names double as metric prefixes.
TARGETS = (
    ("states", "coupling_unitary", "states.coupling_unitary"),
    ("states", "hermitian_eigs", "states.hermitian_eigs"),
    ("fisher", "qfi_pure", "fisher.qfi_pure"),
    ("fisher", "qfi_mixed", "fisher.qfi_mixed"),
    ("fisher", "cfi_discrete", "fisher.cfi_discrete"),
    ("postselect", "postselect", "postselect.postselect"),
    ("postselect", "postselect_mixed", "postselect.postselect_mixed"),
    ("postselect", "fm_exact", "postselect.fm_exact"),
    ("postselect", "probabilistic_qfi", "postselect.probabilistic_qfi"),
    ("costs", "cost_point", "costs.cost_point"),
    ("costs", "tradeoff_slack", "costs.tradeoff_slack"),
    ("costs", "boundary_curve", "costs.boundary_curve"),
    ("experiment", "run_trial", "experiment.run_trial"),
    ("experiment", "mle_g", "experiment.mle_g"),
    ("experiment", "run_campaign", "experiment.run_campaign"),
    ("verify", "suite_overlap_identity", "verify.overlap-identity"),
    ("verify", "suite_tradeoff_bound", "verify.tradeoff-bound"),
    ("verify", "suite_incoherent_ceiling", "verify.incoherent-ceiling"),
    ("verify", "suite_oracle_agreement", "verify.oracle-agreement"),
)
CALL_LAYERS = tuple(name for _, _, name in TARGETS if not name.startswith("verify."))
SUITE_SPANS = tuple(name for _, _, name in TARGETS if name.startswith("verify."))
SUBCOMMANDS = ("qfi", "curve", "simulate", "verify")
FAMILY_TAKERS = ("fisher.qfi_pure", "fisher.qfi_mixed")
ROOT = "bench.item"

# Per-layer metrics in print order: name -> unit.
PER_LAYER = {}
for _name in CALL_LAYERS:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_ms"] = "ms"
PER_LAYER.update({
    "fisher.family_evals_per_qfi": "count",
    "postselect.errors": "count",
    "experiment.prepared_per_postselected": "ratio",
    "experiment.mle_clipped_ratio": "ratio",
    "experiment.readout_cache_hit_ratio": "ratio",
})
for _name in SUITE_SPANS:
    PER_LAYER[f"{_name}.self_ms"] = "ms"
PER_LAYER["verify.points_checked"] = "count"
PER_LAYER["cli.import_ms"] = "ms"
for _sub in SUBCOMMANDS:
    PER_LAYER[f"cli.main.{_sub}.self_ms"] = "ms"
PER_LAYER["cli.process_overhead_ms"] = "ms"
PER_LAYER["bench.item.self_ms"] = "ms"
PER_LAYER["trace.overhead_ms"] = "ms"

# Count fields the verify suites report in SuiteResult.detail.
_POINT_KEYS = ("pairs", "points", "instances")


class Tracer:
    """In-memory span recorder plus the counters measured at the wrappers."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.item = None
        self._stack = []
        self._next_id = 0
        self._installed = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.item))

    def adopt(self, spans, parent, item):
        """Attach spans recorded by another process under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so a child's timestamps share this process's timeline.
        """
        offset = self._next_id
        for sid, sparent, name, start, end, _ in spans:
            self.spans.append(
                (sid + offset, parent if sparent < 0 else sparent + offset, name, start, end, item)
            )
        self._next_id += 1 + max((s[0] for s in spans), default=0)

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Rebind every traced function in every loaded module of ``package``."""
        from wva_costlab.errors import WvaError

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[f"{package}.{module_name}"], attr)
            wrapper = self._wrapper(span_name, original, WvaError)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrapper(self, name, fn, error_type):
        tracer = self
        counters = self.counters
        if name == "experiment.mle_g":
            params = list(inspect.signature(fn).parameters.values())
            g_max_pos = [p.name for p in params].index("g_max")
            g_max_default = params[g_max_pos].default

        def count_family(family):
            def counted(*a, **k):
                counters["family_evals"] += 1
                return family(*a, **k)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.item is None:  # outside an item: checks and probes go uncounted
                return tracer.span(name, fn, *args, **kwargs)
            if name in FAMILY_TAKERS:
                args = (count_family(args[0]),) + args[1:]
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            except error_type as exc:
                # Count each error once, where it leaves the postselect layer.
                if name.startswith("postselect.") and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counters["postselect_errors"] += 1
                raise
            if name == "experiment.run_trial":
                counters["trial_prepared"] += result.n_prepared
                counters["trial_postselected"] += result.n_postselected
            elif name == "experiment.mle_g":
                if len(args) > g_max_pos:
                    g_max = args[g_max_pos]
                else:
                    g_max = kwargs.get("g_max", g_max_default)
                counters["mle_total"] += 1
                counters["mle_clipped"] += result in (0.0, float(g_max))
            elif name in SUITE_SPANS:
                counters["suite_points"] += sum(
                    result.detail.get(key, 0) for key in _POINT_KEYS
                )
            return result

        return traced

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def self_times(spans):
    """Map span id -> self time in seconds."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def aggregate(spans, counters, n_items, overhead_ms):
    """Per-layer metrics per item, from the spans of items ``0..n_items-1``."""
    spans = [s for s in spans if s[5] is not None]
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_id = {s[0]: s for s in spans}
    for sid, _, name, _, _, _ in spans:
        calls[name] += 1
        self_s[name] += own[sid]
    # The incoherent-ceiling suite reports no count; it checks one point per
    # qfi_mixed evaluation, so count those under its span.
    points = counters.get("suite_points", 0.0)
    for sid, parent, name, _, _, _ in spans:
        if name == "fisher.qfi_mixed":
            while parent in by_id:
                if by_id[parent][2] == "verify.incoherent-ceiling":
                    points += 1
                    break
                parent = by_id[parent][1]

    per = max(n_items, 1)
    out = {}
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = calls[name] / per
        out[f"{name}.self_ms"] = self_s[name] * 1e3 / per
    qfi_calls = calls["fisher.qfi_pure"] + calls["fisher.qfi_mixed"]
    out["fisher.family_evals_per_qfi"] = counters.get("family_evals", 0.0) / qfi_calls if qfi_calls else 0.0
    out["postselect.errors"] = counters.get("postselect_errors", 0.0) / per
    post = counters.get("trial_postselected", 0.0)
    out["experiment.prepared_per_postselected"] = counters.get("trial_prepared", 0.0) / post if post else 0.0
    mle = counters.get("mle_total", 0.0)
    out["experiment.mle_clipped_ratio"] = counters.get("mle_clipped", 0.0) / mle if mle else 0.0
    lookups = counters.get("readout_hits", 0.0) + counters.get("readout_misses", 0.0)
    out["experiment.readout_cache_hit_ratio"] = counters.get("readout_hits", 0.0) / lookups if lookups else 0.0
    for name in SUITE_SPANS:
        out[f"{name}.self_ms"] = self_s[name] * 1e3 / per
    out["verify.points_checked"] = points / per
    processes = calls["cli.import"]
    out["cli.import_ms"] = self_s["cli.import"] * 1e3 / processes if processes else 0.0
    for sub in SUBCOMMANDS:
        out[f"cli.main.{sub}.self_ms"] = self_s[f"cli.main.{sub}"] * 1e3 / per
    if processes:
        # Invocation wall time minus the time spent inside main.
        wall_minus_main = sum(end - start for _, _, name, start, end, _ in spans if name == ROOT)
        wall_minus_main -= sum(end - start for _, _, name, start, end, _ in spans
                               if name.startswith("cli.main."))
        out["cli.process_overhead_ms"] = wall_minus_main * 1e3 / processes
    else:
        out["cli.process_overhead_ms"] = 0.0
    out["bench.item.self_ms"] = self_s[ROOT] * 1e3 / per
    out["trace.overhead_ms"] = overhead_ms
    return out
