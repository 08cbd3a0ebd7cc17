"""Span tracing of the greenwood layers, installed from outside the package.

Every traced function is replaced, at each module attribute that holds it,
by a wrapper that records a call count, the total time and the self time
(total minus the time of traced calls made inside it). Spans are aggregated
per name instead of being kept one by one, because the per-replication
boundaries (``RngStream.generator``, ``sample``, ``modified_greenwood``) run
tens of thousands of times per command.

A few wrappers also run a hook after the call to count work (values drawn,
rows, bytes, decision mismatches). Hook time is measured, removed from the
enclosing span and reported as ``instrumentation_s`` so that it neither
inflates a layer's self time nor the coverage denominator.
"""

from __future__ import annotations

import os
import sys
import time

# mg kinds that reject for small S_n; mg2 rejects for large, mg_two_sided for both
_LOWER_KINDS = ("mg1", "mg3_gpd", "mg4_student_t")


class Tracer:
    """Aggregated spans: ``name -> [calls, total_s, self_s]`` plus counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.instrumentation_s = 0.0
        self._stack: list[list] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, key=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``key(args)`` appends a suffix to the span name per call; ``after(args,
        result)`` runs once the span has closed, as instrumentation.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = name if key is None else f"{name}.{key(args)}"
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat = spans.get(span)
                if stat is None:
                    stat = spans[span] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                hook_start = clock()
                after(args, result)
                hook = clock() - hook_start
                tracer.instrumentation_s += hook
                if stack:
                    stack[-1][0] += hook
            return result

        return traced

    def to_json_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "instrumentation_s": self.instrumentation_s,
        }


def _replace_function(original, replacement) -> None:
    """Point every greenwood module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "greenwood" and not mod_name.startswith("greenwood."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the public boundaries of all eight layers; return the traced ``cli.main``.

    ``greenwood.cli`` must already be imported, so that every module has
    bound the names this function replaces.
    """
    import numpy as np

    from greenwood import cli, critical, distributions, power, rng, signal, statistic, testing

    def func(name, fn, **kw):
        _replace_function(fn, tracer.wrap(name, fn, **kw))

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], **kw))

    # rng
    method(rng.RngStream, "generator", "rng.generator")

    # distributions: self time and values per family
    def sampled(args, result):
        tracer.count(f"distributions.values.{distributions.family_tag(args[0])}", result.size)

    func(
        "distributions.sample",
        distributions.sample,
        key=lambda args: distributions.family_tag(args[0]),
        after=sampled,
    )

    # statistic
    batch_original = statistic.modified_greenwood_batch
    func("statistic.scalar", statistic.modified_greenwood)
    func(
        "statistic.batch",
        batch_original,
        after=lambda args, result: tracer.count("statistic.batch_rows", np.shape(args[0])[0]),
    )

    # critical
    def file_bytes(args, result):
        tracer.count("critical.table_bytes", os.path.getsize(args[-1]))

    func("critical.estimate", critical.estimate_null_distribution)
    func("critical.quantile", critical.empirical_quantile)
    func("critical.build", critical.build_quantile_table)
    method(critical.QuantileTable, "value_for", "critical.lookup")
    method(critical.QuantileTable, "save", "critical.save", after=file_bytes)
    load = tracer.wrap("critical.load", vars(critical.QuantileTable)["load"].__func__, after=file_bytes)
    critical.QuantileTable.load = classmethod(load)

    # testing: the scalar decision of every mg unit is compared with the
    # decision the batch statistic would reach against the same thresholds
    def decided(args, outcome):
        spec, units = args[0], args[1]
        if spec.kind not in testing.MG_KINDS:
            return
        s = float(batch_original(np.asarray(units, dtype=np.float64)[None, :])[0])
        t = outcome.thresholds
        if spec.kind == "mg2":
            batch_reject = s >= t[0]
        elif spec.kind in _LOWER_KINDS:
            batch_reject = s <= t[0]
        else:
            batch_reject = s <= t[0] or s >= t[1]
        tracer.count("statistic.decision_units")
        if batch_reject != outcome.reject:
            tracer.count("statistic.decision_mismatches")

    func("testing.run_test", testing.run_test, after=decided)
    func("testing.thresholds_for", testing.thresholds_for)
    baseline_traced = tracer.wrap("testing.baseline_threshold", testing._baseline_threshold)

    def baseline(kind, n, c, replications):
        if (kind, n, c, replications) not in testing._baseline_cache:
            tracer.count("testing.baseline_sim_reps", replications)
            tracer.count("testing.baseline_values", replications * n)
        return baseline_traced(kind, n, c, replications)

    _replace_function(testing._baseline_threshold, baseline)

    # power
    func("power.study", power.run_power_study)
    func("power.export", power.export_curve)

    # signal
    func(
        "signal.read",
        signal.read_signal,
        after=lambda args, result: tracer.count("signal.bytes_read", os.path.getsize(args[0])),
    )
    func("signal.segment", signal.segment_signal)
    func("signal.spectrogram", signal.spectrogram)
    func("signal.null_estimate", signal.estimate_spectrogram_null)
    func("signal.null_table", signal.build_spectrogram_quantile_table)
    func(
        "signal.batch_test",
        signal.batch_test,
        after=lambda args, result: tracer.count("signal.units_tested", len(result.outcomes)),
    )

    # cli: the root span; its self time is argument parsing and output writing
    return tracer.wrap("cli.main", cli.main)
