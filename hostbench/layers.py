"""Per-layer metrics, derived from the spans of one traced repetition.

Times are in reference-host seconds (see :mod:`refloop`): the caller
passes the repetition's rescaling factor.  A layer that a workload never
enters reads 0, which is itself the prediction for it (e.g. no backend
work on ``serve-sharded``).
"""

from typing import Dict

#: Setup metrics: (name, unit, span name).  ``setup.import_s`` is timed
#: directly around the imports, before any wrapper can be installed.
SETUP_METRICS = (
    ("setup.import_s", "s", None),
    ("calibration.calibrate_s", "s", "calibration.calibrate"),
    ("service.scheme_service_times_s", "s", "service.scheme_service_times"),
    ("service.workload.generate_s", "s", "service.workload.generate"),
    ("service.build_backend_s", "s", "service.build_backend"),
    ("prodtest.build_wafer_s", "s", "prodtest.build_wafer"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_rules():
    """(name, unit, f(totals, counters, scale)) for every repetition metric."""

    def calls(span):
        return lambda t, c, k: t[span].calls

    def total(span):
        return lambda t, c, k: t[span].total_s * k

    def self_time(span):
        return lambda t, c, k: t[span].self_s * k

    def items(span):
        return lambda t, c, k: t[span].items

    def per_call(span):
        return lambda t, c, k: _ratio(t[span].items, t[span].calls)

    def per_item(span, unit_scale, field="total_s"):
        return lambda t, c, k: _ratio(
            getattr(t[span], field) * k * unit_scale, t[span].items
        )

    def counter(key):
        return lambda t, c, k: c[key]

    engine = "service.engine.run"
    batch = "service.backend.read_batch"
    words = "faults.recovery.read_words"
    decode = "ecc.hamming.decode_words"
    sense = "core.read_many"
    margins = "core.margins.population_margins"
    return (
        ("service.engine.run.self_s", "s", self_time(engine)),
        ("service.engine.events", "count", items(engine)),
        ("service.engine.ns_per_event", "ns", per_item(engine, 1e9, "self_s")),
        ("service.controller.submit_all_s", "s", total("service.controller.submit_all")),
        ("service.report.build_report.calls", "count", calls("service.report.build_report")),
        ("service.report.build_report_s", "s", total("service.report.build_report")),
        ("service.topology.split_s", "s", total("service.topology.split")),
        ("service.topology.simulate.self_s", "s", self_time("service.topology.simulate")),
        ("service.backend.read_batch.calls", "count", calls(batch)),
        ("service.backend.read_batch.words_per_call", "words", per_call(batch)),
        ("service.backend.read_batch.self_s", "s", self_time(batch)),
        ("service.backend.write.calls", "count", calls("service.backend.write")),
        ("service.backend.write_s", "s", total("service.backend.write")),
        ("service.backend.retried_words", "count", counter("retried_words")),
        ("service.backend.failed_words", "count", counter("failed_words")),
        ("service.backend.corrupted_words", "count", counter("corrupted_words")),
        ("service.backend.first_attempt_share", "ratio",
         lambda t, c, k: _ratio(t[batch].useful, t[batch].attempts)),
        ("faults.injector.perturb_scheme_s", "s", total("faults.injector.perturb_scheme")),
        ("faults.recovery.read_words.calls", "count", calls(words)),
        ("faults.recovery.read_words.self_s", "s", self_time(words)),
        ("faults.recovery.read_words.words_per_call", "words", per_call(words)),
        ("faults.recovery.read_word.calls", "count", calls("faults.recovery.read_word")),
        ("faults.recovery.read_word_s", "s", total("faults.recovery.read_word")),
        ("ecc.array.probe_words.self_s", "s", self_time("ecc.array.probe_words")),
        ("ecc.hamming.decode_words.calls", "count", calls(decode)),
        ("ecc.hamming.decode_words.us_per_word", "us", per_item(decode, 1e6)),
        ("ecc.hamming.decode_words_s", "s", total(decode)),
        ("ecc.hamming.encode_word_s", "s", total("ecc.hamming.encode_word")),
        ("core.read_many.calls", "count", calls(sense)),
        ("core.read_many.bits", "bits", items(sense)),
        ("core.read_many.ns_per_bit", "ns", per_item(sense, 1e9)),
        ("core.read_many_s", "s", total(sense)),
        ("prodtest.run_wafer.self_s", "s", self_time("prodtest.run_wafer")),
        ("prodtest.characterize_dies.self_s", "s", self_time("prodtest.characterize_dies")),
        ("prodtest.scheme_margin_arrays_s", "s", total("prodtest.scheme_margin_arrays")),
        ("core.margins.population_margins.calls", "count", calls(margins)),
        ("core.margins.population_margins_s", "s", total(margins)),
        ("ecc.provision_ecc_s", "s", total("ecc.provision_ecc")),
    )


LAYER_RULES = _layer_rules()

#: Traced ops_per_ref_s over untraced ops_per_ref_s, per workload.
OVERHEAD_METRIC = ("trace.overhead", "ratio")

#: Every per-layer metric the traced run reports, in print order.
PER_LAYER_METRICS = (
    tuple((name, unit) for name, unit, _ in SETUP_METRICS)
    + tuple((name, unit) for name, unit, _ in LAYER_RULES)
    + (OVERHEAD_METRIC,)
)


def setup_metrics(setup_totals, import_s: float, scale: float) -> Dict[str, float]:
    """Setup-phase metrics from the setup spans and the import time."""
    out = {"setup.import_s": import_s * scale}
    for name, _, span in SETUP_METRICS[1:]:
        out[name] = setup_totals[span].total_s * scale
    return out


def rep_metrics(rep_totals, counters, scale: float) -> Dict[str, float]:
    """One traced repetition's layer metrics."""
    return {
        name: rule(rep_totals, counters, scale)
        for name, _, rule in LAYER_RULES
    }
