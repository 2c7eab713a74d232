"""The load generator's report: one list of counters behind the report's
fields, its constructor call and its ``--json`` payload."""

from dataclasses import fields

from repro.experiments.metrics import summarize_samples
from repro.serve.loadgen import _COUNTERS, LoadgenReport

COUNTERS = [
    "sessions_started", "sessions_completed", "sessions_failed", "calls",
    "admitted", "parked", "forced", "retries", "dropped_calls",
    "park_timeouts", "draining_rejects", "protocol_errors", "overload_sheds",
    "shed_calls", "sheds_without_hint", "reconnects", "lost_periods",
    "deduped", "redirects",
]


def test_tally_counters_are_the_reports_counter_fields_in_order():
    tally = list(_COUNTERS)
    report = [f.name for f in fields(LoadgenReport)]
    assert tally == COUNTERS
    assert report[2:2 + len(COUNTERS)] == COUNTERS


def test_to_dict_keys_and_values_are_unchanged():
    report = LoadgenReport(
        mode="closed", wall_s=6.0,
        **{name: 100 + i for i, name in enumerate(COUNTERS)},
        throughput_pps=6.7,
        admission_latency=summarize_samples([0.01, 0.02]),
        park_time=summarize_samples([0.1]),
        utilization_mean=0.5, utilization_peak=1.0,
        server_stats={"counters": {}},
    )
    payload = report.to_dict()
    assert list(payload) == [
        "mode", "wall_s", *COUNTERS, "throughput_pps", "admission_latency_s",
        "park_time_s", "redirect_latency_s", "utilization_mean",
        "utilization_peak", "server_stats",
    ]
    assert [payload[name] for name in COUNTERS] == [
        100 + i for i in range(len(COUNTERS))
    ]
    assert payload["admission_latency_s"] == report.admission_latency.to_dict()
    assert payload["redirect_latency_s"] == summarize_samples([]).to_dict()
