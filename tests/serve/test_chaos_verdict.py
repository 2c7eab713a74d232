"""Pin each chaos campaign's verdict without starting a process.

``ChaosReport.ok`` is the recovery contract the CI campaigns gate on.
These tests build synthetic reports — one clean report per campaign,
then one per contract input flipped — so the contract of every campaign
is checked in milliseconds, independent of how the campaign is driven.
"""

import sys

import pytest

from repro.cli import main
from repro.experiments.metrics import summarize_samples
from repro.serve.chaos import FAULT_KINDS, ChaosReport, _Campaign
from repro.serve.config import CAMPAIGN_KINDS, ChaosConfig
from repro.serve.loadgen import LoadgenReport

#: what makes a clean report of each campaign, beyond the shared fields
CAMPAIGNS = {
    "server": {},
    "cluster": {"shards": 3, "shards_alive_final": 3},
    "supervised": {
        "shards": 3, "supervised": True,
        "shard_restarts": 2, "shards_alive_final": 3,
    },
    "rolling": {
        "shards": 2, "rolling": True,
        "rolled_shards": 2, "shards_alive_final": 2,
    },
    "overload": {
        "overload": True, "p99_bound_s": 5.0, "p99_observed_s": 1.263,
        "slowloris_clients": 2, "slowloris_disconnects": 2,
    },
}

#: first line of ``describe()`` for each campaign
NAMES = {
    "server": "chaos campaign",
    "cluster": "cluster chaos campaign",
    "supervised": "supervised cluster campaign",
    "rolling": "rolling restart campaign",
    "overload": "overload campaign",
}


def make_load(**overrides) -> LoadgenReport:
    fields = dict(
        mode="closed", wall_s=6.0, sessions_started=40,
        sessions_completed=40, sessions_failed=0, calls=40, admitted=40,
        parked=3, forced=0, retries=0, dropped_calls=0, park_timeouts=0,
        draining_rejects=0, protocol_errors=0, overload_sheds=0,
        shed_calls=0, sheds_without_hint=0, reconnects=2, lost_periods=0,
        deduped=1, redirects=0, throughput_pps=6.7,
        admission_latency=summarize_samples([0.01, 0.02, 0.5]),
        park_time=summarize_samples([0.1]),
        utilization_mean=0.5, utilization_peak=1.0,
    )
    fields.update(overrides)
    return LoadgenReport(**fields)


def make_report(campaign: str, load=None, **overrides) -> ChaosReport:
    fields = dict(
        seed=0, wall_s=8.0, kills=2,
        faults={kind: 0 for kind in FAULT_KINDS}, faults_total=0,
        proxy_connections=0,
        load=load if load is not None else make_load(),
        replayed_periods_last_boot=1, settled=True, settle_s=1.5,
        final_open_periods=0, final_usage_bytes=0, final_waiting=0,
        sanitizer_ok=True, server_exit_code=0,
    )
    fields.update(CAMPAIGNS[campaign])
    fields.update(overrides)
    return ChaosReport(**fields)


#: (input, override) pairs that break the contract of every campaign
SHARED_FLIPS = [
    ("settled", {"settled": False}),
    ("open periods", {"final_open_periods": 1}),
    ("usage", {"final_usage_bytes": 4096}),
    ("waiters", {"final_waiting": 1}),
    ("sanitizer", {"sanitizer_ok": False}),
    ("exit code", {"server_exit_code": 1}),
    ("killed server", {"server_exit_code": -9}),
    ("no exit code", {"server_exit_code": None}),
]

#: (campaign, input, override) triples specific to one campaign;
#: a ``load`` override replaces fields of the load report
CAMPAIGN_FLIPS = [
    ("supervised", "no restarts", {"shard_restarts": 0}),
    ("supervised", "alive < shards", {"shards_alive_final": 2}),
    ("supervised", "quarantined", {"shards_quarantined": 1}),
    ("rolling", "rolled < shards", {"rolled_shards": 1}),
    ("rolling", "alive < shards", {"shards_alive_final": 1}),
    ("rolling", "lost periods", {"load": {"lost_periods": 1}}),
    ("overload", "shed without hint", {"load": {"sheds_without_hint": 1}}),
    ("overload", "clients left", {"final_clients": 1}),
    (
        "overload", "no latency samples",
        {"load": {"admission_latency": summarize_samples([])}},
    ),
    ("overload", "p99 above bound", {"p99_observed_s": 5.001}),
    ("overload", "p99 missing", {"p99_observed_s": None}),
    ("overload", "p99 NaN", {"p99_observed_s": float("nan")}),
]


def flipped(campaign: str, overrides) -> ChaosReport:
    overrides = dict(overrides)
    load = make_load(**overrides.pop("load", {}))
    return make_report(campaign, load=load, **overrides)


class TestCleanVerdicts:
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_clean_report_is_ok(self, campaign):
        report = make_report(campaign)
        assert report.ok, report.describe()
        assert report.to_dict()["ok"] is True
        assert report.describe().splitlines()[-1] == "  verdict: OK"

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_missing_sanitizer_is_not_a_violation(self, campaign):
        # sanitizer_ok is None when no stats reply carried a sanitizer
        assert make_report(campaign, sanitizer_ok=None).ok

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_describe_names_the_campaign(self, campaign):
        first = make_report(campaign).describe().splitlines()[0]
        assert first.startswith(NAMES[campaign] + " ("), first

    def test_campaign_inputs_do_not_leak_into_other_contracts(self):
        # what fails a supervised/rolling/overload campaign is inert for
        # a campaign that does not judge it
        for campaign in ("server", "cluster"):
            assert make_report(
                campaign, shard_restarts=0, shards_alive_final=0,
                shards_quarantined=2, rolled_shards=0, final_clients=3,
                load=make_load(lost_periods=2, sheds_without_hint=4),
            ).ok


class TestFlippedVerdicts:
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    @pytest.mark.parametrize(
        "overrides", [o for _, o in SHARED_FLIPS],
        ids=[name for name, _ in SHARED_FLIPS],
    )
    def test_shared_contract_input_fails_every_campaign(
        self, campaign, overrides
    ):
        report = flipped(campaign, overrides)
        assert not report.ok
        assert report.to_dict()["ok"] is False
        assert report.describe().splitlines()[-1] == "  verdict: FAILED"

    @pytest.mark.parametrize(
        "campaign, overrides",
        [(c, o) for c, _, o in CAMPAIGN_FLIPS],
        ids=[f"{c}-{name}" for c, name, _ in CAMPAIGN_FLIPS],
    )
    def test_campaign_contract_input_fails_its_campaign(
        self, campaign, overrides
    ):
        assert not flipped(campaign, overrides).ok


class TestReportShape:
    def test_to_dict_top_level_keys(self):
        assert set(make_report("server").to_dict()) == {
            "seed", "wall_s", "kills", "faults", "faults_total",
            "proxy_connections", "load", "replayed_periods_last_boot",
            "settled", "settle_s", "final_open_periods",
            "final_usage_bytes", "final_waiting", "sanitizer_ok",
            "server_exit_code", "shards", "cluster_counters", "supervised",
            "shard_restarts", "shards_alive_final", "shards_quarantined",
            "rolling", "rolled_shards", "overload", "p99_bound_s",
            "p99_observed_s", "slowloris_clients", "slowloris_disconnects",
            "final_clients", "ok",
        }


def test_to_dict_keeps_the_field_order_with_ok_last():
    report = make_report("overload")
    payload = report.to_dict()
    assert list(payload) == [
        "seed", "wall_s", "kills", "faults", "faults_total",
        "proxy_connections", "load", "replayed_periods_last_boot",
        "settled", "settle_s", "final_open_periods", "final_usage_bytes",
        "final_waiting", "sanitizer_ok", "server_exit_code", "shards",
        "cluster_counters", "supervised", "shard_restarts",
        "shards_alive_final", "shards_quarantined", "rolling",
        "rolled_shards", "overload", "p99_bound_s", "p99_observed_s",
        "slowloris_clients", "slowloris_disconnects", "final_clients", "ok",
    ]
    assert payload["load"] == report.load.to_dict()
    assert payload["ok"] is True


def serve_argv(socket, journal, park_timeout="2.0", *flags):
    """A campaign's ``serve`` command line in workdir ``/w``."""
    return [
        sys.executable, "-m", "repro", "serve", "--socket", f"/w/{socket}",
        "--policy", "strict", "--capacity-mb", "8.0",
        "--journal", f"/w/{journal}", "--journal-fsync", "0.0",
        "--lease-ttl", "1.5", "--lease-check", "0.1",
        "--park-timeout", park_timeout, "--drain-grace", "3.0", "--sanitize",
        *flags,
    ]


SHARD_ARGV = [
    serve_argv(f"shard{i}.sock", f"shard{i}-journal.ndjson") for i in range(2)
]

#: each campaign's server command lines, as every campaign has run them
SERVER_ARGV = {
    "server": [serve_argv("chaos-server.sock", "chaos-journal.ndjson")],
    "cluster": SHARD_ARGV,
    "supervised": SHARD_ARGV,
    "rolling": SHARD_ARGV,
    "overload": [serve_argv(
        "overload-server.sock", "overload-journal.ndjson", "1.0",
        "--max-pending", "16", "--retry-hint-floor", "0.05",
        "--retry-hint-cap", "2.0", "--max-pending-per-client", "2",
        "--write-timeout", "1.0",
    )],
}


@pytest.mark.parametrize("kind", CAMPAIGN_KINDS)
def test_each_campaign_starts_its_servers_with_the_same_argv(kind):
    campaign = _Campaign(ChaosConfig(kind=kind, shards=2), "/w")
    assert [server._argv() for server in campaign.servers] == SERVER_ARGV[kind]


class TestCampaignFlags:
    @pytest.mark.parametrize("argv, message", [
        (["chaos", "--overload", "--cluster"], "mutually exclusive"),
        (["chaos", "--overload", "--rolling"], "mutually exclusive"),
        (["chaos", "--cluster", "--rolling"], "mutually exclusive"),
        (["chaos", "--supervise"], "--supervise needs --cluster"),
        (["chaos", "--rolling", "--supervise"], "--supervise needs --cluster"),
    ])
    def test_impossible_campaigns_exit_2(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
