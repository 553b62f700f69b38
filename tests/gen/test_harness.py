"""Campaign harness behavior: recording, replay, reports, limits.

Fake oracles injected into the registry keep these tests instant and
make failure placement deterministic; one small real-oracle campaign
covers the integration path.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.gen import (FuzzFinding, FuzzOptions, GEN_SCHEMA_VERSION,
                       GenConfig, replay_finding, run_campaign)
from repro.gen import oracles as oracles_mod
from repro.obs.metrics import MetricsRegistry


def _fail_odd_seeds(ctx):
    if ctx.seed % 2:
        return f"seed {ctx.seed} is odd"
    return None


@pytest.fixture
def fake_oracle(monkeypatch):
    monkeypatch.setitem(oracles_mod.ORACLES, "fake-odd", _fail_odd_seeds)
    return "fake-odd"


def test_campaign_records_findings_and_counters(fake_oracle):
    options = FuzzOptions(seed=0, count=4, oracles=(fake_oracle,),
                          config=GenConfig(), shrink=False)
    metrics = MetricsRegistry()
    report = run_campaign(options, metrics=metrics)
    assert report.circuits == 4
    assert report.checks == 4
    assert not report.ok
    assert [f.seed for f in report.findings] == [1, 3]
    assert report.oracle_pass == {fake_oracle: 2}
    assert report.oracle_fail == {fake_oracle: 2}
    assert metrics.value("fuzz.circuits") == 4
    assert metrics.value("fuzz.findings") == 2
    finding = report.findings[0]
    assert finding.schema_version == GEN_SCHEMA_VERSION
    assert "--seed 1" in finding.repro_command
    assert finding.source  # unshrunk circuit source is attached


def test_max_findings_stops_the_campaign_early(fake_oracle):
    options = FuzzOptions(seed=0, count=50, oracles=(fake_oracle,),
                          config=GenConfig(), shrink=False,
                          max_findings=1)
    report = run_campaign(options)
    assert len(report.findings) == 1
    assert report.circuits < 50


def test_replay_reproduces_a_recorded_finding(fake_oracle):
    options = FuzzOptions(seed=0, count=2, oracles=(fake_oracle,),
                          config=GenConfig(), shrink=False)
    report = run_campaign(options)
    (finding,) = report.findings
    assert replay_finding(finding) == finding.detail
    # Round-trip through the serialized form replays identically.
    clone = FuzzFinding.from_dict(finding.as_dict())
    assert replay_finding(clone) == finding.detail


def test_replay_rejects_other_schema_versions(fake_oracle):
    finding = FuzzFinding(
        schema_version=GEN_SCHEMA_VERSION + 1, seed=1,
        config=GenConfig().as_dict(), oracle=fake_oracle, detail="x")
    with pytest.raises(ConfigError, match="schema"):
        replay_finding(finding)


def test_unknown_oracle_name_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown oracle"):
        FuzzOptions(oracles=("no-such-oracle",)).oracle_names()


def test_report_serializes_to_json(tmp_path, fake_oracle):
    options = FuzzOptions(seed=0, count=2, oracles=(fake_oracle,),
                          config=GenConfig(), shrink=False)
    report = run_campaign(options)
    path = tmp_path / "FUZZ_report.json"
    report.write(str(path))
    doc = json.loads(path.read_text())
    assert doc["circuits"] == 2
    assert doc["schema_version"] == GEN_SCHEMA_VERSION
    assert len(doc["findings"]) == 1
    assert doc["findings"][0]["repro_command"].startswith(
        "python -m repro fuzz replay")


def test_small_real_campaign_is_clean():
    """Two circuits through a real oracle — the integration path the
    CI smoke job exercises at scale."""
    options = FuzzOptions(seed=0, count=2, oracles=("interp-stg",))
    report = run_campaign(options)
    assert report.ok, [f.detail for f in report.findings]
    assert report.oracle_pass == {"interp-stg": 2}


def test_rewrite_semantics_samples_every_transformation():
    """Up to ``APPLIES_PER_TRANSFORM`` candidates of each
    transformation, round-robin in canonical order — not the first few
    of the list, which sorts by transformation name."""
    from types import SimpleNamespace
    names = ["associativity"] * 5 + ["commutativity"] * 2 + ["unroll"]
    cands = [SimpleNamespace(transform=n, i=i)
             for i, n in enumerate(names)]
    picked = oracles_mod._round_robin(cands)
    assert oracles_mod.APPLIES_PER_TRANSFORM == 3
    assert [c.i for c in picked] == [0, 5, 7, 1, 6, 2]
