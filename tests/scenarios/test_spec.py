"""ScenarioSpec data model: validation, building, serialization."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    ArrivalSpec,
    ChaosSpec,
    PolicyConfig,
    ScenarioSpec,
    SLASpec,
    TenantSpec,
    WorkloadPattern,
    load_scenario_file,
)
from repro.workloads.models import (
    BatchArrivals,
    ClosedArrivals,
    DiurnalArrivals,
    OpenArrivals,
)


def _tenant(name="acme", **kwargs):
    return TenantSpec(
        name=name,
        workloads=(
            WorkloadPattern(
                kind="oltp",
                arrival=ArrivalSpec(kind="open", rate=5.0),
                sla=SLASpec(average=0.5, p95=2.0),
            ),
        ),
        **kwargs,
    )


def _spec(**kwargs):
    kwargs.setdefault("name", "unit")
    kwargs.setdefault("tenants", (_tenant(),))
    return ScenarioSpec(**kwargs)


class TestArrivalSpec:
    def test_builds_every_kind(self):
        assert isinstance(ArrivalSpec(kind="open", rate=2.0).build(), OpenArrivals)
        assert isinstance(
            ArrivalSpec(kind="diurnal", rate=2.0).build(), DiurnalArrivals
        )
        assert isinstance(
            ArrivalSpec(kind="batch", count=5, at=1.0).build(), BatchArrivals
        )
        assert isinstance(
            ArrivalSpec(kind="closed", population=3).build(), ClosedArrivals
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="fractal")

    def test_flash_crowd_phases(self):
        arrival = ArrivalSpec.flash_crowd(rate=4.0, onset=10.0, end=20.0, burst=3.0)
        process = arrival.build()
        assert process.rate_at(5.0) == 4.0
        assert process.rate_at(15.0) == 12.0
        assert process.rate_at(25.0) == 4.0


class TestArrivalSpecValidation:
    """Non-finite and out-of-range numbers fail at the spec boundary."""

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -1.0])
    def test_bad_rate_rejected_directly(self, rate):
        with pytest.raises(ConfigurationError, match="arrival rate"):
            ArrivalSpec(kind="open", rate=rate)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -1.0])
    def test_bad_rate_rejected_through_from_dict(self, rate):
        data = json.loads(json.dumps(_spec().as_dict()))
        data["tenants"][0]["workloads"][0]["arrival"]["rate"] = rate
        with pytest.raises(ConfigurationError, match="arrival rate"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "fields, needle",
        [
            ({"phases": ((10.0, float("inf")),)}, "phase rate"),
            ({"phases": ((10.0, -2.0),)}, "phase rate"),
            ({"phases": ((float("nan"), 1.0),)}, "phase start"),
            ({"phases": ((-1.0, 1.0),)}, "phase start"),
            ({"amplitude": 1.5}, "amplitude"),
            ({"amplitude": float("nan")}, "amplitude"),
            ({"period": 0.0}, "period"),
            ({"period": float("inf")}, "period"),
            ({"phase": float("nan")}, "phase"),
            ({"count": -1}, "count"),
            ({"count": 2.5}, "count"),
            ({"at": float("inf")}, "at"),
            ({"population": 0}, "population"),
            ({"think_time": -0.5}, "think_time"),
            ({"think_time": float("inf")}, "think_time"),
        ],
    )
    def test_bad_field_rejected(self, fields, needle):
        with pytest.raises(ConfigurationError, match=f"arrival {needle} must be"):
            ArrivalSpec(kind="open", **fields)

    def test_phase_must_be_a_pair(self):
        with pytest.raises(ConfigurationError, match="pair"):
            ArrivalSpec(kind="open", phases=((1.0, 2.0, 3.0),))

    def test_boundary_values_accepted(self):
        ArrivalSpec(kind="open", rate=0.0, phases=((0.0, 0.0),))
        ArrivalSpec(kind="diurnal", amplitude=0.0)
        ArrivalSpec(kind="diurnal", amplitude=1.0, phase=-5.0)
        ArrivalSpec(kind="batch", count=0, at=0.0)
        ArrivalSpec(kind="closed", population=1, think_time=0.0)


class TestWorkloadPattern:
    def test_builds_namespaced_spec(self):
        pattern = WorkloadPattern(
            kind="bi",
            arrival=ArrivalSpec(kind="open", rate=0.2),
            priority=4,
            params=(("median_cpu", 3.0),),
        )
        spec = pattern.build("acme")
        assert spec.name == "acme/bi"
        assert spec.priority == 4
        assert isinstance(spec.arrivals, OpenArrivals)

    def test_label_overrides_kind(self):
        pattern = WorkloadPattern(
            kind="oltp", arrival=ArrivalSpec(), label="checkout"
        )
        assert pattern.build("shop").name == "shop/checkout"

    def test_reserved_characters_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadPattern(kind="oltp", arrival=ArrivalSpec(), label="a/b")
        with pytest.raises(ConfigurationError):
            WorkloadPattern(kind="nosuch", arrival=ArrivalSpec())


class TestTenantAndScenarioValidation:
    def test_tenant_name_rules(self):
        with pytest.raises(ConfigurationError):
            _tenant(name="a/b")
        with pytest.raises(ConfigurationError):
            _tenant(name="")

    def test_tenant_share_and_quota_rules(self):
        with pytest.raises(ConfigurationError):
            _tenant(share=0.0)
        with pytest.raises(ConfigurationError):
            _tenant(quota=-1)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(tenants=(_tenant(), _tenant()))

    def test_scenario_accessors(self):
        spec = _spec(
            tenants=(_tenant("a", share=2.0), _tenant("b", quota=7, noisy=True))
        )
        assert spec.shares() == {"a": 2.0, "b": 1.0}
        assert spec.quotas() == {"b": 7}
        assert spec.has_noisy
        assert [t.name for t in spec.without_noisy().tenants] == ["a"]
        assert spec.tenant("a").share == 2.0
        with pytest.raises(KeyError):
            spec.tenant("zzz")

    def test_without_noisy_is_identity_when_all_noisy_or_none(self):
        spec = _spec()
        assert spec.without_noisy() is spec
        all_noisy = _spec(tenants=(_tenant(noisy=True),))
        assert all_noisy.without_noisy() is all_noisy


class TestChaosSpec:
    def test_inactive_builds_no_plan(self):
        assert ChaosSpec().build_plan(4, 60.0) is None

    def test_crash_waves_and_degrade_compose(self):
        chaos = ChaosSpec(crash_waves=1, degrade=((0.5, 1, 0.5),))
        plan = chaos.build_plan(4, 60.0)
        kinds = {event.kind.value for event in plan.events}
        assert {"crash", "recover", "degrade"} <= kinds
        times = [event.time for event in plan.events]
        assert times == sorted(times)

    def test_plan_is_deterministic(self):
        chaos = ChaosSpec(crash_waves=2, degrade=((0.3, 0, 0.7),))
        assert chaos.build_plan(4, 60.0) == chaos.build_plan(4, 60.0)


class TestPolicyConfig:
    def test_queue_shares_require_pull(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(name="bad", queue_shares=True, dispatch="push")

    def test_describe_lists_armed_controls(self):
        assert "none" in PolicyConfig(name="base").describe()
        full = PolicyConfig(
            name="full",
            node_shares=True,
            cluster_quotas=True,
            queue_shares=True,
            dispatch="pull",
        )
        assert "node-shares" in full.describe()
        assert "queue-shares" in full.describe()


class TestSerialization:
    def _roundtrip(self, spec):
        data = json.loads(json.dumps(spec.as_dict()))
        return ScenarioSpec.from_dict(data)

    def test_round_trips_through_json(self):
        spec = _spec(
            tenants=(
                _tenant("a", share=2.0),
                TenantSpec(
                    name="b",
                    quota=5,
                    noisy=True,
                    workloads=(
                        WorkloadPattern(
                            kind="bi",
                            arrival=ArrivalSpec(
                                kind="open",
                                rate=1.0,
                                phases=((10.0, 4.0), (20.0, 1.0)),
                            ),
                            params=(("median_cpu", 3.0),),
                        ),
                    ),
                ),
            ),
            chaos=ChaosSpec(crash_waves=1, degrade=((0.5, 1, 0.5),)),
        )
        assert self._roundtrip(spec) == spec

    def test_from_dict_wraps_errors(self):
        with pytest.raises(ConfigurationError, match="malformed scenario"):
            ScenarioSpec.from_dict({"name": "x"})
        with pytest.raises(ConfigurationError, match="malformed scenario"):
            ScenarioSpec.from_dict({"name": "x", "tenants": [{"bogus": 1}]})


class TestFileLoading:
    def test_json_file_loads(self, tmp_path):
        spec = _spec()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.as_dict()))
        assert load_scenario_file(path) == spec

    def test_missing_file_is_clear(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario_file(tmp_path / "nope.json")

    def test_malformed_json_is_clear(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="malformed JSON"):
            load_scenario_file(path)

    def test_non_mapping_payload_is_clear(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="mapping"):
            load_scenario_file(path)

    def test_yaml_path_gated_on_pyyaml(self, tmp_path):
        """With PyYAML the file loads; without it the error names it."""
        spec = _spec()
        path = tmp_path / "scenario.yaml"
        try:
            import yaml
        except ImportError:
            path.write_text("{}")
            with pytest.raises(ConfigurationError, match="PyYAML"):
                load_scenario_file(path)
        else:
            path.write_text(yaml.safe_dump(spec.as_dict()))
            assert load_scenario_file(path) == spec

    def test_yaml_error_message_without_pyyaml(self, tmp_path, monkeypatch):
        """Force the no-PyYAML branch regardless of the environment."""
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "yaml":
                raise ImportError("No module named 'yaml'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        path = tmp_path / "scenario.yml"
        path.write_text("name: x")
        with pytest.raises(ConfigurationError, match="PyYAML"):
            load_scenario_file(path)
