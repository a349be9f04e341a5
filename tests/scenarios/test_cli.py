"""`python -m repro scenario ...`: happy paths and exit-code contract.

Invalid input — unknown scenario names, malformed spec files, a YAML
spec without PyYAML installed — must produce a one-line error on
stderr and exit code 2, never a traceback.
"""

import json

import pytest

from repro.cli import main
from repro.scenarios.matrix import policy_names, scenario_names


class TestScenarioList:
    def test_lists_scenarios_and_policies(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        for name in policy_names():
            assert name in out


class TestScenarioRun:
    def test_run_prints_detail_and_digest(self, capsys):
        code = main(
            [
                "scenario", "run",
                "--name", "noisy_neighbor",
                "--policy", "quotas",
                "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "noisy_neighbor" in out
        assert "acme" in out
        assert "digest" in out

    def test_run_from_spec_file(self, capsys, tmp_path):
        from repro.scenarios.matrix import get_scenario

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(get_scenario("diurnal_mix").as_dict()))
        assert main(["scenario", "run", "--spec", str(path)]) == 0
        assert "diurnal_mix" in capsys.readouterr().out


class TestScenarioSweepAndReport:
    ARGS = ["--scenarios", "noisy_neighbor", "--policies", "baseline,quotas"]

    def test_sweep_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main(
            ["scenario", "sweep", *self.ARGS, "--json", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["digest"]
        assert len(payload["results"]) == 4  # 2 policies x (run + companion)

    def test_report_from_sweep_json(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert (
            main(["scenario", "sweep", *self.ARGS, "--json", str(out_path)])
            == 0
        )
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        code = main(
            [
                "scenario", "report",
                "--json", str(out_path),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        report = report_path.read_text()
        assert "Scenario survival matrix" in report
        assert "noisy_neighbor" in report


class TestExitCodes:
    def _fails_cleanly(self, capsys, argv, needle):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "scenario error:" in captured.err
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_unknown_scenario(self, capsys):
        self._fails_cleanly(
            capsys, ["scenario", "run", "--name", "nope"], "unknown scenario"
        )

    def test_unknown_policy(self, capsys):
        self._fails_cleanly(
            capsys, ["scenario", "run", "--policy", "nope"], "unknown policy"
        )

    def test_unknown_sweep_names(self, capsys):
        self._fails_cleanly(
            capsys,
            ["scenario", "sweep", "--scenarios", "nope"],
            "unknown scenarios",
        )

    def test_missing_spec_file(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["scenario", "run", "--spec", str(tmp_path / "nope.json")],
            "not found",
        )

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "malformed"
        )

    def test_spec_missing_required_fields(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"name": "x"}))
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "malformed"
        )

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -1.0])
    def test_non_finite_or_negative_rate(self, capsys, tmp_path, rate):
        # inf and nan used to hang the run; -1.0 died with a traceback
        from repro.scenarios.matrix import get_scenario

        data = get_scenario("diurnal_mix").as_dict()
        data["tenants"][0]["workloads"][0]["arrival"]["rate"] = rate
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))  # writes Infinity / NaN
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "arrival rate"
        )

    def test_yaml_without_pyyaml(self, capsys, tmp_path, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "yaml":
                raise ImportError("No module named 'yaml'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        path = tmp_path / "spec.yaml"
        path.write_text("name: x")
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "PyYAML"
        )

    def test_report_from_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        self._fails_cleanly(
            capsys, ["scenario", "report", "--json", str(path)], "malformed"
        )

    def test_report_from_missing_json(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["scenario", "report", "--json", str(tmp_path / "nope.json")],
            "not found",
        )
