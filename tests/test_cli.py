import json
import random
from pathlib import Path

import pytest

import dqroute.cli
import dqroute.equilibrium
from dqroute.cli import main
from dqroute.errors import DQRouteError


GOLDEN = Path(__file__).parent / "golden"


def error_cases():
    """The exit-2 cases of `golden/errors/cases.txt`, one parameter set a line."""
    for line in (GOLDEN / "errors" / "cases.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            case, command, scenario, extra, message = line.split("|")
            yield pytest.param([command, scenario, *extra.split()], message, id=case)


def report_cases():
    """The golden reports of `golden/reports.txt`, one parameter set a line; a
    scenario with a `/` is a path under `golden/`."""
    for line in (GOLDEN / "reports.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            command, case, scenario, extra, code, files = line.split("|")
            if "/" in scenario:
                scenario = str(GOLDEN / scenario)
            yield pytest.param(command, case, [scenario, *extra.split()], int(code), files.split(),
                               id=f"{command}/{case}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_enumerate_ne_fig1(self, capsys):
        code, out = run(capsys, "enumerate-ne", "fig1")
        assert code == 0
        assert "6 Nash equilibria" in out
        assert out.count("costs p1:3, p2:3") == 6

    def test_solve_fig2_prints_the_nine_paths(self, capsys):
        code, out = run(capsys, "solve", "fig2")
        assert code == 0
        lines = [l.split("\t") for l in out.splitlines() if l and l[0].isdigit()]
        paths = [row[3] for row in lines]
        assert paths == [
            "v2 y2 d",
            "v1 y1 d",
            "v2 y2 d",
            "v1 y1 d",
            "v2 y2 d",
            "v1 y1 d",
            "oj w w2 x2 y2 d",
            "ok v v1 y1 d",
            "oi u u2 v2 y2 d",
        ]

    def test_simulate_fig3_with_and_without_k(self, capsys):
        code, out = run(capsys, "simulate", "fig3")
        assert code == 0
        rows = {l.split("\t")[0]: l.split("\t")[1] for l in out.splitlines() if "\t" in l}
        assert rows["i"] == rows["j"] == rows["k"] == "5"
        code, out = run(capsys, "simulate", "fig3", "--without-agent", "k")
        assert code == 0
        rows = {l.split("\t")[0]: l.split("\t")[1] for l in out.splitlines() if "\t" in l}
        assert rows["i"] == "5" and rows["j"] == "6" and "k" not in rows

    def test_verify_ne_exit_codes(self, capsys):
        code, out = run(capsys, "verify-ne", "fig1_vicious")
        assert code == 1 and "FAIL" in out
        code, out = run(capsys, "verify-ne", "fig3")
        assert code == 0 and "PASS" in out

    def test_best_response_with_brute_check(self, capsys):
        code, out = run(capsys, "best-response", "fig3", "--agent", "i", "--brute")
        assert code == 0
        assert "match" in out

    def test_spe_audit_vicious(self, capsys):
        code, out = run(capsys, "spe-audit", "fig1", "--oracle", "vicious")
        assert code == 0
        assert "PASS" in out and "p2:5" in out

    def test_spe_audit_falls_back_to_sampling(self, capsys):
        code, out = run(capsys, "spe-audit", "fig1", "--guard", "10", "--samples", "8")
        assert code == 0
        assert "audit mode: sampled" in out and "PASS" in out

    def test_spe_audit_reports_other_history_errors(self, capsys, monkeypatch):
        # only the guard overflow falls back to sampling; other errors are errors
        def broken(*args, **kwargs):
            raise DQRouteError("broken history tree")

        monkeypatch.setattr(dqroute.cli, "exhaustive_histories", broken)
        code, out = run(capsys, "spe-audit", "fig1")
        assert code == 2
        assert "error: broken history tree" in out and "audit mode" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "fig2", "--samples", "3"],
            ["queue-bound", "sp_diamond", "--depth", "2"],
            ["simulate", "fig3", "--seed", "1"],
        ],
    )
    def test_options_only_where_they_are_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["spe-audit", "fanout", "--depth", "-1"],
            ["spe-audit", "fanout", "--samples", "-2"],
            ["spe-audit", "fanout", "--guard", "-1"],
            ["properties", "fig3", "--samples", "-1"],
            ["properties", "fig3", "--coalition", "-1"],
            ["properties", "fig3", "--budget", "-5"],
            ["queue-bound", "sp_diamond", "--horizon", "-3"],
            ["simulate", "fig3", "--horizon", "-1"],
        ],
    )
    def test_negative_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[2]}: must be >= 0, got {argv[3]}" in capsys.readouterr().err

    def test_ne_based_audit_names_an_agent_without_a_path(self, capsys, tmp_path):
        run(capsys, "fixtures", "--out", str(tmp_path))
        text = (tmp_path / "fig3.scn").read_text()
        scn = tmp_path / "fig3_without_c3.scn"
        scn.write_text("".join(line for line in text.splitlines(True) if "agent c3" not in line))
        code, out = run(capsys, "spe-audit", str(scn), "--oracle", "ne-based")
        assert code == 2
        assert out.splitlines()[-1] == "error: given profile has no path for agent c3"

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["spe-audit", "--oracle", "ne-based"], "given profile is not an NE"),
            (["properties"], "profile fails verify_ne"),
        ],
    )
    def test_profile_that_is_not_an_ne_names_the_improving_path(self, capsys, tmp_path, argv, prefix):
        run(capsys, "fixtures", "--out", str(tmp_path))
        text = (tmp_path / "fig3.scn").read_text()
        scn = tmp_path / "fig3_i_on_u.scn"
        scn.write_text(text.replace("agent i u1_u2 u2_v3 v3_v4 v4_d", "agent i u1_u2 u2_u3 u3_u4 u4_u5 u5_d"))
        code, out = run(capsys, argv[0], str(scn), *argv[1:])
        assert code == 2
        assert out.splitlines()[1:] == [
            f"error: {prefix}: i exits 6, can reach 5 via u1_u2 u2_v3 v3_v4 v4_d"
        ]

    def test_properties_on_solved_profile(self, capsys, tmp_path):
        code, out = run(capsys, "properties", "fig3", "--samples", "10",
                        "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "report.txt").exists()

    def test_properties_with_no_samples_skips_the_sampled_checks(self, capsys):
        code, out = run(capsys, "properties", "fig3", "--samples", "0")
        assert code == 0
        lines = out.splitlines()
        assert "  [PASS] strong_ne - exhaustive" in lines
        for name in ("independence", "optimality"):
            assert f"  [SKIP] {name} - samples=0: no completion was drawn" in lines

    def test_queue_bound_writes_tsv(self, capsys, tmp_path):
        code, out = run(capsys, "queue-bound", "sp_diamond", "--horizon", "500",
                        "--out", str(tmp_path))
        assert code == 0
        occupancy = (tmp_path / "occupancy.tsv").read_text().splitlines()
        assert occupancy[0] == "time\ttotal"
        assert len(occupancy) > 400

    @pytest.mark.parametrize("command", ["queue-bound", "spe-bound"])
    def test_explicit_horizon_zero_is_honoured(self, capsys, command):
        # 0 keeps the one-wave schedule, as 1 does; the scenario's 1000 is not read
        code, out = run(capsys, command, "sp_diamond", "--horizon", "0")
        assert "inflow_end=1\n" in out
        assert out == run(capsys, command, "sp_diamond", "--horizon", "1")[1]

    def test_spe_bound(self, capsys):
        code, out = run(capsys, "spe-bound", "fanout", "--horizon", "500")
        assert code == 0
        assert "bounded=True" in out

    def test_fixtures_and_file_scenario(self, capsys, tmp_path):
        code, out = run(capsys, "fixtures", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig1.scn").exists()
        code, out = run(capsys, "enumerate-ne", str(tmp_path / "fig1.scn"))
        assert code == 0 and "6 Nash equilibria" in out

    def test_simulate_writes_reports(self, capsys, tmp_path):
        code, _ = run(capsys, "simulate", "fig3", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "report.txt").exists()
        trace = (tmp_path / "trace.tsv").read_text().splitlines()
        assert trace[0] == "agent\tvertex\ttime"
        assert (tmp_path / "queues.tsv").exists()

    @pytest.mark.parametrize("command, case, argv, expected, files", list(report_cases()))
    def test_report_matches_golden(self, capsys, tmp_path, command, case, argv, expected, files):
        golden = GOLDEN / command / case
        code, out = run(capsys, command, *argv, "--out", str(tmp_path))
        assert code == expected
        assert out == (golden / "stdout.txt").read_text()
        assert (tmp_path / "report.txt").read_text() == out
        for name in files:
            assert (tmp_path / name).read_text() == (golden / name).read_text()

    def test_every_golden_report_is_a_row(self):
        # a golden that no row names is diffed by neither reader
        rows = [param.values for param in report_cases()]
        cases = {(command, case) for command, case, *_ in rows}
        assert cases == {path.parent.parts[-2:] for path in GOLDEN.glob("*/*/stdout.txt")}
        for command, case, _, _, files in rows:
            for name in files:
                assert (GOLDEN / command / case / name).is_file()

    def test_properties_decides_fig3_from_its_exit_table(self, capsys, monkeypatch):
        # the table built first gives the NE verdict and trace, and the batch
        # checks pass on every completion: no draw and no `verify_ne`
        def refuse(*args, **kwargs):
            raise AssertionError("a draw or a verify_ne call")

        monkeypatch.setattr(random.Random, "choice", refuse)
        monkeypatch.setattr(dqroute.equilibrium, "verify_ne", refuse)
        for case, argv in (("fig3", []), ("fig3_samples_0", ["--samples", "0"])):
            code, out = run(capsys, "properties", "fig3", *argv)
            assert code == 0
            assert out == (GOLDEN / "properties" / case / "stdout.txt").read_text()

    def test_properties_names_a_non_ne_by_the_verify_ne_witness(self, capsys):
        code, out = run(capsys, "properties", "fig1_vicious")
        assert code == 2
        assert out.splitlines()[-1] == \
            "error: profile fails verify_ne: p2 exits 5, can reach 4 via ~c2.1 ou2 u2w2 w2d"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("network\n  bogus directive\n")
        code, out = run(capsys, "simulate", str(bad))
        assert code == 2 and "error:" in out

    @pytest.mark.parametrize("argv, message", list(error_cases()))
    def test_bad_inputs_exit_2_with_an_error_line(self, capsys, argv, message):
        code, out = run(capsys, argv[0], str(GOLDEN / "errors" / argv[1]), *argv[2:])
        assert code == 2
        assert out.splitlines()[-1] == message

    def test_witness_replay(self, capsys, tmp_path):
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps({
            "check": "manual",
            "profile": {
                "i": ["u1_u2", "u2_v3", "v3_v4", "v4_d"],
                "k": ["u1_u2", "u2_u3", "u3_u4", "u4_u5", "u5_d"],
            },
        }))
        code, out = run(capsys, "properties", "fig3", "--replay", str(witness))
        assert code == 0
        assert "replayed witness" in out

    def test_unreadable_scenario_exit_code(self, capsys, tmp_path):
        code, out = run(capsys, "solve", str(tmp_path / "missing.scn"))
        assert code == 2 and "error: cannot read scenario" in out
        code, out = run(capsys, "solve", str(tmp_path))
        assert code == 2 and "error:" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"profile": {"ghost": ["u1_u2"]}}', "unknown agent 'ghost'"),
            ('{"profile": {"i": ["u1_u2", "nope"]}}', "path of unknown edges"),
            ('{"check": "manual"}', "no profile object"),
            ("[1, 2]", "no profile object"),
            ("{not json", "not valid JSON"),
        ],
    )
    def test_bad_witness_replay_exit_code(self, capsys, tmp_path, text, message):
        witness = tmp_path / "witness.json"
        witness.write_text(text)
        code, out = run(capsys, "properties", "fig3", "--replay", str(witness))
        assert code == 2 and "error:" in out and message in out

    def test_missing_witness_exit_code(self, capsys, tmp_path):
        code, out = run(capsys, "properties", "fig3", "--replay", str(tmp_path / "none.json"))
        assert code == 2 and "error: cannot read witness" in out
