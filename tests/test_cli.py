import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arrivalab.experiments
from arrivalab import FAMILIES, ParameterError
from arrivalab.cli import KNOWN_CONFIG_KEYS, build_parser, load_config_file, main


def manifest_lines(outdir):
    return (outdir / "manifest.txt").read_text().splitlines()


def provenance(path):
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        out[key] = value
    return out


def exit_code(args) -> int:
    """``main``'s return value, or the status of the usage error argparse exits with."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def fast_args(out):
    return ["--out", str(out), "--replications", "2", "--horizon", "10"]


def run_cli(args) -> subprocess.CompletedProcess:
    """The CLI in its own process, where numpy's warnings reach stderr as text
    (in process, the ``error::RuntimeWarning`` filter raises them instead)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "arrivalab.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


class TestSweepAlpha:
    def test_default_manifest_lists_five_cells(self, tmp_path):
        assert main(["sweep-alpha", *fast_args(tmp_path)]) == 0
        cells = [l for l in manifest_lines(tmp_path) if "alpha_0" in l]
        assert len(cells) == 5
        assert (tmp_path / "alpha_occupancy.csv").exists()

    def test_same_seed_rerun_identical_checksums(self, tmp_path):
        main(["sweep-alpha", *fast_args(tmp_path / "a"), "--seed", "42"])
        main(["sweep-alpha", *fast_args(tmp_path / "b"), "--seed", "42"])
        assert manifest_lines(tmp_path / "a") == manifest_lines(tmp_path / "b")

    def test_single_alpha_override_recorded(self, tmp_path):
        assert main(["sweep-alpha", *fast_args(tmp_path), "--alpha", "0.5"]) == 0
        cells = [l for l in manifest_lines(tmp_path) if "alpha_0" in l]
        assert len(cells) == 1
        prov = provenance(tmp_path / "alpha_0.5.csv")
        assert prov["alphas"] == "0.5"
        assert "alphas" in prov["overrides"]


class TestSweepRate:
    def test_default_five_rate_cells(self, tmp_path):
        assert main(["sweep-rate", *fast_args(tmp_path)]) == 0
        for rate in ("0.3", "0.4", "0.5", "0.8", "0.9"):
            assert (tmp_path / f"rate_{rate}.csv").exists()

    def test_node_budget_echoed_in_provenance(self, tmp_path):
        main(["sweep-rate", *fast_args(tmp_path)])
        assert provenance(tmp_path / "rate_0.3.csv")["node_budget"] == "20"

    def test_nodes_flag_changes_pmf_support(self, tmp_path):
        main(["sweep-rate", *fast_args(tmp_path), "--nodes", "5"])
        lines = (tmp_path / "rate_0.9.csv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0] == "n,poisson_pmf"
        assert len(rows) == 1 + 6  # header + n = 0..5

    def test_rerun_determinism(self, tmp_path):
        main(["sweep-rate", *fast_args(tmp_path / "a")])
        main(["sweep-rate", *fast_args(tmp_path / "b")])
        assert (tmp_path / "a" / "rate_0.5.csv").read_bytes() == (tmp_path / "b" / "rate_0.5.csv").read_bytes()


class TestCompare:
    def test_crossover_summary_covers_all_shapes(self, tmp_path):
        assert main(["compare", "--out", str(tmp_path)]) == 0
        rows = [l for l in (tmp_path / "crossover_summary.csv").read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "alpha,pdf_crossover_x,survival_crossover_x"
        assert len(rows) == 1 + 5

    def test_known_crossover_value_emitted(self, tmp_path):
        main(["compare", "--out", str(tmp_path)])
        rows = [l for l in (tmp_path / "crossover_summary.csv").read_text().splitlines() if not l.startswith("#")]
        half = next(r for r in rows[1:] if r.startswith("0.5,"))
        assert 2.6 < float(half.split(",")[1]) < 2.7


class TestSimulate:
    def test_two_arrival_fixture_blocks_half(self, tmp_path, capsys):
        code = main([
            "simulate", "--out", str(tmp_path),
            "--arrivals", "1,2", "--capacity", "1", "--holding", "infinite",
        ])
        assert code == 0
        assert "blocking_fraction=0.5" in capsys.readouterr().out
        occ = provenance(tmp_path / "occupancy.csv")
        assert occ["blocking_fraction"] == "0.5"
        assert occ["peak_count"] == "1"
        assert (tmp_path / "trace.csv").exists()

    def test_generated_run_is_deterministic(self, tmp_path):
        args = ["simulate", "--family", "lomax", "--alpha", "0.5", "--beta", "2",
                "--capacity", "3", "--horizon", "50", "--seed", "7"]
        main([*args, "--out", str(tmp_path / "a")])
        main([*args, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "occupancy.csv").read_bytes() == (tmp_path / "b" / "occupancy.csv").read_bytes()
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_rejects_unknown_family_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path), "--family", "weibull"])
        assert exc.value.code == 2

    def test_rejects_unknown_family_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("family = weibull\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "family" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep-rate"])
    def test_config_family_is_checked_when_the_file_is_parsed(self, command, tmp_path, capsys):
        # as --family's choices are, even where the command or a fixture would not read it
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("family = weibull\narrivals = 1,2\n")
        with pytest.raises(ParameterError, match="unknown arrival family 'weibull'"):
            load_config_file(cfg)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "family,params", [("exponential", "rate=1.5"), ("pareto1", "alpha=0.7"), ("lomax", "alpha=0.7 beta=2.0")]
    )
    def test_params_come_from_the_fields_of_the_family_params_type(self, family, params, tmp_path):
        assert set(FAMILIES) == {"exponential", "pareto1", "lomax"}
        main(["simulate", "--family", family, "--rate", "1.5", "--alpha", "0.7", "--beta", "2", "--horizon", "20",
              "--out", str(tmp_path)])
        assert provenance(tmp_path / "trace.csv")["params"] == params

    @staticmethod
    def empty_fixture_args(form, tmp_path):
        """An explicitly empty fixture, given as a flag or in a config file."""
        if form == "flag":
            return ["--arrivals", ""]
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("arrivals = ,\n")
        return ["--config", str(cfg)]

    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_empty_fixture_without_horizon_exits_two(self, form, tmp_path, capsys):
        args = self.empty_fixture_args(form, tmp_path)
        assert main(["simulate", *args, "--out", str(tmp_path / "o")]) == 2
        assert "needs a horizon" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.txt").exists()

    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_empty_fixture_with_horizon_is_an_empty_run(self, form, tmp_path, capsys):
        args = self.empty_fixture_args(form, tmp_path)
        assert main(["simulate", *args, "--horizon", "5", "--out", str(tmp_path / "o")]) == 0
        assert "simulate: arrivals=0 admitted=0 blocked=0 blocking_fraction=nan" in capsys.readouterr().out
        assert provenance(tmp_path / "o" / "occupancy.csv")["blocking_fraction"] == "nan"
        trace = provenance(tmp_path / "o" / "trace.csv")
        assert (trace["family"], trace["params"], trace["horizon"]) == ("fixed", "times=", "5.0")

    def test_overflowed_exponential_hold_names_no_family(self, tmp_path, capsys):
        # -log(2**-54) / 1e-310 overflows to inf: exponential, not Lomax, holding,
        # rejected before any draw with one error line and no numpy warning
        assert main(["simulate", "--holding-rate", "1e-310", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: holding law exponential")
        assert "infinite hold" in err and "2**-54" in err and "1.79769e+308" in err
        assert "lomax" not in err.lower()

    @pytest.mark.parametrize("capacity", [[], ["--capacity", "1"]], ids=["unbounded", "capacity-1"])
    def test_overflowed_departure_time_writes_nothing(self, capacity, tmp_path, capsys):
        # the hold is finite; only its sum with the arrival time overflows
        out = tmp_path / "o"
        args = ["simulate", "--arrivals", "1.797e308", "--holding-rate", "1e-306", *capacity]
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: a departure time overflowed to inf")
        assert not out.exists()

    def test_sweep_rejects_overflowing_holding_law_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep-rate", "--holding-rate", "1e-310", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: holding law exponential")
        assert not out.exists()

    def test_trace_past_the_arrival_bound_exits_two_before_any_write(self, tmp_path):
        # gaps of about 1e-300 never reach the horizon; the trace stops at the bound.
        # A KS shape whose largest draw overflows is refused before any check runs.
        # Every command makes --out only after its run, so neither leaves one behind
        cfg = tmp_path / "tiny-shape.cfg"
        cfg.write_text("alphas = 0.01\n")
        bound = ("error: more than 10000000 exponential arrivals fall before the horizon 1.0; "
                 "a trace holds at most 10000000\n")
        shape = ("error: ks-pareto1-a0.01 samples pareto1 ParetoOneParams(shape=0.01), which can draw inf: "
                 "its largest draw, at the smallest stream uniform 2**-54, must not exceed the float maximum "
                 "1.79769e+308\n")
        for args, error in [
            (["simulate", "--rate", "1e300", "--horizon", "1"], bound),
            (["sweep-rate", "--rate", "1e300", "--horizon", "1", "--replications", "1"], bound),
            (["validate", "--config", str(cfg)], shape),
        ]:
            out = tmp_path / args[0]
            proc = run_cli([*args, "--out", str(out)])
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == error
            assert not out.exists()

    def test_infinite_arrival_gap_ends_the_trace_without_a_warning(self, tmp_path, capsys):
        args = ["sweep-rate", "--horizon", "1e308", "--rate", "1e-306", "--holding-rate", "1e-306"]
        assert main([*args, "--replications", "1", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_floats_round_trip_exactly(self, tmp_path):
        main(["simulate", "--out", str(tmp_path), "--family", "exponential", "--rate", "0.9",
              "--horizon", "20", "--seed", "11"])
        rows = [l for l in (tmp_path / "trace.csv").read_text().splitlines() if not l.startswith("#")]
        from arrivalab import ExponentialParams, RngStream, generate_trace

        trace = generate_trace("exponential", ExponentialParams(0.9), 20.0, RngStream(11, 0))
        for row, expected in zip(rows[1:], trace.times):
            assert float(row.split(",")[1]) == expected


class TestValidate:
    def test_passes_on_correct_build(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path), "--verbose"]) == 0
        report = (tmp_path / "validation_report.txt").read_text()
        assert report.endswith("result: PASS\n")
        assert "pareto2-shifted-powerlaw-mismatch: expected-mismatch" in report
        assert capsys.readouterr().err == f"wrote {tmp_path / 'validation_report.txt'}\n"

    def test_fails_with_exit_one(self, tmp_path, monkeypatch):
        # an impossible pass bar forces a genuine check failure
        monkeypatch.setattr(arrivalab.experiments, "KS_MIN_PASSES", 101)
        assert main(["validate", "--out", str(tmp_path)]) == 1
        report = (tmp_path / "validation_report.txt").read_text()
        assert report.endswith("result: FAIL\n")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# one-cell scenario\n"
            "alphas = 0.5\n"
            "seed = 7\n"
            "replications = 2\n"
            "horizon = 10\n"
        )
        out = tmp_path / "out"
        assert main(["sweep-alpha", "--config", str(cfg), "--out", str(out)]) == 0
        prov = provenance(out / "alpha_0.5.csv")
        assert prov["seed"] == "7"
        assert prov["alphas"] == "0.5"

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("seed = 7\nalphas = 0.5\nreplications = 2\nhorizon = 10\n")
        out = tmp_path / "out"
        main(["sweep-alpha", "--config", str(cfg), "--out", str(out), "--seed", "9"])
        assert provenance(out / "alpha_0.5.csv")["seed"] == "9"

    def test_unknown_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("alpa = 0.5\n")
        assert main(["sweep-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("alphas 0.5\n")
        assert main(["sweep-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_simulate_reads_fixture_from_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("arrivals = 1,2\ncapacity = 1\nholding = infinite\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert provenance(out / "occupancy.csv")["blocking_fraction"] == "0.5"

    def test_loader_exposes_documented_keys(self):
        assert "alphas" in KNOWN_CONFIG_KEYS
        assert "holding_rate" in KNOWN_CONFIG_KEYS

    def test_loader_parses_types(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("alphas = 0.3,0.5\ncapacity = unbounded\nseed = 3\nfamily = lomax\n")
        values = load_config_file(cfg)
        assert values == {"alphas": (0.3, 0.5), "capacity": None, "seed": 3, "family": "lomax"}


class TestErrorPaths:
    def test_unwritable_output_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub"  # a file in the way makes mkdir fail
        assert main(["sweep-alpha", "--out", str(out), "--replications", "2", "--horizon", "10"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-alpha", "--alpha", "not-a-number"])
        assert exc.value.code == 2

    def test_bad_parameter_exits_two(self, tmp_path, capsys):
        assert main(["sweep-alpha", "--out", str(tmp_path), "--alpha", "-0.5"]) == 2

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-rate", "compare", "validate", "simulate"])
    def test_seed_past_the_stream_bound_exits_two_before_any_write(self, command, tmp_path, capsys):
        # every stream is keyed by a seed below 2**64; the config says so before --out is made
        out = tmp_path / "o"
        # compare and validate read neither sizing flag, simulate no replications
        sized = {"compare": [], "validate": [], "simulate": ["--horizon", "10"]}.get(
            command, ["--replications", "2", "--horizon", "10"])
        assert main([command, "--seed", str(2**64), "--out", str(out), *sized]) == 2
        assert "seed must be an integer in [0, 18446744073709551616)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("validate", ["--horizon", "10"]),
            ("validate", ["--replications", "2"]),
            ("simulate", ["--replications", "2"]),
            ("compare", ["--horizon", "5"]),
            ("compare", ["--replications", "2"]),
        ],
    )
    def test_flag_the_command_does_not_read_exits_two(self, command, flag, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "form,label",
        [("flag", "a\nb"), ("flag", "a\x1b[2J"), ("flag", "a\u2028b"), ("file", "a\x1b[2J"), ("file", "a\x7fb")],
    )
    def test_control_character_in_label_exits_two(self, form, label, tmp_path, capsys):
        # a newline would start a bare line above the CSV header; an escape reaches the terminal
        cfg = tmp_path / "label.cfg"
        cfg.write_bytes(f"label = {label}\n".encode("utf-8"))
        extra = ["--label", label] if form == "flag" else ["--config", str(cfg)]
        out = tmp_path / "out"
        assert exit_code(["simulate", "--arrivals", "1,2", "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert "control characters" in err
        # a flag value is refused by argparse, with the usage line
        assert (f"arrivalab simulate: error: argument --label: " in err) == (form == "flag")
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "command,flags,error",
        [
            ("sweep-alpha", ["--alpha", "0.1234567", "--alpha", "0.1234568"],
             "alphas entries 0.1234567 and 0.1234568 both print as 0.123457"),
            ("sweep-alpha", ["--beta", "1.0000001", "--beta", "1.0000002"],
             "betas entries 1.0000001 and 1.0000002 both print as 1"),
            ("compare", ["--beta", "2", "--beta", "2.0000001"], "betas entries 2.0 and 2.0000001 both print as 2"),
            ("sweep-rate", ["--rate", "0.30000001", "--rate", "0.3"],
             "rates entries 0.3 and 0.30000001 both print as 0.3"),
        ],
    )
    def test_sweep_values_that_print_alike_exit_two_before_any_write(self, command, flags, error, tmp_path, capsys):
        # tables, columns and check names carry each value as :g, so one would overwrite the other
        out = tmp_path / "o"
        assert main([command, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}; their output names would collide\n"
        assert not out.exists()

    @pytest.mark.parametrize("x_max,x_step", [("1e300", "1e-300"), ("1e30", "1e-10"), ("1000.5", "0.001")])
    def test_oversized_curve_grid_exits_two_before_any_write(self, x_max, x_step, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["compare", "--x-max", x_max, "--x-step", x_step, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x_max / x_step must not exceed 1e+06 grid steps, got ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestFlagPlumbing:
    def test_verbose_reports_written_files(self, tmp_path, capsys):
        main(["compare", "--out", str(tmp_path), "--verbose"])
        err = capsys.readouterr().err
        assert "wrote" in err and "tail_comparison.csv" in err

    def test_exp_rate_flag_reaches_the_baseline(self, tmp_path):
        main(["compare", "--out", str(tmp_path), "--exp-rate", "2.0"])
        rows = [l for l in (tmp_path / "tail_comparison.csv").read_text().splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        first = rows[1].split(",")
        assert float(first[header.index("exp_pdf")]) == 2.0  # density at 0 equals the rate

    def test_simulate_rejects_multivalued_sweep_keys(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("alphas = 0.3,0.5\nfamily = pareto1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "single alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run,unread",
        [
            ("rate = 2\n", "alphas = 0.3,0.5\nbetas = 1,2\n"),
            ("family = lomax\nalpha = 0.7\nbeta = 2\n", "rates = 0.3,0.5\n"),
            ("arrivals = 1,2,3.5\n", "alphas = 0.3,0.5\nbetas = 1,2\nrates = 0.3,0.5\n"),
        ],
        ids=["exponential", "lomax", "fixture"],
    )
    def test_simulate_ignores_sweep_lists_its_run_does_not_read(self, run, unread, tmp_path):
        # simulate takes a single value only for the fields of the family's params
        # type, and a fixture has none, so the other lists may hold many values
        for name, text in (("plain", run), ("lists", run + unread)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert output_bytes(tmp_path / "lists") == output_bytes(tmp_path / "plain")


class TestSeedEcho:
    def test_every_output_carries_the_resolved_seed(self, tmp_path):
        main(["sweep-alpha", *fast_args(tmp_path / "a")])
        main(["simulate", "--arrivals", "1,2", "--out", str(tmp_path / "s")])
        main(["validate", "--out", str(tmp_path / "v")])
        outputs = [
            *(tmp_path / "a").glob("*.csv"), (tmp_path / "a") / "manifest.txt",
            *(tmp_path / "s").glob("*.csv"), (tmp_path / "s") / "manifest.txt",
            (tmp_path / "v") / "validation_report.txt",
        ]
        assert len(outputs) >= 9
        for path in outputs:
            assert "# seed=42" in path.read_text().splitlines(), path


class TestCsvFormat:
    def test_provenance_then_header_then_17_digit_rows(self, tmp_path):
        main(["compare", "--out", str(tmp_path)])
        lines = (tmp_path / "tail_comparison.csv").read_text().splitlines()
        assert lines[0].startswith("# generator=arrivalab ")
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at].split(",")[0] == "x"
        # 0.1 at 17 significant digits
        assert lines[header_at + 2].split(",")[0] == "0.10000000000000001"


def output_bytes(outdir):
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


class TestConfigResolution:
    """A config file and flags reach the same resolved config."""

    # (command, config file, the same values as flags); singular keys in the
    # file become one-element sweeps, as a repeated flag given once does
    CASES = {
        "sweep-alpha-singular": (
            "sweep-alpha",
            "alpha = 0.5\nbeta = 2\nnode_budget = 5\ncapacity = 3\nholding = lomax\nholding_rate = 0.5\n"
            "replications = 2\nhorizon = 20\nseed = 7\nx_max = 5\nx_step = 0.5\nexp_rate = 2\n",
            ["--alpha", "0.5", "--beta", "2", "--nodes", "5", "--capacity", "3", "--holding", "lomax",
             "--holding-rate", "0.5", "--replications", "2", "--horizon", "20", "--seed", "7",
             "--x-max", "5", "--x-step", "0.5", "--exp-rate", "2"],
        ),
        "sweep-alpha-plural": (
            "sweep-alpha",
            "alphas = 0.4,0.9\nbetas = 1,3\nreplications = 2\nhorizon = 10\n",
            ["--alpha", "0.4", "--alpha", "0.9", "--beta", "1", "--beta", "3", "--replications", "2",
             "--horizon", "10"],
        ),
        "sweep-rate-singular": (
            "sweep-rate",
            "rate = 0.4\nnode_budget = 6\ncapacity = 2\nholding = infinite\nreplications = 2\n"
            "horizon = 20\nseed = 3\n",
            ["--rate", "0.4", "--nodes", "6", "--capacity", "2", "--holding", "infinite",
             "--replications", "2", "--horizon", "20", "--seed", "3"],
        ),
        "sweep-rate-plural": (
            "sweep-rate",
            "rates = 0.3,0.6\nholding_rate = 0.2\nreplications = 2\nhorizon = 10\n",
            ["--rate", "0.3", "--rate", "0.6", "--holding-rate", "0.2", "--replications", "2",
             "--horizon", "10"],
        ),
        "compare": (
            "compare",
            "alphas = 0.5,1.5\nbetas = 1,2\nexp_rate = 2\nx_max = 5\nx_step = 0.25\nseed = 5\n",
            ["--alpha", "0.5", "--alpha", "1.5", "--beta", "1", "--beta", "2", "--exp-rate", "2",
             "--x-max", "5", "--x-step", "0.25", "--seed", "5"],
        ),
        "simulate-lomax": (
            "simulate",
            "family = lomax\nalpha = 0.7\nbeta = 2\ncapacity = 3\nholding = lomax\nholding_rate = 2\n"
            "horizon = 30\nlabel = probe\nseed = 9\n",
            ["--family", "lomax", "--alpha", "0.7", "--beta", "2", "--capacity", "3", "--holding", "lomax",
             "--holding-rate", "2", "--horizon", "30", "--label", "probe", "--seed", "9"],
        ),
        "simulate-unbounded": (
            "simulate",
            "rate = 2\ncapacity = unbounded\nholding = exponential\nhorizon = 15\n",
            ["--rate", "2", "--capacity", "unbounded", "--holding", "exponential", "--horizon", "15"],
        ),
        "simulate-pareto1-plural": (
            "simulate",
            "family = pareto1\nalphas = 0.6\ncapacity = none\n",
            ["--family", "pareto1", "--alpha", "0.6", "--capacity", "none"],
        ),
        "simulate-fixed": (
            "simulate",
            "arrivals = 1,2,3.5\ncapacity = 2\nholding = infinite\n",
            ["--arrivals", "1,2,3.5", "--capacity", "2", "--holding", "infinite"],
        ),
        "simulate-fixed-horizon": (
            "simulate",
            "arrivals = 1,2,3.5\nhorizon = 5\nholding_rate = 0.5\n",
            ["--arrivals", "1,2,3.5", "--horizon", "5", "--holding-rate", "0.5"],
        ),
        "validate": ("validate", "seed = 3\n", ["--seed", "3"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_file_and_flags_give_identical_outputs(self, name, tmp_path):
        command, text, flags = self.CASES[name]
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert main([command, *flags, "--out", str(tmp_path / "flags")]) == 0
        from_file = output_bytes(tmp_path / "file")
        assert len(from_file) >= 1
        assert from_file == output_bytes(tmp_path / "flags")

    def test_flags_win_over_singular_file_key(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("alpha = 0.7\nreplications = 2\nhorizon = 10\n")
        assert main(["sweep-alpha", "--config", str(cfg), "--alpha", "0.4", "--out", str(tmp_path)]) == 0
        assert provenance(tmp_path / "alpha_0.4.csv")["alphas"] == "0.4"

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-rate"])
    @pytest.mark.parametrize("value", ["unbounded", "none"])
    def test_sweeps_reject_unbounded_capacity_flag(self, command, value, tmp_path, capsys):
        assert main([command, *fast_args(tmp_path), "--capacity", value]) == 2
        assert "capacity" in capsys.readouterr().err
        assert not (tmp_path / "manifest.txt").exists()

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-rate"])
    def test_sweeps_reject_unbounded_capacity_file(self, command, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("capacity = unbounded\nreplications = 2\nhorizon = 10\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "capacity" in capsys.readouterr().err

    def test_simulate_bad_arrivals_flag_exits_two(self, tmp_path, capsys):
        assert exit_code(["simulate", "--arrivals", "1,x", "--out", str(tmp_path)]) == 2
        assert "error: argument --arrivals: could not convert string to float: 'x'" in capsys.readouterr().err

    def test_simulate_nan_arrival_exits_two_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--arrivals", "1,nan", "--horizon", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: arrival times must lie in (0, horizon]\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-rate", "compare", "simulate"])
    @pytest.mark.parametrize("single,plural", [("alpha", "alphas"), ("beta", "betas"), ("rate", "rates")])
    def test_file_setting_both_forms_is_an_error(self, command, single, plural, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"{single} = 0.7\n{plural} = 0.3,0.5\nreplications = 2\nhorizon = 10\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"'{single}'" in err and f"'{plural}'" in err

    def test_simulate_rejects_repeated_shape_flag(self, tmp_path, capsys):
        assert main(["simulate", "--family", "pareto1", "--alpha", "0.3", "--alpha", "0.5",
                     "--out", str(tmp_path)]) == 2
        assert "single alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep-alpha", "--horizon", "10", "--replications", "1"],
        ["sweep-rate", "--horizon", "10", "--replications", "1"],
        ["compare", "--x-max", "5"],
        ["simulate", "--horizon", "10"],
        ["validate"],
        # at seed 0 a shape-0.01 gap overflows to inf, which only ends its trace
        ["sweep-alpha", "--alpha", "0.01", "--horizon", "10", "--replications", "1", "--seed", "0"],
    ],
    ids=["sweep-alpha", "sweep-rate", "compare", "simulate", "validate", "sweep-alpha-tiny-shape"],
)
def test_command_writes_nothing_on_stderr(args, tmp_path):
    proc = run_cli([*args, "--out", str(tmp_path)])
    assert proc.returncode == 0 and proc.stderr == ""


class TestLocaleIndependence:
    """Outputs are UTF-8 with "\\n" line ends under any locale, so their bytes do not vary."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def run_simulate(self, out, locale_env, *extra):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
        env.update(locale_env, PYTHONPATH=str(self.SRC))
        args = [sys.executable, "-m", "arrivalab.cli", "simulate", "--arrivals", "1,2", "--out", str(out), *extra]
        proc = subprocess.run(args, env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        return (out / "manifest.txt").read_bytes()

    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_ascii_locale_writes_the_utf8_mode_bytes(self, form, tmp_path):
        cfg = tmp_path / "label.cfg"
        cfg.write_bytes("label = café\n".encode("utf-8"))
        extra = ["--label", "café"] if form == "flag" else ["--config", str(cfg)]
        ascii_c = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        manifest = self.run_simulate(tmp_path / "c", ascii_c, *extra)
        assert manifest == self.run_simulate(tmp_path / "utf8", {"PYTHONUTF8": "1"}, *extra)
        assert "# label=café\n".encode("utf-8") in (tmp_path / "c" / "trace.csv").read_bytes()


class TestCommandSurface:
    """Each subcommand's flags and the config keys, pinned as the CLI documents them."""

    COMMON = ["--config", "--help", "--out", "--seed", "--verbose", "-h"]
    RUN = ["--capacity", "--holding", "--holding-rate", "--horizon"]
    FLAGS = {
        "sweep-alpha": [*COMMON, *RUN, "--alpha", "--beta", "--exp-rate", "--nodes", "--replications",
                        "--x-max", "--x-step"],
        "sweep-rate": [*COMMON, *RUN, "--nodes", "--rate", "--replications"],
        "compare": [*COMMON, "--alpha", "--beta", "--exp-rate", "--x-max", "--x-step"],
        "simulate": [*COMMON, *RUN, "--alpha", "--arrivals", "--beta", "--family", "--label", "--rate"],
        "validate": COMMON,
    }

    @staticmethod
    def subparsers():
        parser = build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_each_subcommand_takes_exactly_its_flags(self):
        subparsers = self.subparsers()
        assert sorted(subparsers) == sorted(self.FLAGS)
        for command, flags in self.FLAGS.items():
            options = sorted(s for action in subparsers[command]._actions for s in action.option_strings)
            assert options == sorted(flags), command

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: arrivalab {command} ")

    def test_known_config_keys(self):
        assert KNOWN_CONFIG_KEYS == {
            "alpha", "alphas", "arrivals", "beta", "betas", "capacity", "exp_rate", "family", "holding",
            "holding_rate", "horizon", "label", "node_budget", "rate", "rates", "replications", "seed",
            "x_max", "x_step",
        }


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    return re.split(r"\n##+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


class TestReadme:
    @pytest.mark.parametrize("command", sorted(TestCommandSurface.FLAGS))
    def test_example_config_file_loads_and_runs(self, command, tmp_path):
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(readme_section("### Config files").split("```\n")[1], encoding="utf-8")
        values = load_config_file(cfg)
        # every key but the singular forms, each value free of the comments around it
        assert set(values) == KNOWN_CONFIG_KEYS - {"alpha", "beta", "rate"}
        assert values["alphas"] == (0.5,) and values["capacity"] == 20 and values["label"] == "probe"
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_flag_table_lists_each_flag_with_its_commands(self):
        documented, keys = {}, set()
        for line in readme_section("## Command line").splitlines():
            cells = [re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                keys.update(cells[0])
                if cells[1]:
                    documented[cells[1][0]] = sorted(cells[2])
        assert keys == KNOWN_CONFIG_KEYS
        taken = {}
        for command, flags in TestCommandSurface.FLAGS.items():
            for flag in set(flags) - set(TestCommandSurface.COMMON) | {"--seed"}:
                taken.setdefault(flag, []).append(command)
        assert documented == {flag: sorted(commands) for flag, commands in taken.items()}
