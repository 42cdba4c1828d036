import numpy as np
import pytest

from lans_alpha import load_snapshot
from lans_alpha.cli import ConfigError, main, parse_config, run

HAPPY = """\
nu = 1.0
alpha = 0.5
L = 6.283185307179586
cutoff = 2
epsilon = 1.5
sigma = 0.5
seed = 42
"""


def happy(**extra):
    text = HAPPY + "".join(f"{k} = {v}\n" for k, v in extra.items())
    return parse_config(text)


class TestParseConfig:
    def test_happy_path_fills_defaults(self):
        cfg = parse_config(HAPPY)
        assert cfg.nu == 1.0 and cfg.cutoff == 2 and cfg.seed == 42
        assert cfg.dt == 1e-3
        assert cfg.record_every == 10
        assert cfg.scheme == "semi_implicit_em"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\n" + HAPPY + "dt = 0.01  # inline\n")
        assert cfg.dt == 0.01

    def test_negative_viscosity_rejected(self):
        with pytest.raises(ConfigError, match="nu"):
            parse_config(HAPPY.replace("nu = 1.0", "nu = -1"))

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match="line 8: unknown key 'bogus'"):
            parse_config(HAPPY + "bogus = 1\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="cutoff"):
            parse_config(HAPPY.replace("cutoff = 2", "cutoff = two"))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("nu = 1.0\n")

    def test_inadmissible_epsilon_is_accepted(self):
        # finite truncations still run; the verdict is a warning
        cfg = parse_config(HAPPY.replace("epsilon = 1.5", "epsilon = 0.5"))
        _, report = cfg.noise(cfg.basis())
        assert not report.hyp_trace_ok

    def test_stochastic_needs_viscosity(self):
        with pytest.raises(ConfigError, match="nu > 0"):
            parse_config(HAPPY.replace("nu = 1.0", "nu = 0.0"))

    def test_bool_parsing(self):
        assert happy(nonlinearity="off").nonlinearity is False
        assert happy(nonlinearity="true").nonlinearity is True
        with pytest.raises(ConfigError):
            happy(nonlinearity="maybe")

    def test_x0_grammar(self):
        cfg = happy(x0="mode 3 2.0")
        x = cfg.initial_state(cfg.basis())
        assert x.coeffs[3] == 2.0 and np.sum(x.coeffs != 0) == 1
        cfg = happy(x0="iso 10")
        x = cfg.initial_state(cfg.basis())
        F = np.sum((1 + 0.25 * cfg.basis().eigenvalues) * x.coeffs**2)
        assert F == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(ConfigError):
            happy(x0="banana").initial_state(cfg.basis())


class TestRun:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_validate_prints_traces(self, tmp_path, capsys):
        cfg = parse_config(HAPPY)
        out = str(tmp_path / "v.csv")
        assert run("validate", cfg, out) == 0
        text = capsys.readouterr().out
        assert "trace_Q" in text and "trace_alpha" in text
        header = (tmp_path / "v.csv").read_text().splitlines()[0]
        assert header == "quantity,value"

    def test_validate_warns_on_small_epsilon(self, tmp_path, capsys):
        cfg = parse_config(HAPPY.replace("epsilon = 1.5", "epsilon = 0.5"))
        assert run("validate", cfg, str(tmp_path / "v.csv")) == 0
        assert "grows without bound" in capsys.readouterr().out

    def test_simulate_writes_csv_and_snapshot(self, tmp_path):
        snap = tmp_path / "final.snap"
        cfg = happy(cutoff=1, t_end=0.1, snapshot_out=str(snap), x0="iso 1.0")
        out = tmp_path / "sim.csv"
        assert run("simulate", cfg, str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,F,dissipation,martingale_accumulator"
        assert len(lines) > 2
        restored = load_snapshot(str(snap))
        assert restored.basis.cutoff == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.1, M=20)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for sub in ("simulate", "mc-energy"):
            assert run(sub, cfg, str(a)) == 0
            assert run(sub, cfg, str(b)) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_ou_test_exit_codes(self, tmp_path):
        cfg = parse_config(
            "nu = 2.0\nalpha = 0.5\nL = 1.0\ncutoff = 1\nepsilon = 1.5\n"
            "sigma = 0.5\nseed = 42\nscheme = exponential_em\ndt = 0.005\n"
            "t_end = 200.0\nrecord_every = 2\nnonlinearity = off\nburn_in = 50.0\n"
        )
        out = tmp_path / "ou.csv"
        assert run("ou-test", cfg, str(out)) == 0
        header = out.read_text().splitlines()[0]
        assert header == "mode,oracle_variance,empirical_variance,rel_error"

    def test_violated_verdict_exits_1(self, tmp_path, capsys):
        # the criterion-10 config leaves the OU variances far from stationary
        cfg = happy(cutoff=1, t_end=0.1, M=20, x0="iso 1.0", burn_in=0.0)
        assert run("ou-test", cfg, str(tmp_path / "ou.csv")) == 1
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("OU max rel variance error 0.99") and "(margin -0.9" in line
        assert line.endswith("VIOLATED")

    def test_convergence_exit(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.5, M=20, x0="iso 1.0")
        assert run("convergence", cfg, str(tmp_path / "c.csv")) == 0

    @pytest.mark.parametrize("dts", ["2e-3", "", "2e-3 1e-3", "2e-3 1e-3 1e-3", "2e-3 1e-3 0"])
    def test_convergence_needs_three_distinct_dts(self, tmp_path, capsys, dts):
        cfg = happy(cutoff=1, t_end=0.5, M=20, x0="iso 1.0", dts=dts)
        assert run("convergence", cfg, str(tmp_path / "c.csv")) == 2
        assert "3 distinct positive step sizes" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_variation_exit(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.1, x0="iso 1.0")
        assert run("variation", cfg, str(tmp_path / "v.csv")) == 0

    def test_variation_zero_offset_is_config_error(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.1, x0="iso 1.0", delta_fd=0)
        assert run("variation", cfg, str(tmp_path / "v.csv")) == 2
        assert not (tmp_path / "v.csv").exists()

    def test_be_exit(self, tmp_path):
        cfg = happy(
            cutoff=1, sigma=2.0, nonlinearity="off", M=2000, t=0.25,
            observable="linear", obs_mode=0, h_mode=0, delta_fd=1e-3, x0="iso 0.5",
        )
        out = tmp_path / "be.csv"
        assert run("be", cfg, str(out)) == 0
        assert out.read_text().splitlines()[0].startswith("observable,t,value")

    def test_inadmissible_eps_exp_is_config_error(self, tmp_path):
        cfg = happy(cutoff=1, eps_exp=5.0, M=10, t_end=0.1)
        assert run("mc-expmoments", cfg, str(tmp_path / "e.csv")) == 2

    def test_mc_moments_exit(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.5, M=50, k=1, record_every=25, x0="iso 0.5")
        assert run("mc-moments", cfg, str(tmp_path / "m.csv")) == 0

    def test_invariant_exit(self, tmp_path):
        cfg = happy(
            cutoff=1, dt=2e-3, record_every=5, T_long=60.0, burn_in=10.0,
            eps_exp=0.2, x0_list="zero, iso 5",
        )
        out = tmp_path / "i.csv"
        assert run("invariant", cfg, str(out)) == 0
        assert out.read_text().splitlines()[0].startswith("x0_F,avg_F")

    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            run("fly", parse_config(HAPPY), None)


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text(HAPPY)
        out = tmp_path / "out.csv"
        assert main(["validate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nu = -3\n")
        assert main(["validate", "--config", str(bad)]) == 2
