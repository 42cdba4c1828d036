import math

import numpy as np
import pytest

from lans_alpha import (
    IntegratorConfig,
    PhysicalParams,
    SpectralField,
    StepKernel,
    build_basis,
    integrate,
    load_snapshot,
    make_noise,
)
from lans_alpha import cli
from lans_alpha import diagnostics as dg
from lans_alpha.operators import helmholtz_factor
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


# the configuration of acceptance criterion 10
CRITERION_10 = HAPPY.replace("cutoff = 2", "cutoff = 1") + "t_end = 0.1\nM = 20\nx0 = iso 1.0\n"


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

    def test_later_line_overrides_earlier(self):
        # configs are built by appending overrides to a base text
        cfg = parse_config(HAPPY + "nu = 2.0\ndt = 0.01\ndt = 0.02\n")
        assert cfg.nu == 2.0 and cfg.dt == 0.02
        assert parse_config(HAPPY + "nu = -1\nnu = 3.0\n").nu == 3.0

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
        # 17 significant digits give the final state back bit for bit
        spec, _ = cfg.noise(cfg.basis())
        paths = integrate(
            cfg.initial_state(spec.basis), cfg.params(), spec, cfg.integrator(), store_fields=True
        )
        assert np.array_equal(restored.coeffs, paths.snapshots[0, -1])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.1, M=20, eps_exp=0.1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for sub in ("simulate", "mc-energy"):
            assert run(sub, cfg, str(a)) == 0
            assert run(sub, cfg, str(b)) == 0
            assert a.read_bytes() == b.read_bytes()
        # from the zero start the affine envelope may be violated (exit 1)
        for sub in ("mc-moments", "mc-expmoments"):
            code = run(sub, cfg, str(a))
            assert code in (0, 1)
            assert run(sub, cfg, str(b)) == code
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

    def test_be_negative_offset_runs_the_reference(self, tmp_path):
        # only 0 disables the finite-difference reference; -delta runs the
        # same pair of starts in the other order, so the CSV is the same
        csvs = []
        for delta in ("1e-3", "-1e-3"):
            cfg = happy(
                cutoff=1, sigma=2.0, M=200, t=0.05, observable="linear", obs_mode=0,
                h_mode=0, delta_fd=delta, x0="iso 0.5",
            )
            out = tmp_path / f"be{delta}.csv"
            run("be", cfg, str(out))
            csvs.append(out.read_bytes())
        header, row = csvs[0].decode().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["fd_reference"] != ""
        assert csvs[1] == csvs[0]

    def test_inadmissible_eps_exp_is_config_error(self, tmp_path):
        cfg = happy(cutoff=1, eps_exp=5.0, M=10, t_end=0.1)
        assert run("mc-expmoments", cfg, str(tmp_path / "e.csv")) == 2

    def test_mc_moments_exit(self, tmp_path):
        cfg = happy(cutoff=1, t_end=0.5, M=50, k=1, record_every=25, x0="iso 0.5")
        assert run("mc-moments", cfg, str(tmp_path / "m.csv")) == 0

    def test_invariant_exit(self, tmp_path, capsys):
        cfg = happy(
            cutoff=1, dt=2e-3, record_every=5, T_long=60.0, burn_in=10.0,
            eps_exp=0.2, x0_list="zero, iso 5",
        )
        out = tmp_path / "i.csv"
        assert run("invariant", cfg, str(out)) == 0
        assert out.read_text().splitlines()[0].startswith("x0_F,avg_F")
        # the CSV's margin nu - eps Tr_alpha / lambda_1, then the margin of the
        # condition that admits eps_exp, nu - 2 eps Tr_alpha / lambda_1
        spec, _ = cfg.noise(cfg.basis())
        trace, lam1 = spec.trace_alpha(cfg.alpha), spec.basis.lambda_min()
        gating = dg.exp_moment_margin(cfg.params(), spec, 0.2)
        assert gating == cfg.nu - 2 * 0.2 * trace / lam1
        lines = capsys.readouterr().out.splitlines()
        shown = lines.index(
            f"admissibility margin nu - eps*Tr_alpha/lambda_1 = {cfg.nu - 0.2 * trace / lam1:.6g}"
        )
        assert lines[shown + 1] == f"gating margin nu - 2*eps*Tr_alpha/lambda_1 = {gating:.6g}"

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


# (subcommand, config lines overriding CRITERION_10 at t_end = 0.05 and M = 4,
#  text the error must contain)
BAD_CONFIGS = [
    ("validate", "nu = -1", "nu"),
    ("validate", "sigma = -1", "sigma"),
    ("validate", "nu = 0", "nu > 0"),
    ("validate", "scheme = rk4_deterministic", "sigma = 0"),
    ("validate", "M = 1", "M"),
    ("validate", "k = 0", "k"),
    ("validate", "eps_exp = -1", "eps_exp"),
    ("validate", "obs_mode = 99", "obs_mode"),
    ("validate", "dt = 0", "dt"),
    ("validate", "cutoff = 0", "cutoff"),
    # finite values whose derived quantities overflow
    ("validate", "L = 1e-300", "box size L=1e-300"),
    ("validate", "alpha = 1e200", "alpha=1e+200"),
    ("validate", "sigma = 1e200", "sigma=1e+200"),
    ("validate", "epsilon = -1e5", "epsilon=-100000.0"),
    ("validate", "sigma = 1e100\nalpha = 1e60", "sigma=1e+100, alpha=1e+60"),
    ("validate", "L = 100\nepsilon = 150\nsigma = 1e-300", "L=100.0, epsilon=150.0"),
    # the text keys, parsed where the config is
    ("validate", "x0 = iso nan", "key 'x0': expected a finite number, got 'nan'"),
    ("validate", "dts = nan 1e-3 2e-3", "key 'dts': expected a finite number, got 'nan'"),
    ("validate", "x0_list = zero, banana", "key 'x0_list': cannot parse x0 'banana'"),
    ("validate", "observable = bogus", "key 'observable': unknown observable kind 'bogus'"),
    ("simulate", "dt = 1e-300", "dt=1e-300"),
    ("simulate", "x0 = mode abc 1", "an integer, got 'abc'"),
    ("simulate", "x0 = iso abc", "a number, got 'abc'"),
    ("simulate", "x0 = mode 99 1", "mode index 99"),
    ("simulate", "x0 = banana", "banana"),
    ("simulate", "x0 = iso nan", "a finite number, got 'nan'"),
    ("simulate", "t_end = nan", "a finite number, got 'nan'"),
    ("simulate", "sigma = nan", "a finite number, got 'nan'"),
    ("simulate", "nu = 1e999", "a finite number, got '1e999'"),
    ("simulate", "seed = -1", "seed must be >= 0"),
    ("convergence", "dts = abc", "a number, got 'abc'"),
    ("convergence", "dts = 2e-3", "3 distinct"),
    ("convergence", "dts = 3e-3 2e-3 1e-3", "dt=0.003"),
    ("convergence", "scheme = exponential_em", "semi_implicit_em"),
    ("convergence", "t_end = 0", "t_end=0.0"),
    ("mc-expmoments", "eps_exp = 5", "inadmissible eps_exp"),
    ("mc-moments", "t_end = 0", "t_end=0.0"),
    ("mc-expmoments", "t_end = 0", "t_end=0.0"),
    ("ou-test", "burn_in = 1", "burn_in"),
    ("ou-test", "t_end = 0.1\nburn_in = 0.095", "leaves 1 recorded sample"),
    ("invariant", "T_long = 1\nburn_in = 2", "burn_in"),
    ("invariant", "T_long = 0.05\nburn_in = 0", "batch means"),
    ("invariant", "x0_list = ,", "x0_list"),
    ("invariant", "x0_list = zero, mode abc 1", "an integer, got 'abc'"),
    ("variation", "delta_fd = 0", "offset"),
    # eta(T) = e^{-nu lambda T} h underflows to 0 by the horizon
    ("variation", "scheme = exponential_em\nnu = 20000", "at the horizon t_end=0.05"),
    ("be", "t = 1e-4", "t_end=0.0001"),
    ("be", "t = 0", "derivative time"),
    ("be", "sigma = 0", "sigma > 0"),
    ("be", "observable = energy_clipped\nclip = 0", "clip > 0"),
    ("be", "observable = bogus", "bogus"),
]


# a numpy warning would reach stderr ahead of the message
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sub, lines, message", BAD_CONFIGS)
def test_bad_config_exits_2(tmp_path, capsys, sub, lines, message):
    path = tmp_path / "bad.cfg"
    path.write_text(CRITERION_10 + f"t_end = 0.05\nM = 4\n{lines}\n")
    out = tmp_path / "out.csv"
    assert main([sub, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_non_integer_threads_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LANS_THREADS", "abc")
    cfg = parse_config(CRITERION_10 + "t_end = 0.05\nM = 4\n")
    assert run("mc-energy", cfg, str(tmp_path / "e.csv")) == 2
    assert "config error: LANS_THREADS must be an integer, got 'abc'" in capsys.readouterr().err


def test_internal_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(dg, "moment_report", broken)
    with pytest.raises(ValueError, match="boom"):
        run("mc-moments", parse_config(CRITERION_10), str(tmp_path / "m.csv"))


def _never(*args, **kwargs):
    raise AssertionError("the checks ran")


def _unwritable(tmp_path, kind):
    """An output path under tmp_path that cannot be written, and why."""
    if kind == "missing directory":
        return tmp_path / "missing" / "out.csv", f"'{tmp_path / 'missing'}' is not a directory"
    return tmp_path, "it is a directory"


# not from permission bits: as root every file is writable
@pytest.mark.parametrize("kind", ["missing directory", "directory"])
@pytest.mark.parametrize("sub", ["validate", "convergence"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, sub, kind):
    monkeypatch.setattr(dg, "strong_convergence_study", _never)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CRITERION_10)
    out, why = _unwritable(tmp_path, kind)
    assert main([sub, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot write output '{out}': {why}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_unwritable_snapshot_exits_2_before_any_work(tmp_path, capsys):
    snap, why = _unwritable(tmp_path, "missing directory")
    cfg = parse_config(CRITERION_10 + f"snapshot_out = {snap}\n")
    assert run("simulate", cfg, str(tmp_path / "sim.csv")) == 2
    assert capsys.readouterr().err == f"config error: cannot write output '{snap}': {why}\n"
    assert list(tmp_path.iterdir()) == []


# what each subcommand needs besides t_end = 0.05 to run to its checks
_SHORT_RUN = {
    "ou-test": "burn_in = 0",
    "convergence": "dts = 1e-2 5e-3 2.5e-3",
    "invariant": "T_long = 0.2\nburn_in = 0",
}


@pytest.mark.parametrize("sub", list(cli._HANDLERS))
def test_run_writes_the_csv_once(tmp_path, monkeypatch, sub):
    calls = []
    monkeypatch.setattr(cli, "write_csv", lambda *args: calls.append(args))
    out = str(tmp_path / "out.csv")
    extra = _SHORT_RUN.get(sub, "")
    cfg = parse_config(CRITERION_10 + f"t_end = 0.05\nM = 4\noutput_path = {out}\n{extra}\n")
    assert run(sub, cfg) in (0, 1)
    assert [args[0] for args in calls] == [out]


# the physics, step and start (all eight coefficients 1e6) of
# TestIntegrate::test_blow_up_reported_with_time in test_integrator.py
BLOW_UP = (
    "nu = 1e-6\nalpha = 0\nL = 6.283185307179586\ncutoff = 1\nepsilon = 1.5\nsigma = 0\n"
    "seed = 42\ndt = 5\nt_end = 500\nx0 = iso 8e12\n"
)


@pytest.mark.parametrize(
    "sub, text, code",
    [
        ("convergence", CRITERION_10 + "t_end = 0.05\nM = 4\ndts = 2e-3\n", 2),
        ("mc-expmoments", CRITERION_10 + "t_end = 0.05\nM = 4\neps_exp = 5\n", 2),
        ("simulate", BLOW_UP, 1),
    ],
)
def test_run_writes_no_csv_on_exit_2_or_blow_up(tmp_path, capsys, monkeypatch, sub, text, code):
    calls = []
    monkeypatch.setattr(cli, "write_csv", lambda *args: calls.append(args))
    assert run(sub, parse_config(text), str(tmp_path / "out.csv")) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "blow-up detected: ")
    assert calls == []


def test_blow_up_line_prints_the_last_finite_energy(tmp_path, capsys):
    # the energy is that of the step before the first bad one, which a run
    # stopped there records last
    cfg = parse_config(BLOW_UP)
    assert run("simulate", cfg, str(tmp_path / "out.csv")) == 1
    line = capsys.readouterr().err
    where = "blow-up detected: non-finite energy at t=125 (member 0)"
    spec = cfg.noise(cfg.basis())[0]
    before = IntegratorConfig(dt=5.0, t_end=120.0, record_every=1)
    F = integrate(cfg.initial_state(spec.basis), cfg.params(), spec, before).F[0]
    assert np.isfinite(F).all()
    assert line == f"{where}, last finite energy {F[-1]:.6g}\n"


def test_be_checks_the_observable_mode_before_running(monkeypatch):
    monkeypatch.setattr(dg, "_paths", _never)
    monkeypatch.setattr(dg, "run_ensemble", _never)
    with pytest.raises(ConfigError, match="observable mode 99 >= mode count 8"):
        dg.bismut_elworthy(dg.Observable("linear", mode=99), _X, _X, 0.1, 2, _P, _SPEC, _CFG)


def test_moment_envelope_margin_is_taken_after_t0():
    # F(0) lies on the envelope, so a margin from t = 0 would be about 1e-12
    cfg = parse_config(CRITERION_10)
    spec, _ = cfg.noise(cfg.basis())
    mr = dg.moment_report(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(spec.basis), cfg.k, cfg.M
    )
    assert mr.verdict.ok and mr.verdict.margin > 1e-6


_B = build_basis(2 * np.pi, 1)
_P = PhysicalParams(nu=1.0, alpha=0.5)
_SPEC = make_noise(1.5, 0.5, _B)[0]
_QUIET = make_noise(1.5, 0.0, _B)[0]
_CFG = IntegratorConfig(dt=1e-3, t_end=0.1)
_STILL = IntegratorConfig(dt=1e-3, t_end=0.0)
_X = SpectralField.zeros(_B)
_LINEAR = dg.Observable("linear", mode=0)


def _converge(dts, cfg=_CFG, spec=_SPEC):
    return dg.strong_convergence_study(_P, spec, cfg, _X, dts, 2)


# each precondition a config key sets, called the way the library is called
PRECONDITIONS = {
    "Basis L": lambda: build_basis(0.0, 1),
    "Basis cutoff": lambda: build_basis(1.0, 0),
    "Basis eigenvalues": lambda: build_basis(1e-300, 1),
    "nu": lambda: PhysicalParams(nu=-1.0, alpha=0.5),
    "alpha": lambda: PhysicalParams(nu=1.0, alpha=-1.0),
    "sigma": lambda: make_noise(1.5, -1.0, _B),
    "sigma overflow": lambda: make_noise(1.5, 1e200, _B),
    "epsilon overflow": lambda: make_noise(-1e5, 0.5, _B),
    "tail overflow": lambda: make_noise(150.0, 1e-300, build_basis(100.0, 1)),
    # a prefactor of inf times N^(2 - 2 eps) = 0
    "tail nan": lambda: make_noise(600.0, 1e-200, build_basis(2 * np.pi * np.e, 2)),
    "Helmholtz factor": lambda: helmholtz_factor(_B, 1e200),
    "dissipation weight": lambda: StepKernel(PhysicalParams(1.0, 8e153), _CFG, _QUIET),
    "seed": lambda: make_noise(1.5, 0.5, _B, seed=-1),
    "scheme": lambda: IntegratorConfig(scheme="euler"),
    "dt": lambda: IntegratorConfig(dt=0.0),
    "t_end": lambda: IntegratorConfig(t_end=-1.0),
    "dt > t_end": lambda: IntegratorConfig(dt=2.0, t_end=1.0),
    "record_every": lambda: IntegratorConfig(record_every=0),
    "step count": lambda: IntegratorConfig(dt=1e-300),
    "rk4 noise": lambda: StepKernel(_P, IntegratorConfig(scheme="rk4_deterministic"), _SPEC),
    "noise nu": lambda: StepKernel(PhysicalParams(0.0, 0.5), _CFG, _SPEC),
    "trace alpha": lambda: StepKernel(
        PhysicalParams(1.0, 1e60), _CFG, make_noise(1.5, 1e100, _B)[0]
    ),
    "ito M": lambda: dg.ito_balance_report(_P, _SPEC, _CFG, _X, 1),
    "moment k": lambda: dg.moment_report(_P, _SPEC, _CFG, _X, 0, 2),
    "moment M": lambda: dg.moment_report(_P, _SPEC, _CFG, _X, 1, 1),
    "moment steps": lambda: dg.moment_report(_P, _SPEC, _STILL, _X, 1, 2),
    "exp sign": lambda: dg.exp_moment_report(_P, _SPEC, _CFG, _X, -1.0, 2),
    "exp admissible": lambda: dg.exp_moment_report(_P, _SPEC, _CFG, _X, 5.0, 2),
    "exp M": lambda: dg.exp_moment_report(_P, _SPEC, _CFG, _X, 0.0, 1),
    "exp steps": lambda: dg.exp_moment_report(_P, _SPEC, _STILL, _X, 0.0, 2),
    "ou nu": lambda: dg.ou_stationary_oracle(_SPEC, PhysicalParams(0.0, 0.5)),
    "ou burn_in": lambda: dg.ou_variance_comparison(_P, _SPEC, _CFG, 1.0),
    "invariant burn_in": lambda: dg.invariant_stats(_P, _SPEC, _CFG, [_X], 1.0, 2.0),
    "observable kind": lambda: dg.Observable("bogus"),
    "observable mode": lambda: dg.Observable("linear"),
    "observable negative mode": lambda: dg.Observable("linear", mode=-1),
    "observable clip": lambda: dg.Observable("energy_clipped", clip=0.0),
    "be t": lambda: dg.bismut_elworthy(_LINEAR, _X, _X, 0.0, 2, _P, _SPEC, _CFG),
    "be sigma": lambda: dg.bismut_elworthy(_LINEAR, _X, _X, 0.1, 2, _P, _QUIET, _CFG),
    "be M": lambda: dg.bismut_elworthy(_LINEAR, _X, _X, 0.1, 1, _P, _SPEC, _CFG),
    "be mode": lambda: dg.bismut_elworthy(
        dg.Observable("linear", mode=8), _X, _X, 0.1, 2, _P, _SPEC, _CFG
    ),
    "batch means": lambda: dg.batch_means(np.ones(5)),
    "dts count": lambda: _converge([2e-3, 1e-3]),
    "dts scheme": lambda: _converge([4e-3, 2e-3, 1e-3], IntegratorConfig(scheme="exponential_em")),
    "dts sigma": lambda: _converge([4e-3, 2e-3, 1e-3], spec=_QUIET),
    "dts multiple": lambda: _converge([2.5e-3, 2e-3, 1e-3]),
    "dts finest": lambda: _converge([4e-3, 2e-3, 1e-3], IntegratorConfig(t_end=0.1005)),
    "dts final time": lambda: _converge([3e-3, 2e-3, 1e-3]),
    "variation delta": lambda: dg.first_variation_check(_P, _SPEC, _CFG, _X, _X, math.nan),
}


@pytest.mark.parametrize("call", PRECONDITIONS.values(), ids=PRECONDITIONS.keys())
def test_library_preconditions_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


# a start or direction on another box than the noise spec's: a caller's bug
_OFF = SpectralField.unit(build_basis(1.0, 1), 0, 0.3)
_H = SpectralField.unit(_B, 0)
_DTS = [4e-3, 2e-3, 1e-3]

# each entry that takes a field, handed one on the wrong basis
FIELD_ON_ANOTHER_BASIS = {
    "integrate": lambda: integrate(_OFF, _P, _SPEC, _CFG),
    "ito": lambda: dg.ito_balance_report(_P, _SPEC, _CFG, _OFF, 2),
    "moment": lambda: dg.moment_report(_P, _SPEC, _CFG, _OFF, 1, 2),
    "exp moment": lambda: dg.exp_moment_report(_P, _SPEC, _CFG, _OFF, 0.0, 2),
    "convergence": lambda: dg.strong_convergence_study(_P, _SPEC, _CFG, _OFF, _DTS, 2),
    "invariant": lambda: dg.invariant_stats(_P, _SPEC, _CFG, [_X, _OFF], 2.0, 1.0),
    "be x": lambda: dg.bismut_elworthy(_LINEAR, _OFF, _H, 0.1, 2, _P, _SPEC, _CFG),
    "be h": lambda: dg.bismut_elworthy(_LINEAR, _X, _OFF, 0.1, 2, _P, _SPEC, _CFG),
    "variation x0": lambda: dg.first_variation_check(_P, _SPEC, _CFG, _OFF, _H, 1e-5),
    "variation h": lambda: dg.first_variation_check(_P, _SPEC, _CFG, _X, _OFF, 1e-5),
}


@pytest.mark.parametrize("call", FIELD_ON_ANOTHER_BASIS.values(), ids=FIELD_ON_ANOTHER_BASIS.keys())
def test_fields_must_share_the_noise_basis(call):
    with pytest.raises(ValueError, match="basis") as caught:
        call()
    assert not isinstance(caught.value, ConfigError)
