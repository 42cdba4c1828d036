"""Command-line surface: flat key=value configs, experiment subcommands,
CSV and snapshot emission.

Each subcommand returns its CSV table and the `diagnostics.Verdict`s of
the checks it ran.  `run` checks the output paths before any work, writes
the table once the checks are done, prints one line per verdict (value,
bound, margin, ok/VIOLATED) and is the only place that picks the exit code:
0 when every verdict holds, 1 when one is violated or the run blows up,
2 on a `ConfigError`, which each range check raises where it is made.
Any other exception is a bug and propagates with its traceback.  Same
config file and binary give byte-identical CSV output (17 significant digits).
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import diagnostics as dg
from .basis import Basis, ConfigError, SpectralField, build_basis, save_snapshot
# run_ensemble is not called here; the import stays because
# benchmarks/tracing.py patches that name on this module
from .integrator import BlowUpError, IntegratorConfig, StepKernel, integrate, run_ensemble
from .noise import AdmissibilityReport, NoiseSpec, make_noise
from .operators import PhysicalParams, helmholtz_factor

__all__ = ["SimConfig", "ConfigError", "parse_config", "run", "main"]


@dataclass
class SimConfig:
    """Typed view of a flat key=value config file.

    The seven core keys (nu, alpha, L, cutoff, epsilon, sigma, seed) are
    required; everything else has the documented default.
    """

    nu: float
    alpha: float
    L: float
    cutoff: int
    epsilon: float
    sigma: float
    seed: int
    scheme: str = IntegratorConfig.scheme
    dt: float = IntegratorConfig.dt
    t_end: float = IntegratorConfig.t_end
    record_every: int = IntegratorConfig.record_every
    nonlinearity: bool = IntegratorConfig.nonlinearity
    M: int = 200
    k: int = 1
    eps_exp: float = 0.0
    t: float = 0.25
    burn_in: float = 50.0
    T_long: float = 500.0
    delta_fd: float = 1e-5
    dts: str = "4e-3 2e-3 1e-3 5e-4"
    observable: str = "linear"
    obs_mode: int = 0
    h_mode: int = 0
    clip: float = 10.0
    x0: str = "zero"
    x0_list: str = "zero, iso 10"
    output_path: str = ""
    snapshot_out: str = ""

    # -- construction of the domain objects --------------------------------

    def basis(self) -> Basis:
        return build_basis(self.L, self.cutoff)

    def params(self) -> PhysicalParams:
        return PhysicalParams(nu=self.nu, alpha=self.alpha)

    def noise(self, basis: Basis) -> tuple[NoiseSpec, AdmissibilityReport]:
        return make_noise(self.epsilon, self.sigma, basis, seed=self.seed)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(**{f.name: getattr(self, f.name) for f in fields(IntegratorConfig)})

    def initial_state(self, basis: Basis, text: str | None = None) -> SpectralField:
        return _parse_x0(text if text is not None else self.x0, basis, self.alpha)

    def initial_states(self, basis: Basis) -> list[SpectralField]:
        starts = [
            self.initial_state(basis, tok.strip())
            for tok in self.x0_list.split(",")
            if tok.strip()
        ]
        if not starts:
            raise ConfigError(f"x0_list {self.x0_list!r} names no initial state")
        return starts

    def step_sizes(self) -> list[float]:
        return [_coerce(float, tok) for tok in self.dts.split()]

    def observable_spec(self) -> dg.Observable:
        return dg.Observable(self.observable, mode=self.obs_mode, clip=self.clip)


def _parse_x0(text: str, basis: Basis, alpha: float) -> SpectralField:
    parts = text.split()
    if parts == ["zero"]:
        return SpectralField.zeros(basis)
    if len(parts) == 3 and parts[0] == "mode":
        j, amp = _coerce(int, parts[1]), _coerce(float, parts[2])
        if not 0 <= j < basis.mode_count:
            raise ConfigError(f"x0 mode index {j} out of range 0..{basis.mode_count - 1}")
        return SpectralField.unit(basis, j, amp)
    if len(parts) == 2 and parts[0] == "iso":
        target = _coerce(float, parts[1])
        if target < 0:
            raise ConfigError(f"x0 energy target must be >= 0, got {target}")
        weight = helmholtz_factor(basis, alpha)
        c = np.full(basis.mode_count, 1.0 / np.sqrt(np.sum(weight)))
        return SpectralField(basis, c * np.sqrt(target))
    raise ConfigError(f"cannot parse x0 {text!r}; expected 'zero', 'mode J AMP' or 'iso F'")


_BOOL_WORDS = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}

# type -> (what a value must read as, parser raising KeyError or ValueError)
_PARSERS = {
    bool: ("on/off", lambda raw: _BOOL_WORDS[raw.lower()]),
    int: ("an integer", int),
    float: ("a number", float),
}


def _coerce(kind, raw: str):
    if kind not in _PARSERS:
        return raw
    what, parse = _PARSERS[kind]
    try:
        value = parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"expected {what}, got {raw!r}") from None
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


# each key's type: SimConfig's annotations are strings (future annotations),
# resolved here once rather than on every parse (about 0.3 ms a call)
_KEY_TYPES = typing.get_type_hints(SimConfig)


def parse_config(text: str) -> SimConfig:
    """Parse "key = value" lines with '#' comments into a SimConfig.

    Unknown keys, type mismatches and violated ranges raise ConfigError
    naming the offending line and key.
    """
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = _coerce(_KEY_TYPES[key], raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None

    missing = [f.name for f in fields(SimConfig) if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    cfg = SimConfig(**values)
    _validate_ranges(cfg)
    return cfg


def _validate_ranges(cfg: SimConfig) -> None:
    # the constructors check the physics, the noise and the scheme
    basis = cfg.basis()
    StepKernel(cfg.params(), cfg.integrator(), cfg.noise(basis)[0])
    if cfg.M < 2:
        raise ConfigError(f"M must be >= 2, got {cfg.M}")
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    if cfg.eps_exp < 0:
        raise ConfigError(f"eps_exp must be >= 0, got {cfg.eps_exp}")
    if not 0 <= cfg.obs_mode < basis.mode_count:
        raise ConfigError(f"obs_mode out of range 0..{basis.mode_count - 1}")
    if not 0 <= cfg.h_mode < basis.mode_count:
        raise ConfigError(f"h_mode out of range 0..{basis.mode_count - 1}")
    # the text keys, by the parsers the subcommands call
    for key, parse in (
        ("x0", lambda: cfg.initial_state(basis)),
        ("x0_list", lambda: cfg.initial_states(basis)),
        ("dts", cfg.step_sizes),
        ("observable", cfg.observable_spec),
    ):
        try:
            parse()
        except ConfigError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None


# -- CSV emission ------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: str, header: list[str], rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_output(path: str) -> None:
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        why = "it is a directory"
    elif not os.path.isdir(folder):
        why = f"'{folder}' is not a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        why = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write output '{path}': {why}")


# -- subcommand handlers -------------------------------------------------------
# Each handler returns its CSV table (header, rows) and its verdicts; `run` writes the table.


def _cmd_validate(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    trace_alpha = spec.trace_alpha(cfg.alpha)
    rows = [
        ("trace_Q", spec.trace_Q),
        ("trace_QAQ", spec.trace_QAQ),
        ("trace_alpha", trace_alpha),
        ("lambda_min", spec.basis.lambda_min()),
        ("mode_count", spec.basis.mode_count),
        ("hyp_trace_ok", report.hyp_trace_ok),
        ("hyp_inverse_ok", report.hyp_inverse_ok),
        ("trace_tail_estimate", report.trace_tail_estimate),
    ]
    print(f"trace_Q = {spec.trace_Q:.17g}")
    print(f"trace_QAQ = {spec.trace_QAQ:.17g}")
    print(f"trace_alpha = {trace_alpha:.17g}")
    for msg in report.messages:
        print(msg)
    return ["quantity", "value"], rows, []


def _cmd_simulate(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    paths = integrate(cfg.initial_state(spec.basis), cfg.params(), spec, cfg.integrator())
    rows = list(zip(paths.times, paths.F[0], paths.dissipation[0], paths.martingale[0]))
    if cfg.snapshot_out:
        save_snapshot(SpectralField(spec.basis, paths.final_coeffs[0]), cfg.snapshot_out)
        print(f"final snapshot written to {cfg.snapshot_out}")
    print(f"simulated {len(paths.times) - 1} records to t={paths.times[-1]:.6g}")
    return ["time", "F", "dissipation", "martingale_accumulator"], rows, []


def _cmd_mc_energy(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    p = cfg.params()
    x0 = cfg.initial_state(spec.basis)
    icfg = cfg.integrator()
    icfg_half = replace(icfg, dt=icfg.dt / 2)
    r1, r2 = dg.ito_balance_reports(p, spec, [icfg, icfg_half], x0, cfg.M)
    rows = [
        (icfg.dt, cfg.M, r1.details["t"], r1.estimate, r1.standard_error),
        (icfg_half.dt, cfg.M, r2.details["t"], r2.estimate, r2.standard_error),
    ]
    header = ["dt", "M", "t", "residual", "standard_error"]
    return header, rows, [dg.ito_balance_verdict(r1, r1, r2)]


def _series_table(report: dg.SeriesReport):
    rows = list(zip(report.times, report.series, report.series_standard_error, report.envelope))
    return ["time", "estimate", "standard_error", "envelope"], rows


def _cmd_mc_moments(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    mr = dg.moment_report(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(spec.basis), cfg.k, cfg.M
    )
    print(
        f"k={cfg.k}: sup-moment {mr.sup_estimate:.6g} (se {mr.sup_standard_error:.6g}), "
        f"fitted slope {mr.fit_slope:.6g}"
    )
    return (*_series_table(mr), [mr.verdict])


def _cmd_mc_expmoments(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    er = dg.exp_moment_report(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(spec.basis), cfg.eps_exp, cfg.M
    )
    print(
        f"eps_exp={cfg.eps_exp}: margin {er.admissibility_margin:.6g}, "
        f"weighted dissipation {er.weighted_dissipation_estimate:.6g} "
        f"(se {er.weighted_dissipation_standard_error:.6g})"
    )
    return (*_series_table(er), [er.verdict])


def _cmd_ou_test(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    icfg = cfg.integrator()
    if icfg.nonlinearity:
        print("note: ou-test runs with the nonlinearity suppressed")
        icfg = replace(icfg, nonlinearity=False)
    oracle, emp, rel = dg.ou_variance_comparison(cfg.params(), spec, icfg, cfg.burn_in)
    rows = list(zip(range(spec.basis.mode_count), oracle, emp, rel))
    header = ["mode", "oracle_variance", "empirical_variance", "rel_error"]
    return header, rows, [dg.ou_verdict(rel)]


def _cmd_convergence(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    res = dg.strong_convergence_study(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(spec.basis), cfg.step_sizes(), cfg.M
    )
    return ["dt", "strong_error"], list(zip(res.dts, res.errors)), [res.verdict]


def _cmd_variation(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    h = SpectralField.unit(spec.basis, cfg.h_mode)
    verdict, eta_norm = dg.first_variation_check(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(spec.basis), h, cfg.delta_fd
    )
    return ["delta", "rel_error", "eta_norm"], [(cfg.delta_fd, verdict.value, eta_norm)], [verdict]


def _cmd_be(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    x0 = cfg.initial_state(spec.basis)
    h = SpectralField.unit(spec.basis, cfg.h_mode)
    fd_delta = cfg.delta_fd if cfg.delta_fd > 0 else None
    est = dg.bismut_elworthy(
        cfg.observable_spec(), x0, h, cfg.t, cfg.M, cfg.params(), spec, cfg.integrator(),
        fd_delta=fd_delta,
    )
    row = (
        est.observable, est.time, est.value, est.standard_error,
        est.fd_reference, est.fd_standard_error, est.exact,
    )
    print(f"derivative estimate {est.value:.6g} (se {est.standard_error:.6g})")
    header = [
        "observable", "t", "value", "standard_error", "fd_reference", "fd_standard_error", "exact"
    ]
    return header, [row], est.verdicts()


def _cmd_invariant(cfg: SimConfig, spec: NoiseSpec, report: AdmissibilityReport):
    stats = dg.invariant_stats(
        cfg.params(),
        spec,
        cfg.integrator(),
        cfg.initial_states(spec.basis),
        cfg.T_long,
        cfg.burn_in,
        eps_exp=cfg.eps_exp if cfg.eps_exp > 0 else None,
    )
    rows = [
        (
            s.x0_energy, s.average_F, s.error_F, s.average_dissipation, s.error_dissipation,
            s.average_exp_weighted_dissipation, s.error_exp_weighted_dissipation, s.margin,
        )
        for s in stats
    ]
    for s in stats:
        print(
            f"x0_F={s.x0_energy:.6g}: avg_F={s.average_F:.6g} (err {s.error_F:.6g}), "
            f"avg_D={s.average_dissipation:.6g} (err {s.error_dissipation:.6g})"
        )
    if stats and stats[0].margin is not None:
        print(f"admissibility margin nu - eps*Tr_alpha/lambda_1 = {stats[0].margin:.6g}")
        gating = dg.exp_moment_margin(cfg.params(), spec, cfg.eps_exp)
        print(f"gating margin nu - 2*eps*Tr_alpha/lambda_1 = {gating:.6g}")
    header = [
        "x0_F", "avg_F", "err_F", "avg_dissipation", "err_dissipation",
        "avg_exp_weighted_dissipation", "err_exp_weighted_dissipation", "margin",
    ]
    return header, rows, dg.cross_start_verdicts(stats)


_HANDLERS: dict[str, Callable[..., tuple[list[str], list, list[dg.Verdict]]]] = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "mc-energy": _cmd_mc_energy,
    "mc-moments": _cmd_mc_moments,
    "mc-expmoments": _cmd_mc_expmoments,
    "ou-test": _cmd_ou_test,
    "convergence": _cmd_convergence,
    "variation": _cmd_variation,
    "be": _cmd_be,
    "invariant": _cmd_invariant,
}


def run(subcommand: str, config: SimConfig, out_path: str | None = None) -> int:
    """Check the output paths, run one subcommand, write its CSV and print its
    verdicts; returns 0 when every verdict holds, 1 when one fails or the run
    blows up, 2 on a ConfigError (no CSV then).  Any other exception propagates."""
    if subcommand not in _HANDLERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = out_path or config.output_path or f"{subcommand}.csv"
    try:
        _check_output(out)
        if subcommand == "simulate" and config.snapshot_out:
            _check_output(config.snapshot_out)
        spec, report = config.noise(config.basis())
        header, rows, verdicts = _HANDLERS[subcommand](config, spec, report)
    except BlowUpError as exc:
        print(f"blow-up detected: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_csv(out, header, rows)
    for v in verdicts:
        print(v)
    return 0 if all(v.ok for v in verdicts) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lans-alpha",
        description="simulate and verify the stochastic alpha-model on a periodic box",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to key=value config file")
        sp.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, config, args.out)


if __name__ == "__main__":
    sys.exit(main())
