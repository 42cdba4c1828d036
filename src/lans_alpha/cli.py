"""Command-line surface: flat key=value configs, experiment subcommands,
CSV and snapshot emission.

Exit codes: 0 success, 1 assertion failure (a checked invariant was
violated), 2 configuration error.  Same config file and binary give
byte-identical CSV output; floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import diagnostics as dg
from .basis import Basis, SpectralField, build_basis, save_snapshot
from .integrator import BlowUpError, IntegratorConfig, integrate, run_ensemble
from .noise import AdmissibilityReport, NoiseSpec, make_noise
from .operators import PhysicalParams

__all__ = ["SimConfig", "ConfigError", "parse_config", "run", "main"]

SUBCOMMANDS = (
    "validate",
    "simulate",
    "mc-energy",
    "mc-moments",
    "mc-expmoments",
    "ou-test",
    "convergence",
    "variation",
    "be",
    "invariant",
)

CONVERGENCE_ORDER_RANGE = (0.7, 1.3)
OU_REL_TOL = 0.05
VARIATION_REL_TOL = 1e-4


class ConfigError(ValueError):
    pass


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
    scheme: str = "semi_implicit_em"
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 10
    nonlinearity: bool = True
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
        return PhysicalParams(nu=self.nu, alpha=self.alpha, L=self.L)

    def noise(self, basis: Basis) -> tuple[NoiseSpec, AdmissibilityReport]:
        return make_noise(self.epsilon, self.sigma, basis, alpha=self.alpha, seed=self.seed)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            scheme=self.scheme,
            dt=self.dt,
            t_end=self.t_end,
            record_every=self.record_every,
            nonlinearity=self.nonlinearity,
        )

    def initial_state(self, basis: Basis, text: str | None = None) -> SpectralField:
        return _parse_x0(text if text is not None else self.x0, basis, self.alpha)

    def initial_states(self, basis: Basis) -> list[SpectralField]:
        return [
            self.initial_state(basis, tok.strip())
            for tok in self.x0_list.split(",")
            if tok.strip()
        ]

    def observable_spec(self) -> dg.Observable:
        if self.observable == "linear":
            return dg.Observable("linear", mode=self.obs_mode)
        if self.observable == "energy":
            return dg.Observable("energy")
        if self.observable == "energy_clipped":
            return dg.Observable("energy_clipped", clip=self.clip)
        raise ConfigError(f"unknown observable {self.observable!r}")


def _parse_x0(text: str, basis: Basis, alpha: float) -> SpectralField:
    parts = text.split()
    if parts == ["zero"]:
        return SpectralField.zeros(basis)
    if len(parts) == 3 and parts[0] == "mode":
        j, amp = int(parts[1]), float(parts[2])
        if not 0 <= j < basis.mode_count:
            raise ConfigError(f"x0 mode index {j} out of range 0..{basis.mode_count - 1}")
        return SpectralField.unit(basis, j, amp)
    if len(parts) == 2 and parts[0] == "iso":
        target = float(parts[1])
        if target < 0:
            raise ConfigError(f"x0 energy target must be >= 0, got {target}")
        weight = 1.0 + alpha**2 * basis.eigenvalues
        c = np.full(basis.mode_count, 1.0 / np.sqrt(np.sum(weight)))
        return SpectralField(basis, c * np.sqrt(target))
    raise ConfigError(f"cannot parse x0 {text!r}; expected 'zero', 'mode J AMP' or 'iso F'")


_BOOL_WORDS = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _coerce(name: str, kind, raw: str):
    if kind is bool:
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ValueError(f"expected on/off, got {raw!r}") from None
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got {raw!r}") from None
    return raw


def parse_config(text: str) -> SimConfig:
    """Parse "key = value" lines with '#' comments into a SimConfig.

    Unknown keys, type mismatches and violated ranges raise ConfigError
    naming the offending line and key.
    """
    spec_fields = {f.name: f.type for f in fields(SimConfig)}
    # dataclass stores annotations as strings under future annotations
    type_map = {"float": float, "int": int, "str": str, "bool": bool}
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in spec_fields:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        kind = spec_fields[key]
        kind = type_map.get(kind, kind) if isinstance(kind, str) else kind
        try:
            values[key] = _coerce(key, kind, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key '{key}': {exc}") from None

    missing = [
        name
        for name in ("nu", "alpha", "L", "cutoff", "epsilon", "sigma", "seed")
        if name not in values
    ]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    cfg = SimConfig(**values)
    _validate_ranges(cfg)
    return cfg


def _validate_ranges(cfg: SimConfig) -> None:
    try:
        cfg.params()
        cfg.integrator()
        basis = cfg.basis()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {cfg.sigma}")
    if cfg.sigma > 0 and cfg.nu <= 0:
        raise ConfigError("stochastic runs (sigma > 0) require nu > 0")
    if cfg.scheme == "rk4_deterministic" and cfg.sigma > 0:
        raise ConfigError("rk4_deterministic requires sigma = 0")
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


# -- CSV emission ------------------------------------------------------------


def _cell(value) -> str:
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


# -- subcommand handlers -------------------------------------------------------


def _cmd_validate(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, report = cfg.noise(basis)
    trace_alpha = spec.trace_alpha(cfg.alpha)
    rows = [
        ("trace_Q", spec.trace_Q),
        ("trace_QAQ", spec.trace_QAQ),
        ("trace_alpha", trace_alpha),
        ("lambda_min", basis.lambda_min()),
        ("mode_count", basis.mode_count),
        ("hyp_trace_ok", report.hyp_trace_ok),
        ("hyp_inverse_ok", report.hyp_inverse_ok),
        ("trace_tail_estimate", report.trace_tail_estimate),
    ]
    write_csv(out, ["quantity", "value"], rows)
    print(f"trace_Q = {spec.trace_Q:.17g}")
    print(f"trace_QAQ = {spec.trace_QAQ:.17g}")
    print(f"trace_alpha = {trace_alpha:.17g}")
    for msg in report.messages:
        print(msg)
    return 0


def _cmd_simulate(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    want_snapshot = bool(cfg.snapshot_out)
    rec = integrate(
        cfg.initial_state(basis), cfg.params(), spec, cfg.integrator(),
        store_fields=want_snapshot,
    )
    rows = list(
        zip(rec.times, rec.F_values, rec.dissipation_values, rec.martingale_accumulator)
    )
    write_csv(out, ["time", "F", "dissipation", "martingale_accumulator"], rows)
    if want_snapshot:
        save_snapshot(SpectralField(basis, rec.snapshots[-1]), cfg.snapshot_out)
        print(f"final snapshot written to {cfg.snapshot_out}")
    print(f"simulated {len(rec.times) - 1} records to t={rec.times[-1]:.6g}")
    return 0


def _cmd_mc_energy(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    p = cfg.params()
    x0 = cfg.initial_state(basis)
    icfg = cfg.integrator()
    r1 = dg.ito_balance_report(p, spec, icfg, x0, cfg.M)
    icfg_half = replace(icfg, dt=icfg.dt / 2)
    r2 = dg.ito_balance_report(p, spec, icfg_half, x0, cfg.M)
    rows = [
        (icfg.dt, cfg.M, r1.details["t"], r1.estimate, r1.standard_error),
        (icfg_half.dt, cfg.M, r2.details["t"], r2.estimate, r2.standard_error),
    ]
    write_csv(out, ["dt", "M", "t", "residual", "standard_error"], rows)
    fitted_C = 2.0 * (r1.estimate - r2.estimate) / icfg.dt
    bound = 3.0 * r1.standard_error + abs(fitted_C) * icfg.dt
    ok = abs(r1.estimate) <= bound
    print(
        f"residual {r1.estimate:.6g} (se {r1.standard_error:.6g}), "
        f"fitted C {fitted_C:.6g}, bound {bound:.6g}: {'ok' if ok else 'VIOLATED'}"
    )
    return 0 if ok else 1


def _cmd_mc_moments(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    mr = dg.moment_report(cfg.params(), spec, cfg.integrator(), cfg.initial_state(basis), cfg.k, cfg.M)
    rows = list(zip(mr.times, mr.series, mr.series_standard_error, mr.envelope))
    write_csv(out, ["time", "estimate", "standard_error", "envelope"], rows)
    print(
        f"k={cfg.k}: sup-moment {mr.sup_estimate:.6g} (se {mr.sup_standard_error:.6g}), "
        f"fitted slope {mr.fit_slope:.6g}, affine_bounded={mr.affine_bounded}"
    )
    return 0 if mr.affine_bounded and np.all(np.isfinite(mr.series)) else 1


def _cmd_mc_expmoments(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    er = dg.exp_moment_report(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(basis), cfg.eps_exp, cfg.M
    )
    rows = list(zip(er.times, er.series, er.series_standard_error, er.envelope))
    write_csv(out, ["time", "estimate", "standard_error", "envelope"], rows)
    print(
        f"eps_exp={cfg.eps_exp}: margin {er.admissibility_margin:.6g}, "
        f"weighted dissipation {er.weighted_dissipation_estimate:.6g} "
        f"(se {er.weighted_dissipation_standard_error:.6g}), "
        f"affine_bounded={er.affine_bounded}"
    )
    return 0 if er.affine_bounded and np.all(np.isfinite(er.series)) else 1


def _cmd_ou_test(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    icfg = cfg.integrator()
    if icfg.nonlinearity:
        print("note: ou-test runs with the nonlinearity suppressed")
        icfg = replace(icfg, nonlinearity=False)
    oracle, emp, rel = dg.ou_variance_comparison(cfg.params(), spec, icfg, cfg.burn_in)
    rows = [
        (j, oracle[j], emp[j], rel[j])
        for j in range(basis.mode_count)
    ]
    write_csv(out, ["mode", "oracle_variance", "empirical_variance", "rel_error"], rows)
    ok = bool(np.all(rel <= OU_REL_TOL))
    print(f"max rel error {rel.max():.4f} (tolerance {OU_REL_TOL}): {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_convergence(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    dts = [float(tok) for tok in cfg.dts.split()]
    res = dg.strong_convergence_study(
        cfg.params(), spec, cfg.integrator(), cfg.initial_state(basis), dts, cfg.M
    )
    write_csv(out, ["dt", "strong_error"], list(zip(res.dts, res.errors)))
    lo, hi = CONVERGENCE_ORDER_RANGE
    ok = lo <= res.order <= hi
    print(f"fitted order {res.order:.4f} (target [{lo}, {hi}]): {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_variation(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    p = cfg.params()
    icfg = cfg.integrator()
    x0 = cfg.initial_state(basis)
    h = SpectralField.unit(basis, cfg.h_mode)
    delta = cfg.delta_fd
    base = run_ensemble(x0.coeffs, p, spec, icfg, 1, eta0_coeffs=h.coeffs)
    bumped = run_ensemble(x0.coeffs + delta * h.coeffs, p, spec, icfg, 1)
    fd = (bumped.final_coeffs[0] - base.final_coeffs[0]) / delta
    eta = base.eta_final[0]
    rel = float(np.linalg.norm(fd - eta) / np.linalg.norm(eta))
    write_csv(
        out,
        ["delta", "rel_error", "eta_norm"],
        [(delta, rel, float(np.linalg.norm(eta)))],
    )
    ok = rel <= VARIATION_REL_TOL
    print(f"pathwise FD vs first variation: rel error {rel:.3e}: {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_be(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    p = cfg.params()
    obs = cfg.observable_spec()
    x0 = cfg.initial_state(basis)
    h = SpectralField.unit(basis, cfg.h_mode)
    fd_delta = cfg.delta_fd if cfg.delta_fd > 0 else None
    est = dg.bismut_elworthy(obs, x0, h, cfg.t, cfg.M, p, spec, cfg.integrator(), fd_delta=fd_delta)
    exact = ""
    ok = True
    checked = False
    if est.fd_reference is not None:
        comb = float(np.hypot(est.standard_error, est.fd_standard_error))
        ok = abs(est.value - est.fd_reference) <= 3.0 * comb
        checked = True
    if obs.kind == "linear" and not cfg.nonlinearity:
        exact_val = float(
            np.exp(-p.nu * basis.eigenvalues[obs.mode] * est.time) * h.coeffs[obs.mode]
        )
        exact = exact_val
        ok = ok and abs(est.value - exact_val) <= 3.0 * est.standard_error
        checked = True
    rows = [
        (
            est.observable,
            est.time,
            est.value,
            est.standard_error,
            est.fd_reference if est.fd_reference is not None else "",
            est.fd_standard_error if est.fd_standard_error is not None else "",
            exact,
        )
    ]
    write_csv(
        out,
        ["observable", "t", "value", "standard_error", "fd_reference", "fd_standard_error", "exact"],
        rows,
    )
    print(
        f"derivative estimate {est.value:.6g} (se {est.standard_error:.6g})"
        + (f", fd {est.fd_reference:.6g}" if est.fd_reference is not None else "")
        + (f", exact {exact:.6g}" if exact != "" else "")
    )
    return 0 if (ok or not checked) else 1


def _cmd_invariant(cfg: SimConfig, out: str) -> int:
    basis = cfg.basis()
    spec, _ = cfg.noise(basis)
    p = cfg.params()
    stats = dg.invariant_stats(
        p,
        spec,
        cfg.integrator(),
        cfg.initial_states(basis),
        cfg.T_long,
        cfg.burn_in,
        eps_exp=cfg.eps_exp if cfg.eps_exp > 0 else None,
    )
    rows = []
    for s in stats:
        rows.append(
            (
                s.x0_energy,
                s.average_F,
                s.error_F,
                s.average_dissipation,
                s.error_dissipation,
                s.average_exp_weighted_dissipation if s.average_exp_weighted_dissipation is not None else "",
                s.error_exp_weighted_dissipation if s.error_exp_weighted_dissipation is not None else "",
                s.margin if s.margin is not None else "",
            )
        )
    write_csv(
        out,
        [
            "x0_F",
            "avg_F",
            "err_F",
            "avg_dissipation",
            "err_dissipation",
            "avg_exp_weighted_dissipation",
            "err_exp_weighted_dissipation",
            "margin",
        ],
        rows,
    )
    ok = True
    for i in range(len(stats)):
        for j in range(i + 1, len(stats)):
            a, b = stats[i], stats[j]
            comb_F = 3.0 * float(np.hypot(a.error_F, b.error_F))
            comb_D = 3.0 * float(np.hypot(a.error_dissipation, b.error_dissipation))
            ok = ok and abs(a.average_F - b.average_F) <= comb_F
            ok = ok and abs(a.average_dissipation - b.average_dissipation) <= comb_D
    for s in stats:
        print(
            f"x0_F={s.x0_energy:.6g}: avg_F={s.average_F:.6g} (err {s.error_F:.6g}), "
            f"avg_D={s.average_dissipation:.6g} (err {s.error_dissipation:.6g})"
        )
    if stats and stats[0].margin is not None:
        print(f"admissibility margin nu - eps*Tr_alpha/lambda_1 = {stats[0].margin:.6g}")
    print(f"cross-initial-condition agreement: {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


_HANDLERS = {
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
    """Dispatch one subcommand; returns the process exit status."""
    if subcommand not in _HANDLERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = out_path or config.output_path or f"{subcommand}.csv"
    try:
        return _HANDLERS[subcommand](config, out)
    except ConfigError:
        raise
    except BlowUpError as exc:
        print(f"blow-up detected: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # precondition violations (inadmissible eps_exp, range errors)
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lans-alpha",
        description="simulate and verify the stochastic alpha-model on a periodic box",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to key=value config file")
        sp.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(args.subcommand, config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
