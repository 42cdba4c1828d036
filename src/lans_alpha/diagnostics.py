"""Monte-Carlo verification of the model's quantitative structure.

Every estimator here reduces per-member statistics with numpy's pairwise
summation in fixed member order, and every member draws from the noise
substream (seed, member), so reports are bit-reproducible regardless of
how the ensemble is scheduled.

Where the linear theory gives closed forms (the Ornstein-Uhlenbeck
regime with the nonlinearity suppressed), those are used as exact
oracles; everything tied to unspecified constants is checked
structurally: finiteness, affine growth in time, and sign conditions.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import Basis, ConfigError, SpectralField
from .integrator import (
    EnsemblePaths,
    EnsembleRun,
    IntegratorConfig,
    _coeffs_on,
    _record_count,
    integrate,
    run_ensemble,
    run_ensembles,
)
from .noise import NoiseSpec, SingularOperatorError, substream
from .operators import PhysicalParams, alpha_energy, helmholtz_factor

__all__ = [
    "Verdict",
    "agreement",
    "EnsembleReport",
    "SeriesReport",
    "MomentReport",
    "ExpMomentReport",
    "BEEstimate",
    "Observable",
    "InvariantStats",
    "StrongConvergenceResult",
    "ito_balance_report",
    "ito_balance_reports",
    "ito_balance_verdict",
    "ito_halving_verdict",
    "moment_report",
    "exp_moment_report",
    "ou_stationary_oracle",
    "ou_mean_energy",
    "ou_variance_comparison",
    "ou_verdict",
    "bismut_elworthy",
    "invariant_stats",
    "invariant_stats_at",
    "cross_start_verdicts",
    "strong_convergence_study",
    "first_variation_check",
    "exp_moment_margin",
    "batch_means",
]

BATCH_COUNT = 20  # batches for ergodic error bars

# The pass/fail bounds of the verdicts below; the CLI and the acceptance suite use these.
N_SIGMA = 3.0  # Monte-Carlo agreement within this many combined standard errors
OU_REL_TOL = 0.05  # per-mode stationary variance against the OU oracle
CONVERGENCE_ORDER_RANGE = (0.7, 1.3)  # fitted strong order of the semi-implicit scheme
VARIATION_REL_TOL = 1e-4  # pathwise finite difference against the first variation
HALVING_RATIO_RANGE = (1.4, 2.6)  # Ito residual at dt over dt/2; first-order bias gives 2


@dataclass(frozen=True)
class Verdict:
    """One checked bound: ok when lo <= value <= hi, so a NaN value fails."""

    name: str
    value: float
    hi: float
    lo: float = -math.inf

    @property
    def ok(self) -> bool:
        return bool(self.lo <= self.value <= self.hi)

    @property
    def margin(self) -> float:
        """Distance to the nearer bound, negative on failure."""
        return min(self.hi - self.value, self.value - self.lo)

    def __str__(self) -> str:
        if self.lo == -math.inf:
            bound = f"<= {self.hi:.6g}"
        else:
            bound = f"in [{self.lo:.6g}, {self.hi:.6g}]"
        status = "ok" if self.ok else "VIOLATED"
        return f"{self.name} {self.value:.6g} {bound} (margin {self.margin:.3g}): {status}"


def agreement(name: str, a: float, err_a: float, b: float, err_b: float) -> Verdict:
    """|a - b| within N_SIGMA combined standard errors of two independent estimates."""
    return Verdict(f"|{name}|", abs(a - b), N_SIGMA * float(np.hypot(err_a, err_b)))


@dataclass
class EnsembleReport:
    estimate: float
    standard_error: float
    details: dict = field(default_factory=dict)


def _mean_se(values: np.ndarray):
    """Mean and standard error over the M >= 2 samples along axis 0."""
    values = np.asarray(values)
    return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])


def _paths(p, spec, M: int, runs: list[EnsembleRun]) -> list[EnsemblePaths]:
    """run_ensembles of M >= 2 members, enough for a standard error."""
    if M < 2:
        raise ConfigError(f"need at least 2 samples, got M={M}")
    return run_ensembles(p, spec, M, runs)


# -- energy balance ----------------------------------------------------------


def ito_balance_report(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0: SpectralField,
    M: int,
) -> EnsembleReport:
    """Residual of the k=1 energy identity over M paths.

    Per path, r = F(t) + 2 nu Int(dissipation) - F(0) - Tr_alpha * t
    - 2 * martingale.  The martingale has zero mean, so subtracting it
    per path leaves the estimated expectation unchanged while acting as
    a control variate; the report's estimate converges to the O(dt)
    discretization bias of the scheme.
    """
    return ito_balance_reports(p, spec, [cfg], x0, M)[0]


def ito_balance_reports(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfgs: list[IntegratorConfig],
    x0: SpectralField,
    M: int,
) -> list[EnsembleReport]:
    """ito_balance_report at each config, the runs stepped as one group on
    the same members' draws (run_ensembles), with the same bits."""
    c0 = _coeffs_on(x0, spec)
    group = _paths(p, spec, M, [EnsembleRun(c0, cfg, series=False) for cfg in cfgs])
    trace = spec.trace_alpha(p.alpha)
    reports = []
    for cfg, paths in zip(cfgs, group):
        t_final = paths.times[-1]
        F0 = paths.F[:, 0]  # the run's alpha_energy of x0
        residuals = (
            paths.F[:, -1]
            + 2.0 * p.nu * paths.dissipation_integral
            - F0
            - trace * t_final
            - 2.0 * paths.martingale[:, -1]
        )
        estimate, se = _mean_se(residuals)
        reports.append(EnsembleReport(
            estimate=estimate,
            standard_error=se,
            details={"t": float(t_final), "dt": cfg.dt, "trace_alpha": trace, "F0": float(F0[0])},
        ))
    return reports


def ito_balance_verdict(
    rep: EnsembleReport, coarse: EnsembleReport, fine: EnsembleReport
) -> Verdict:
    """|residual of rep| within N_SIGMA standard errors plus the O(dt) bias
    |C| dt, with C fitted from the residuals at dt (coarse) and dt/2 (fine)."""
    dt = coarse.details["dt"]
    fitted_C = 2.0 * (coarse.estimate - fine.estimate) / dt
    bound = N_SIGMA * rep.standard_error + abs(fitted_C) * dt
    return Verdict("Ito residual |R|", abs(rep.estimate), bound)


def ito_halving_verdict(coarse: EnsembleReport, fine: EnsembleReport) -> Verdict:
    """Residual ratio at dt over dt/2, which a first-order bias puts near 2."""
    lo, hi = HALVING_RATIO_RANGE
    return Verdict("Ito residual halving ratio", coarse.estimate / fine.estimate, hi, lo)


# -- moment structure ----------------------------------------------------------


@dataclass
class SeriesReport:
    """E[phi(F(t))] on the recording grid, checked against an affine envelope."""

    times: np.ndarray
    series: np.ndarray
    series_standard_error: np.ndarray
    fit_slope: float
    envelope: np.ndarray
    verdict: Verdict


def _series(p, spec, cfg, x0: SpectralField, M: int, phi):
    """Run M members from x0 and estimate E[phi(F)] at each recorded time.

    The growth constant is unspecified, so the check is structural: the
    series must stay below phi(F(0)) + max(c_hat, 0) * t for the
    least-squares slope c_hat, within N_SIGMA standard errors pointwise.
    Returns the run, phi of its energies and the SeriesReport fields.
    """
    if cfg.num_steps() < 1:
        raise ConfigError(f"t_end={cfg.t_end} is below dt={cfg.dt}: the envelope needs a step")
    (paths,) = _paths(p, spec, M, [EnsembleRun(_coeffs_on(x0, spec), cfg)])
    times = paths.times
    values = phi(paths.F)
    series, series_se = _mean_se(values)
    start = float(phi(float(paths.F[0, 0])))
    slope = float(np.polyfit(times, series, 1)[0])
    envelope = start + max(slope, 0.0) * times
    # F(0) lies on the envelope by construction, so only t > 0 has a margin;
    # the series is >= 0, so a NaN or infinite entry makes the excess NaN or +inf
    bound = envelope + N_SIGMA * series_se + 1e-12 * abs(start)
    excess = np.max((series - bound)[times > 0])
    verdict = Verdict("excess over the affine envelope", float(excess), 0.0)
    return paths, values, dict(
        times=times, series=series, series_standard_error=series_se,
        fit_slope=slope, envelope=envelope, verdict=verdict,
    )


@dataclass
class MomentReport(SeriesReport):
    k: int
    sup_estimate: float
    sup_standard_error: float


def moment_report(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0: SpectralField,
    k: int,
    M: int,
) -> MomentReport:
    """E[F^k] on the recording grid plus E[sup F^k], with the affine check
    of `_series`."""
    if k < 1:
        raise ConfigError(f"moment order k must be >= 1, got {k}")
    paths, _, fields = _series(p, spec, cfg, x0, M, lambda F: F**k)
    sup_est, sup_se = _mean_se(paths.sup_F**k)
    return MomentReport(k=k, sup_estimate=sup_est, sup_standard_error=sup_se, **fields)


# -- exponential moments --------------------------------------------------------


@dataclass
class ExpMomentReport(SeriesReport):
    eps_exp: float
    admissibility_margin: float
    weighted_dissipation_estimate: float
    weighted_dissipation_standard_error: float


def exp_moment_margin(p: PhysicalParams, spec: NoiseSpec, eps_exp: float) -> float:
    """Margin of the sign condition -nu + 2 eps Tr_alpha / lambda_1 < 0.

    Positive margin (returned as nu - 2 eps Tr_alpha / lambda_1) means
    eps_exp is admissible for the exponential-moment bound.
    """
    lam1 = spec.basis.lambda_min()
    return p.nu - 2.0 * eps_exp * spec.trace_alpha(p.alpha) / lam1


def _require_admissible(p, spec, eps_exp) -> float:
    margin = exp_moment_margin(p, spec, eps_exp)
    if not margin > 0:
        lam1 = spec.basis.lambda_min()
        raise ConfigError(
            "inadmissible eps_exp: the bound requires "
            f"-nu + 2*eps*Tr[Q*(I+a^2 A)Q]/lambda_1 < 0, but "
            f"-{p.nu} + 2*{eps_exp}*{spec.trace_alpha(p.alpha):.6g}/{lam1:.6g} "
            f"= {-margin:.6g} >= 0"
        )
    return margin


def exp_moment_report(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0: SpectralField,
    eps_exp: float,
    M: int,
) -> ExpMomentReport:
    """E[exp(eps F(t))] series, with the affine check of `_series`, and the
    weighted dissipation integral.

    Refuses to run when eps_exp violates the sign condition; the error
    message names the failing bound.
    """
    if eps_exp < 0:
        raise ConfigError(f"eps_exp must be >= 0, got {eps_exp}")
    margin = _require_admissible(p, spec, eps_exp)
    paths, expF, fields = _series(p, spec, cfg, x0, M, lambda F: np.exp(eps_exp * F))
    weighted = np.trapezoid(expF * paths.dissipation, paths.times, axis=1)
    w_est, w_se = _mean_se(weighted)
    return ExpMomentReport(
        eps_exp=eps_exp,
        admissibility_margin=margin,
        weighted_dissipation_estimate=w_est,
        weighted_dissipation_standard_error=w_se,
        **fields,
    )


# -- Ornstein-Uhlenbeck oracles ---------------------------------------------------


def ou_stationary_oracle(spec: NoiseSpec, p: PhysicalParams) -> np.ndarray:
    """Exact stationary variance q_j^2 / (2 nu lambda_j) of each mode
    for the linear equation dZ = -nu A Z dt + Q dW."""
    if not (p.nu > 0):
        raise ConfigError("OU stationary variances require nu > 0")
    return spec.q**2 / (2.0 * p.nu * spec.basis.eigenvalues)


def ou_mean_energy(spec: NoiseSpec, p: PhysicalParams, times: np.ndarray) -> np.ndarray:
    """Exact E[F(t)] from a zero start for the linear equation."""
    lam = spec.basis.eigenvalues
    var_t = spec.q[None, :] ** 2 * (
        -np.expm1(-2.0 * p.nu * lam[None, :] * np.asarray(times)[:, None])
    ) / (2.0 * p.nu * lam[None, :])
    return np.sum(helmholtz_factor(spec.basis, p.alpha)[None, :] * var_t, axis=1)


def ou_variance_comparison(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    burn_in: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Long-run per-mode variances against the stationary oracle.

    Returns (oracle, empirical, relative_error) per mode; cfg should
    suppress the nonlinearity so the oracle is exact in law.  Raises
    ConfigError if fewer than two recorded samples lie at or after burn_in.
    """
    if not burn_in < cfg.t_end:
        raise ConfigError(f"burn_in={burn_in} must be below t_end={cfg.t_end}")
    paths = integrate(SpectralField.zeros(spec.basis), p, spec, cfg, store_fields=True)
    samples = paths.snapshots[0, paths.times >= burn_in]
    if len(samples) < 2:
        raise ConfigError(
            f"burn_in={burn_in} leaves {len(samples)} recorded sample(s), "
            "a variance needs at least 2"
        )
    empirical = samples.var(axis=0, ddof=1)
    oracle = ou_stationary_oracle(spec, p)
    rel = np.abs(empirical - oracle) / oracle
    return oracle, empirical, rel


def ou_verdict(rel: np.ndarray) -> Verdict:
    """Largest per-mode relative variance error against OU_REL_TOL."""
    return Verdict("OU max rel variance error", float(np.max(rel)), OU_REL_TOL)


# -- Bismut-Elworthy derivative estimator -------------------------------------------


@dataclass(frozen=True)
class Observable:
    """Test functions for the semigroup derivative.

    kind 'linear' is <u, e_mode> (unbounded, used for the OU oracle),
    'energy' is F(u), 'energy_clipped' is min(F(u), clip), the bounded
    truncation.
    """

    kind: str
    mode: int | None = None
    clip: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "energy", "energy_clipped"):
            raise ConfigError(f"unknown observable kind {self.kind!r}")
        if self.kind == "linear" and (self.mode is None or self.mode < 0):
            raise ConfigError(f"linear observable needs a mode index >= 0, got {self.mode}")
        if self.kind == "energy_clipped" and (self.clip is None or self.clip <= 0):
            raise ConfigError("energy_clipped observable needs clip > 0")

    def label(self) -> str:
        if self.kind == "linear":
            return f"linear[{self.mode}]"
        if self.kind == "energy_clipped":
            return f"min(F,{self.clip:g})"
        return "F"

    def evaluate(self, coeffs: np.ndarray, basis: Basis, alpha: float) -> np.ndarray:
        if self.kind == "linear":
            return np.asarray(coeffs)[..., self.mode]
        F = alpha_energy(coeffs, basis, alpha)
        if self.kind == "energy_clipped":
            return np.minimum(F, self.clip)
        return F


@dataclass
class BEEstimate:
    observable: str
    time: float
    value: float
    standard_error: float
    fd_reference: float | None = None
    fd_standard_error: float | None = None
    exact: float | None = None  # OU semigroup derivative, linear observable only

    def verdicts(self) -> list[Verdict]:
        """N_SIGMA agreement with the FD reference and the exact value, where present."""
        out = []
        if self.fd_reference is not None:
            out.append(agreement(
                "BE - FD", self.value, self.standard_error, self.fd_reference, self.fd_standard_error
            ))
        if self.exact is not None:
            out.append(agreement("BE - exact", self.value, self.standard_error, self.exact, 0.0))
        return out


def bismut_elworthy(
    observable: Observable,
    x: SpectralField,
    h: SpectralField,
    t: float,
    M: int,
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    fd_delta: float | None = None,
) -> BEEstimate:
    """Monte-Carlo derivative (1/t) E[phi(u(t)) Int <Q^{-1} eta, dW>].

    u and its first variation are co-integrated with shared increments;
    the accumulator pairs Q^{-1} eta at the left endpoint with the raw
    (pre-Q) standard increments.  With fd_delta set, a central finite
    difference with common random numbers is run as reference, its two
    runs in one group with the first (run_ensembles).  A linear
    observable with the nonlinearity suppressed also gets the exact OU
    value exp(-nu lambda_j t) h_j.
    """
    if not (t > 0):
        raise ConfigError(f"derivative time t must be positive, got {t}")
    if spec.sigma <= 0:
        raise SingularOperatorError("Bismut-Elworthy requires invertible Q (sigma > 0)")
    basis = spec.basis
    if observable.kind == "linear" and observable.mode >= basis.mode_count:
        raise ConfigError(f"observable mode {observable.mode} >= mode count {basis.mode_count}")
    steps_cfg = replace(cfg, t_end=t)
    steps_cfg = replace(steps_cfg, record_every=max(1, steps_cfg.num_steps()))
    cx, ch = _coeffs_on(x, spec), _coeffs_on(h, spec)
    runs = [EnsembleRun(cx, steps_cfg, eta0_coeffs=ch, collect_be=True)]
    if fd_delta is not None:
        runs += [
            EnsembleRun(cx + fd_delta * ch, steps_cfg),
            EnsembleRun(cx - fd_delta * ch, steps_cfg),
        ]
    paths, *fd = _paths(p, spec, M, runs)
    t_final = paths.times[-1]
    vals = observable.evaluate(paths.final_coeffs, basis, p.alpha)
    prods = vals * paths.be_accumulator / t_final
    value, se = _mean_se(prods)

    fd_est = fd_se = None
    if fd:
        up, um = fd
        phi_p = observable.evaluate(up.final_coeffs, basis, p.alpha)
        phi_m = observable.evaluate(um.final_coeffs, basis, p.alpha)
        diffs = (phi_p - phi_m) / (2.0 * fd_delta)
        fd_est, fd_se = _mean_se(diffs)

    exact = None
    if observable.kind == "linear" and not cfg.nonlinearity:
        j = observable.mode
        exact = float(np.exp(-p.nu * basis.eigenvalues[j] * float(t_final)) * h.coeffs[j])

    return BEEstimate(
        observable=observable.label(),
        time=float(t_final),
        value=value,
        standard_error=se,
        fd_reference=fd_est,
        fd_standard_error=fd_se,
        exact=exact,
    )


# -- invariant-measure statistics ------------------------------------------------


def batch_means(series: np.ndarray) -> tuple[float, float]:
    """Time average with a batch-means standard error (BATCH_COUNT batches)."""
    series = np.asarray(series)
    n = series.shape[-1]
    if n < BATCH_COUNT:
        raise ConfigError(f"need at least {BATCH_COUNT} samples for batch means, got {n}")
    usable = n - (n % BATCH_COUNT)
    blocks = series[..., :usable].reshape(*series.shape[:-1], BATCH_COUNT, usable // BATCH_COUNT)
    means = blocks.mean(axis=-1)
    return float(means.mean(axis=-1)), float(means.std(axis=-1, ddof=1) / np.sqrt(BATCH_COUNT))


@dataclass
class InvariantStats:
    """One start's time averages.  `margin` is nu - eps Tr_alpha / lambda_1,
    as the invariant CSV prints it; the condition that gates eps_exp is
    exp_moment_margin = nu - 2 eps Tr_alpha / lambda_1 > 0, a smaller number.
    """

    x0_energy: float
    average_F: float
    error_F: float
    average_dissipation: float
    error_dissipation: float
    average_exp_weighted_dissipation: float | None
    error_exp_weighted_dissipation: float | None
    margin: float | None


def invariant_stats(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0_list: list[SpectralField],
    T_long: float,
    burn_in: float,
    eps_exp: float | None = None,
) -> list[InvariantStats]:
    """Long-run time averages per initial condition with batch-means errors.

    Initial conditions run as independent ensemble members (disjoint
    substreams).  The exponential-weighted dissipation observable is
    gated on the same sign condition as exp_moment_report.
    """
    return invariant_stats_at(p, spec, cfg, x0_list, [T_long], burn_in, eps_exp)[0]


def invariant_stats_at(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0_list: list[SpectralField],
    horizons: list[float],
    burn_in: float,
    eps_exp: float | None = None,
) -> list[list[InvariantStats]]:
    """invariant_stats at each T_long in `horizons`, from one run to the last.

    A member's path does not depend on how long it runs, so a run to T_long
    records the first records of the run to the last horizon.  Each horizon
    is cut there by its record index, so it must lie on the record grid
    unless it is the last.
    """
    if not burn_in < min(horizons):
        raise ConfigError(f"burn_in={burn_in} must be below T_long={min(horizons)}")
    margin = None
    if eps_exp is not None:
        _require_admissible(p, spec, eps_exp)
        lam1 = spec.basis.lambda_min()
        margin = p.nu - eps_exp * spec.trace_alpha(p.alpha) / lam1
    long_cfg = replace(cfg, t_end=max(horizons))
    ends = []
    for T in horizons:
        steps = replace(cfg, t_end=T).num_steps()
        if steps % cfg.record_every and steps != long_cfg.num_steps():
            raise ConfigError(
                f"T_long={T} is not a multiple of record_every={cfg.record_every} steps"
            )
        ends.append(_record_count(steps, cfg.record_every))
    M = len(x0_list)
    X0 = np.stack([_coeffs_on(x, spec) for x in x0_list])
    paths = run_ensemble(X0, p, spec, long_cfg, M)
    mask = paths.times >= burn_in
    out = []
    for end in ends:
        kept = mask[:end]
        stats = []
        for i in range(M):
            F_series = paths.F[i, :end][kept]
            D_series = paths.dissipation[i, :end][kept]
            avg_F, err_F = batch_means(F_series)
            avg_D, err_D = batch_means(D_series)
            avg_w = err_w = None
            if eps_exp is not None:
                avg_w, err_w = batch_means(np.exp(eps_exp * F_series) * D_series)
            stats.append(
                InvariantStats(
                    x0_energy=float(paths.F[i, 0]),
                    average_F=avg_F,
                    error_F=err_F,
                    average_dissipation=avg_D,
                    error_dissipation=err_D,
                    average_exp_weighted_dissipation=avg_w,
                    error_exp_weighted_dissipation=err_w,
                    margin=margin,
                )
            )
        out.append(stats)
    return out


def cross_start_verdicts(stats: list[InvariantStats]) -> list[Verdict]:
    """Pairwise agreement of the time averages across starts, as one
    invariant measure requires."""
    out = []
    for (i, a), (j, b) in itertools.combinations(enumerate(stats), 2):
        out.append(agreement(
            f"avg_F[{i}] - avg_F[{j}]", a.average_F, a.error_F, b.average_F, b.error_F
        ))
        out.append(agreement(
            f"avg_D[{i}] - avg_D[{j}]",
            a.average_dissipation, a.error_dissipation, b.average_dissipation, b.error_dissipation,
        ))
    return out


# -- strong convergence -----------------------------------------------------------


@dataclass
class StrongConvergenceResult:
    dts: np.ndarray
    errors: np.ndarray
    order: float

    @property
    def verdict(self) -> Verdict:
        lo, hi = CONVERGENCE_ORDER_RANGE
        return Verdict("strong order", self.order, hi, lo)


def strong_convergence_study(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0: SpectralField,
    dts: list[float],
    M: int,
) -> StrongConvergenceResult:
    """Common-path refinement study for the semi-implicit scheme.

    For consecutive resolutions, the coarse increments are the block
    sums of the finest ones (one Brownian path per member), and the
    reported error at dt is E|u_dt(T) - u_{dt/2}(T)|_2.  The fitted
    order is the least-squares slope of log error against log dt, so at
    least three distinct dts are needed.  Raises BlowUpError if any
    resolution blows up.
    """
    if len(dts) < 3 or len(set(dts)) < len(dts) or min(dts) <= 0:
        raise ConfigError(f"dts must be at least 3 distinct positive step sizes, got {dts}")
    if cfg.scheme != "semi_implicit_em":
        raise ConfigError("common-path coupling is defined for semi_implicit_em only")
    if spec.sigma <= 0:
        raise ConfigError("strong convergence study requires sigma > 0")
    dts = sorted(dts, reverse=True)
    finest = dts[-1]
    ratios = [dt / finest for dt in dts]
    if any(abs(r - round(r)) > 1e-9 for r in ratios):
        raise ConfigError(f"each dt must be an integer multiple of the finest, got {dts}")
    T = cfg.t_end
    steps_fine = int(round(T / finest))
    if steps_fine < 1 or abs(steps_fine * finest - T) > 1e-9 * T:
        raise ConfigError(f"t_end={T} must be a positive integer number of finest steps")
    for dt, r in zip(dts, ratios):
        if steps_fine % int(round(r)) != 0:
            raise ConfigError(
                f"t_end={T} is not an integer number of dt={dt} steps; "
                "all resolutions must reach the same final time"
            )

    c0 = _coeffs_on(x0, spec)
    # one (M, steps, n) array of fine increments, scaled in place; each level
    # steps on the sums of dt / finest of them and records only its two ends
    dW_fine = np.empty((M, steps_fine, spec.basis.mode_count))
    for i in range(M):
        substream(spec.seed, i).standard_normal(out=dW_fine[i])
    dW_fine *= np.sqrt(finest)

    finals = []
    for dt in dts:
        level = replace(cfg, dt=dt, record_every=steps_fine)
        finals.append(run_ensemble(c0, p, spec, level, M, increments=dW_fine).final_coeffs)

    errors = np.array(
        [np.mean(np.linalg.norm(finals[i] - finals[i + 1], axis=1)) for i in range(len(dts) - 1)]
    )
    pair_dts = np.array(dts[:-1])
    order, _ = np.polyfit(np.log(pair_dts), np.log(errors), 1)
    return StrongConvergenceResult(dts=pair_dts, errors=errors, order=float(order))


# -- first variation ---------------------------------------------------------------


def first_variation_check(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0: SpectralField,
    h: SpectralField,
    delta: float,
) -> tuple[Verdict, float]:
    """Pathwise finite difference in direction h against the first variation.

    Member 0 runs from x0 carrying eta(0) = h and again from x0 + delta h on
    the same noise.  Returns the verdict on the relative error
    |(u_delta(T) - u(T)) / delta - eta(T)| / |eta(T)|, which is O(delta),
    and |eta(T)|.  Raises ConfigError when |eta(T)| is not a normal float:
    over a long horizon eta(T) ~ e^{-nu lambda T} h underflows to 0.
    """
    if delta == 0 or not math.isfinite(delta):
        raise ConfigError(f"the finite-difference offset must be nonzero and finite, got {delta}")
    c0, ch = _coeffs_on(x0, spec), _coeffs_on(h, spec)
    # one group, so both runs step on one draw of member 0's noise
    base, bumped = run_ensembles(
        p, spec, 1, [EnsembleRun(c0, cfg, eta0_coeffs=ch), EnsembleRun(c0 + delta * ch, cfg)]
    )
    fd = (bumped.final_coeffs[0] - base.final_coeffs[0]) / delta
    eta = base.eta_final[0]
    eta_norm = float(np.linalg.norm(eta))
    if not sys.float_info.min <= eta_norm <= sys.float_info.max:
        raise ConfigError(
            f"|eta(T)| = {eta_norm:.3g} at the horizon t_end={cfg.t_end} is not a normal float, "
            "so the relative error is undefined; shorten t_end"
        )
    rel = float(np.linalg.norm(fd - eta) / eta_norm)
    return Verdict("first variation rel error", rel, VARIATION_REL_TOL), eta_norm
