"""Monte-Carlo verification of the model's quantitative structure.

Every estimator here reduces per-member statistics with numpy's pairwise
summation in fixed member order, and every member draws from the noise
substream (seed, member), so reports are bit-reproducible regardless of
how the ensemble is scheduled.

Where the linear theory gives closed forms (the Ornstein-Uhlenbeck
regime with the nonlinearity suppressed), those are used as exact
oracles; everything tied to unspecified constants is checked
structurally: finiteness, affine growth in time, monotonicity, and sign
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import Basis, SpectralField
from .integrator import IntegratorConfig, integrate, run_ensemble
from .noise import NoiseSpec, SingularOperatorError, substream
from .operators import PhysicalParams, alpha_energy

__all__ = [
    "EnsembleReport",
    "MomentReport",
    "ExpMomentReport",
    "BEEstimate",
    "Observable",
    "InvariantStats",
    "StrongConvergenceResult",
    "ito_balance_report",
    "moment_report",
    "exp_moment_report",
    "ou_stationary_oracle",
    "ou_mean_energy",
    "ou_variance_comparison",
    "bismut_elworthy",
    "invariant_stats",
    "strong_convergence_study",
    "exp_moment_margin",
    "batch_means",
]

BATCH_COUNT = 20  # batches for ergodic error bars


@dataclass
class EnsembleReport:
    sample_count: int
    estimate: float
    standard_error: float
    times: np.ndarray | None = None
    series: np.ndarray | None = None
    series_standard_error: np.ndarray | None = None
    details: dict = field(default_factory=dict)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values)
    M = values.shape[0]
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(M)) if M > 1 else 0.0
    return mean, se


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
    if M < 2:
        raise ValueError(f"need at least 2 samples, got M={M}")
    paths = run_ensemble(x0.coeffs, p, spec, cfg, M)
    t_final = paths.times[-1]
    F0 = alpha_energy(x0.coeffs, x0.basis, p.alpha)
    trace = spec.trace_alpha(p.alpha)
    residuals = (
        paths.F[:, -1]
        + 2.0 * p.nu * paths.dissipation_integrals()
        - F0
        - trace * t_final
        - 2.0 * paths.martingale[:, -1]
    )
    estimate, se = _mean_se(residuals)
    return EnsembleReport(
        sample_count=M,
        estimate=estimate,
        standard_error=se,
        details={"t": float(t_final), "dt": cfg.dt, "trace_alpha": trace, "F0": float(F0)},
    )


# -- moment structure ----------------------------------------------------------


@dataclass
class MomentReport:
    sample_count: int
    k: int
    times: np.ndarray
    series: np.ndarray
    series_standard_error: np.ndarray
    sup_estimate: float
    sup_standard_error: float
    fit_intercept: float
    fit_slope: float
    envelope: np.ndarray
    affine_bounded: bool


def _affine_envelope(times, series, series_se, start_value):
    slope, intercept = np.polyfit(times, series, 1)
    envelope = start_value + max(slope, 0.0) * times
    bounded = bool(np.all(series <= envelope + 3.0 * series_se + 1e-12 * abs(start_value)))
    return float(intercept), float(slope), envelope, bounded


def moment_report(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    x0: SpectralField,
    k: int,
    M: int,
) -> MomentReport:
    """E[F^k] on the recording grid plus E[sup F^k], with the affine check.

    The growth constant is unspecified, so the check is structural: the
    series must stay below F^k(0) + c_hat * t for the least-squares
    slope c_hat, within 3 standard errors pointwise.
    """
    if k < 1:
        raise ValueError(f"moment order k must be >= 1, got {k}")
    if M < 2:
        raise ValueError(f"need at least 2 samples, got M={M}")
    paths = run_ensemble(x0.coeffs, p, spec, cfg, M)
    Fk = paths.F**k
    series = Fk.mean(axis=0)
    series_se = Fk.std(axis=0, ddof=1) / np.sqrt(M)
    sup_est, sup_se = _mean_se(paths.sup_F**k)
    F0 = float(alpha_energy(x0.coeffs, x0.basis, p.alpha)) ** k
    intercept, slope, envelope, bounded = _affine_envelope(paths.times, series, series_se, F0)
    return MomentReport(
        sample_count=M,
        k=k,
        times=paths.times,
        series=series,
        series_standard_error=series_se,
        sup_estimate=sup_est,
        sup_standard_error=sup_se,
        fit_intercept=intercept,
        fit_slope=slope,
        envelope=envelope,
        affine_bounded=bounded,
    )


# -- exponential moments --------------------------------------------------------


@dataclass
class ExpMomentReport:
    sample_count: int
    eps_exp: float
    admissibility_margin: float
    times: np.ndarray
    series: np.ndarray
    series_standard_error: np.ndarray
    weighted_dissipation_estimate: float
    weighted_dissipation_standard_error: float
    fit_intercept: float
    fit_slope: float
    envelope: np.ndarray
    affine_bounded: bool


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
        raise ValueError(
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
    """E[exp(eps F(t))] series and the weighted dissipation integral.

    Refuses to run when eps_exp violates the sign condition; the error
    message names the failing bound.
    """
    if eps_exp < 0:
        raise ValueError(f"eps_exp must be >= 0, got {eps_exp}")
    margin = _require_admissible(p, spec, eps_exp)
    if M < 2:
        raise ValueError(f"need at least 2 samples, got M={M}")
    paths = run_ensemble(x0.coeffs, p, spec, cfg, M)
    expF = np.exp(eps_exp * paths.F)
    series = expF.mean(axis=0)
    series_se = expF.std(axis=0, ddof=1) / np.sqrt(M)
    weighted = np.trapezoid(expF * paths.dissipation, paths.times, axis=1)
    w_est, w_se = _mean_se(weighted)
    start = float(np.exp(eps_exp * alpha_energy(x0.coeffs, x0.basis, p.alpha)))
    intercept, slope, envelope, bounded = _affine_envelope(paths.times, series, series_se, start)
    return ExpMomentReport(
        sample_count=M,
        eps_exp=eps_exp,
        admissibility_margin=margin,
        times=paths.times,
        series=series,
        series_standard_error=series_se,
        weighted_dissipation_estimate=w_est,
        weighted_dissipation_standard_error=w_se,
        fit_intercept=intercept,
        fit_slope=slope,
        envelope=envelope,
        affine_bounded=bounded,
    )


# -- Ornstein-Uhlenbeck oracles ---------------------------------------------------


def ou_stationary_oracle(spec: NoiseSpec, p: PhysicalParams, basis: Basis) -> np.ndarray:
    """Exact stationary variance q_j^2 / (2 nu lambda_j) of each mode
    for the linear equation dZ = -nu A Z dt + Q dW."""
    if not (p.nu > 0):
        raise ValueError("OU stationary variances require nu > 0")
    return spec.q**2 / (2.0 * p.nu * basis.eigenvalues)


def ou_mean_energy(
    spec: NoiseSpec, p: PhysicalParams, times: np.ndarray, alpha: float
) -> np.ndarray:
    """Exact E[F(t)] from a zero start for the linear equation."""
    lam = spec.basis.eigenvalues
    var_t = spec.q[None, :] ** 2 * (
        -np.expm1(-2.0 * p.nu * lam[None, :] * np.asarray(times)[:, None])
    ) / (2.0 * p.nu * lam[None, :])
    return np.sum((1.0 + alpha**2 * lam[None, :]) * var_t, axis=1)


def ou_variance_comparison(
    p: PhysicalParams,
    spec: NoiseSpec,
    cfg: IntegratorConfig,
    burn_in: float,
    member: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Long-run per-mode variances against the stationary oracle.

    Returns (oracle, empirical, relative_error) per mode; cfg should
    suppress the nonlinearity so the oracle is exact in law.
    """
    if not burn_in < cfg.t_end:
        raise ValueError(f"burn_in={burn_in} must be below t_end={cfg.t_end}")
    basis = spec.basis
    rec = integrate(
        SpectralField.zeros(basis), p, spec, cfg, member=member, store_fields=True
    )
    mask = rec.times >= burn_in
    samples = rec.snapshots[mask]
    empirical = samples.var(axis=0, ddof=1)
    oracle = ou_stationary_oracle(spec, p, basis)
    rel = np.abs(empirical - oracle) / oracle
    return oracle, empirical, rel


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
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind == "linear" and self.mode is None:
            raise ValueError("linear observable needs a mode index")
        if self.kind == "energy_clipped" and (self.clip is None or self.clip <= 0):
            raise ValueError("energy_clipped observable needs clip > 0")

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
    direction: np.ndarray
    time: float
    value: float
    standard_error: float
    sample_count: int
    fd_reference: float | None = None
    fd_standard_error: float | None = None


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
    difference with common random numbers is run as reference.
    """
    if not (t > 0):
        raise ValueError(f"derivative time t must be positive, got {t}")
    if spec.sigma <= 0:
        raise SingularOperatorError("Bismut-Elworthy requires invertible Q (sigma > 0)")
    if M < 2:
        raise ValueError(f"need at least 2 samples, got M={M}")
    basis = x.basis
    steps_cfg = replace(cfg, t_end=t)
    steps_cfg = replace(steps_cfg, record_every=max(1, steps_cfg.num_steps()))
    paths = run_ensemble(
        x.coeffs, p, spec, steps_cfg, M, eta0_coeffs=h.coeffs, collect_be=True
    )
    t_final = paths.times[-1]
    vals = observable.evaluate(paths.final_coeffs, basis, p.alpha)
    prods = vals * paths.be_accumulator / t_final
    value, se = _mean_se(prods)

    fd_est = fd_se = None
    if fd_delta is not None:
        up = run_ensemble(x.coeffs + fd_delta * h.coeffs, p, spec, steps_cfg, M)
        um = run_ensemble(x.coeffs - fd_delta * h.coeffs, p, spec, steps_cfg, M)
        phi_p = observable.evaluate(up.final_coeffs, basis, p.alpha)
        phi_m = observable.evaluate(um.final_coeffs, basis, p.alpha)
        diffs = (phi_p - phi_m) / (2.0 * fd_delta)
        fd_est, fd_se = _mean_se(diffs)

    return BEEstimate(
        observable=observable.label(),
        direction=h.coeffs,
        time=float(t_final),
        value=value,
        standard_error=se,
        sample_count=M,
        fd_reference=fd_est,
        fd_standard_error=fd_se,
    )


# -- invariant-measure statistics ------------------------------------------------


def batch_means(series: np.ndarray, batches: int = BATCH_COUNT) -> tuple[float, float]:
    """Time average with a batch-means standard error (20 batches)."""
    series = np.asarray(series)
    n = series.shape[-1]
    if n < batches:
        raise ValueError(f"need at least {batches} samples for batch means, got {n}")
    usable = n - (n % batches)
    blocks = series[..., :usable].reshape(*series.shape[:-1], batches, usable // batches)
    means = blocks.mean(axis=-1)
    return float(means.mean(axis=-1)), float(means.std(axis=-1, ddof=1) / np.sqrt(batches))


@dataclass
class InvariantStats:
    x0_energy: float
    average_F: float
    error_F: float
    average_dissipation: float
    error_dissipation: float
    average_exp_weighted_dissipation: float | None
    error_exp_weighted_dissipation: float | None
    margin: float | None          # nu - eps * Tr_alpha / lambda_1, as emitted
    gate_margin: float | None     # nu - 2 eps * Tr_alpha / lambda_1, the sign condition


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
    if not burn_in < T_long:
        raise ValueError(f"burn_in={burn_in} must be below T_long={T_long}")
    margin = gate_margin = None
    if eps_exp is not None:
        gate_margin = _require_admissible(p, spec, eps_exp)
        lam1 = spec.basis.lambda_min()
        margin = p.nu - eps_exp * spec.trace_alpha(p.alpha) / lam1
    basis = spec.basis
    M = len(x0_list)
    X0 = np.stack([x.coeffs for x in x0_list])
    long_cfg = replace(cfg, t_end=T_long)
    paths = run_ensemble(X0, p, spec, long_cfg, M)
    mask = paths.times >= burn_in
    out = []
    for i in range(M):
        F_series = paths.F[i, mask]
        D_series = paths.dissipation[i, mask]
        avg_F, err_F = batch_means(F_series)
        avg_D, err_D = batch_means(D_series)
        avg_w = err_w = None
        if eps_exp is not None:
            avg_w, err_w = batch_means(np.exp(eps_exp * F_series) * D_series)
        out.append(
            InvariantStats(
                x0_energy=float(alpha_energy(X0[i], basis, p.alpha)),
                average_F=avg_F,
                error_F=err_F,
                average_dissipation=avg_D,
                error_dissipation=err_D,
                average_exp_weighted_dissipation=avg_w,
                error_exp_weighted_dissipation=err_w,
                margin=margin,
                gate_margin=gate_margin,
            )
        )
    return out


# -- strong convergence -----------------------------------------------------------


@dataclass
class StrongConvergenceResult:
    dts: np.ndarray
    errors: np.ndarray
    order: float


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
    order is the least-squares slope of log error against log dt.
    Raises BlowUpError if any resolution blows up.
    """
    if cfg.scheme != "semi_implicit_em":
        raise ValueError("common-path coupling is defined for semi_implicit_em only")
    if spec.sigma <= 0:
        raise ValueError("strong convergence study requires sigma > 0")
    dts = sorted(dts, reverse=True)
    finest = dts[-1]
    ratios = [dt / finest for dt in dts]
    if any(abs(r - round(r)) > 1e-9 for r in ratios):
        raise ValueError(f"each dt must be an integer multiple of the finest, got {dts}")
    T = cfg.t_end
    steps_fine = int(round(T / finest))
    if abs(steps_fine * finest - T) > 1e-9 * T:
        raise ValueError(f"t_end={T} must be an integer number of finest steps")
    for dt, r in zip(dts, ratios):
        if steps_fine % int(round(r)) != 0:
            raise ValueError(
                f"t_end={T} is not an integer number of dt={dt} steps; "
                "all resolutions must reach the same final time"
            )
    basis = spec.basis
    n = basis.mode_count

    xi = np.empty((M, steps_fine, n))
    for i in range(M):
        xi[i] = substream(spec.seed, i).standard_normal((steps_fine, n))
    dW_fine = np.sqrt(finest) * xi

    finals = []
    for dt in dts:
        r = int(round(dt / finest))
        steps = steps_fine // r
        dW = dW_fine[:, : steps * r, :].reshape(M, steps, r, n).sum(axis=2)
        level_cfg = replace(cfg, dt=dt, record_every=max(1, steps))
        paths = run_ensemble(x0.coeffs, p, spec, level_cfg, M, basis=basis, increments=dW)
        finals.append(paths.final_coeffs)

    errors = np.array(
        [np.mean(np.linalg.norm(finals[i] - finals[i + 1], axis=1)) for i in range(len(dts) - 1)]
    )
    pair_dts = np.array(dts[:-1])
    order, _ = np.polyfit(np.log(pair_dts), np.log(errors), 1)
    return StrongConvergenceResult(dts=pair_dts, errors=errors, order=float(order))
