"""Named verification battery behind the ``verify`` subcommand.

Each check produces a CheckResult with the measured value and its threshold, so
the report is a flat list of ``name: value ... status`` lines and the overall
outcome is simply the conjunction.  Checks marked as surrogates certify
finite-horizon behavior only (absence of a growth trend on the simulated span),
never a genuine t -> infinity statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sde, topology
from .gains import decay_dominance_log_ratios, make_profile, rate_constants
from .matrices import eigenvalues
from .moments import evolve_moments
from .plant import build_plant
from .rates import (
    filter_response, fit_power_law, fit_window, jordan_transition, jordan_transition_ode,
    monte_carlo_moments, transition_bound_check,
)
from .scenario import UnsuitedError

SPECTRUM_GRAPHS = 100
SPECTRUM_DIAGONALS = 10
IDENTITY_PLANTS = 100
JORDAN_TRIPLES = 10
REDUCTION_SEEDS = 3      # paths of the reduction check: trials of one batch


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    op: str                  # "<=" or ">="
    passed: bool
    surrogate: bool = False  # finite-horizon surrogate, not an asymptotic claim

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tag = " note=finite-horizon-surrogate" if self.surrogate else ""
        return (f"{self.name}: value={self.value:.6g} threshold={self.op} "
                f"{self.threshold:.6g} status={status}{tag}")


@dataclass(frozen=True)
class VerifyReport:
    scenario_hash: str
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return ([f"scenario: {self.scenario_hash}"] + [r.line() for r in self.results]
                + [f"overall: {'pass' if self.all_passed else 'FAIL'}"])


def _check(name, value, threshold, op, surrogate=False) -> CheckResult:
    value, threshold = float(value), float(threshold)
    return CheckResult(name=name, value=value, threshold=threshold, op=op, surrogate=surrogate,
                       passed=value <= threshold if op == "<=" else value >= threshold)


def check_follower_spectrum() -> CheckResult:
    """Random spanning-tree digraphs times random positive diagonal scalings:
    every D L2 spectrum must stay strictly in the open right half plane."""
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(SPECTRUM_GRAPHS):
        g = topology.random_spanning_tree_digraph(int(rng.integers(3, 9)), rng)
        L2 = topology.laplacian_partition(g).L2
        d = rng.uniform(0.05, 5.0, size=(SPECTRUM_DIAGONALS, L2.shape[0]))
        worst = min(worst, eigenvalues(d[:, :, None] * L2).min_real_part)
    return _check("follower_spectrum_min_real", worst, 1e-9, ">=")


def check_controller_identities() -> CheckResult:
    """K2 (A + B K1) = 0 and K2 B K2 = K2 across random valid plants."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(IDENTITY_PLANTS):
        n = int(rng.integers(2, 7))
        alpha = rng.uniform(-2.0, 2.0, size=n)
        roots = -rng.uniform(0.2, 3.0, size=n - 1)
        b = np.polynomial.polynomial.polyfromroots(roots).real[:-1]
        p = build_plant(alpha, b)
        worst = max(worst, np.abs(p.K2 @ p.closed_loop_A).max(),
                    np.abs(p.K2 @ p.B @ p.K2 - p.K2).max())
    return _check("controller_identities_residual", worst, 1e-12, "<=")


def check_reduction_consistency(scen) -> CheckResult:
    """Shared-noise full vs reduced paths agree after the K2 projection.

    One projected Euler-Maruyama step of the full engine is exactly one step of
    the reduced engine on the same increments, so the gap is round-off only.
    The REDUCTION_SEEDS paths run as one batch, each trial on its own noise
    stream, through the batched step that ``monte_carlo_moments`` uses."""
    horizon = min(10.0, scen.t_end)
    probe = scen.with_overrides(
        t_end=horizon, sample_times=np.linspace(0.0, horizon, 101)
    )
    full = sde._run_full(probe, probe.base_seed, REDUCTION_SEEDS)
    red = sde._run_reduced(probe, probe.base_seed, REDUCTION_SEEDS)
    err = full[:, :, probe.graph.follower_indices, :] - full[:, :, [probe.graph.leader_index], :]
    return _check("reduction_projection_gap", np.abs(red - err @ probe.plant.K2[0]).max(),
                  1e-10, "<=")


def oracle_deviation_sigmas(mc, oracle) -> float:
    """Largest |mc - oracle| mean-square gap in units of the mc standard error.

    Sample times with zero sampling variance (deterministic initial condition)
    count only if the gap itself is nonzero beyond round-off.
    """
    dev, se = np.abs(mc.mse - oracle.mse), mc.stderr
    exact = se == 0.0
    ratio = np.where(exact, np.where(dev <= 1e-9, 0.0, np.inf),
                     dev / np.where(exact, 1.0, se))
    return float(ratio.max())


def check_oracle_agreement(mc, oracle) -> CheckResult:
    """Monte Carlo second moments within 3 standard errors of the moment ODEs."""
    return _check("monte_carlo_oracle_sigmas", oracle_deviation_sigmas(mc, oracle),
                  3.0, "<=")


def _slope_window(scen) -> tuple[float, float]:
    return scen.t_end / 5.0, scen.t_end


def check_oracle_slope(scen, oracle) -> CheckResult:
    """Log-log slope of the exact mean-square error on the tail window."""
    fit = fit_power_law(oracle, _slope_window(scen))
    dev = np.abs(fit.slope + scen.profile.beta).max()
    return _check("oracle_slope_deviation", dev, 0.15, "<=", surrogate=True)


def check_jordan_recursion() -> CheckResult:
    """Closed-form expm(-u J), u the exact gain integral of a one-agent profile,
    vs classical RK4 for Xi' = -a(t) J Xi on its gain samples (in scalar series
    arithmetic, see ``jordan_transition_ode``), over random triples."""
    rng = np.random.default_rng(3)
    worst, grid = 0.0, np.linspace(0.5, 10.0, 8001)
    for _ in range(JORDAN_TRIPLES):
        lam = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        r = int(rng.integers(1, 5))
        mu, c, d = rng.uniform(0.3, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        profile = make_profile([[mu, c, d]], rng.uniform(0.2, 0.8))
        u = profile.envelope_integral(0.5, grid)
        ode = jordan_transition_ode(lam, profile.envelope, r, grid)
        worst = max(worst, float(np.abs(jordan_transition(lam, r, u) - ode).max()))
    return _check("jordan_recursion_vs_ode", worst, 1e-6, "<=")


def check_transition_bound(scen) -> CheckResult:
    """Normalized transition-matrix ratio shows no growth on [1, 1e3]."""
    consts = rate_constants(scen.profile, scen.lap.L2)
    grid = np.geomspace(1.0, 1000.0, 40001)
    lam = consts.lambda_min
    maxima = transition_bound_check([(lam, 1), (lam, 3)], scen.profile, consts.eps, grid)
    excess = (maxima[:, 1] - maxima[:, 0]).max()
    return _check("transition_bound_log_excess", excess, np.log(1.05), "<=", surrogate=True)


def check_gain_decay(scen) -> tuple[CheckResult, CheckResult]:
    """The integrated-envelope exponential beats the t^(-beta) power law."""
    ratios = decay_dominance_log_ratios(scen.profile, 1.0, [1e2, 1e3, 1e4])
    return (_check("gain_decay_log_ratio_steps", np.diff(ratios).max(), 0.0, "<=", surrogate=True),
            _check("gain_decay_log_ratio_at_1e4", ratios[-1], np.log(1e-2), "<=", surrogate=True))


def check_filter_tails(scen) -> tuple[CheckResult, CheckResult, CheckResult]:
    """Stable-filter tracking witnesses for constant, exponential-tail and
    power-tail drives."""
    b, zstar = scen.plant.K2[0], 2.0
    n = b.size - 1
    t_end = 50.0 / np.abs(np.roots(b[::-1]).real).min()
    t1 = np.arange(0.0, t_end + 1e-9, 0.01)
    s1 = filter_response(b, t1, np.full(t1.size, zstar), np.zeros(n))
    settle = abs(s1[-1, 0] - zstar / b[0]) + np.abs(s1[-1, 1:n]).max(initial=0.0)
    const = _check("filter_constant_drive_residual", settle, 1e-4, "<=", surrogate=True)

    def tail_over_head(t, w):  # the largest w on [50, 100] over the largest on [5, 10]
        return w[(t >= 50.0) & (t <= 100.0)].max() / w[(t >= 5.0) & (t <= 10.0)].max()

    beta = scen.profile.beta
    t2 = np.arange(0.0, 100.0 + 1e-9, 0.005)
    s2 = filter_response(b, t2, zstar + np.exp(-t2 ** beta), np.zeros(n))
    exp_tail = _check("filter_exponential_drive_ratio", tail_over_head(
        t2, np.abs(s2[:, 0] - zstar) * np.exp(t2 ** beta)), 1.05, "<=", surrogate=True)

    t3 = np.arange(0.01, 100.0 + 1e-9, 0.005)
    s3 = filter_response(b, t3, zstar + t3 ** (-0.5 * beta), np.zeros(n))
    pow_tail = _check("filter_power_drive_ratio", tail_over_head(
        t3, (s3[:, 0] - zstar / b[0]) ** 2 * t3 ** beta), 1.05, "<=", surrogate=True)
    return const, exp_tail, pow_tail


def run_battery(scen, mc=None, oracle=None) -> VerifyReport:
    """Full property battery for a leader-following scenario.

    ``mc`` and ``oracle`` allow reuse of already-computed moment series (they
    must correspond to the same scenario).  A slope window too narrow is
    refused before anything runs.  After the Monte Carlo batch, the three
    scenario-free self-tests run as one ``sde._split`` job while this process
    computes the oracle, if not given, and runs the scenario's checks; both
    jobs' results come back as ``_split``'s values.
    """
    if scen.leaderless:
        raise UnsuitedError("the verification battery requires a leader-following scenario")
    fit_window(scen.sample_times, _slope_window(scen))
    if mc is None:
        mc = monte_carlo_moments(scen)

    def scenario_checks():
        series = evolve_moments(scen) if oracle is None else oracle
        return (check_reduction_consistency(scen), check_oracle_agreement(mc, series),
                check_oracle_slope(scen, series), check_transition_bound(scen),
                *check_gain_decay(scen), *check_filter_tails(scen))

    (spectrum, identities, jordan), own = sde._split([
        ("self-tests", lambda: (check_follower_spectrum(), check_controller_identities(),
                                check_jordan_recursion())),
        ("scenario checks", scenario_checks)])
    return VerifyReport(scenario_hash=scen.fingerprint,
                        results=(spectrum, identities, *own[:3], jordan, *own[3:]))
