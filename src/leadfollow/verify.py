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
    GROWTH_SLACK, filter_response, fit_power_law, jordan_transition, jordan_transition_ode,
    monte_carlo_moments, transition_bound_check,
)

SPECTRUM_GRAPHS = 100
SPECTRUM_DIAGONALS = 10
IDENTITY_PLANTS = 100
JORDAN_TRIPLES = 10
REDUCTION_SEEDS = 3


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
        return (
            f"{self.name}: value={self.value:.6g} threshold={self.op} "
            f"{self.threshold:.6g} status={status}{tag}"
        )


@dataclass(frozen=True)
class VerifyReport:
    scenario_hash: str
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"scenario: {self.scenario_hash}"]
        out += [r.line() for r in self.results]
        out.append(f"overall: {'pass' if self.all_passed else 'FAIL'}")
        return out


def _check(name, value, threshold, op, surrogate=False) -> CheckResult:
    value = float(value)
    threshold = float(threshold)
    passed = value <= threshold if op == "<=" else value >= threshold
    return CheckResult(name=name, value=value, threshold=threshold, op=op,
                       passed=passed, surrogate=surrogate)


def check_follower_spectrum() -> CheckResult:
    """Random spanning-tree digraphs times random positive diagonal scalings:
    every D L2 spectrum must stay strictly in the open right half plane."""
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(SPECTRUM_GRAPHS):
        g = topology.random_spanning_tree_digraph(int(rng.integers(3, 9)), rng)
        L2 = topology.laplacian_partition(g).L2
        for _ in range(SPECTRUM_DIAGONALS):
            d = rng.uniform(0.05, 5.0, size=L2.shape[0])
            spec = eigenvalues(np.diag(d) @ L2)
            worst = min(worst, spec.min_real_part)
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
        r1 = np.abs(p.K2 @ p.closed_loop_A).max()
        r2 = np.abs(p.K2 @ p.B @ p.K2 - p.K2).max()
        worst = max(worst, r1, r2)
    return _check("controller_identities_residual", worst, 1e-12, "<=")


def check_reduction_consistency(scen) -> CheckResult:
    """Shared-noise full vs reduced paths agree after the K2 projection.

    One projected Euler-Maruyama step of the full engine is exactly one step of
    the reduced engine on the same increments, so the gap is round-off only."""
    horizon = min(10.0, scen.t_end)
    probe = scen.with_overrides(
        t_end=horizon, sample_times=np.linspace(0.0, horizon, 101)
    )
    K2 = probe.plant.K2[0]
    fol = probe.graph.follower_indices
    lead = probe.graph.leader_index
    worst = 0.0
    for seed in range(probe.base_seed, probe.base_seed + REDUCTION_SEEDS):
        full = sde.simulate_full(probe, seed)
        red = sde.simulate_reduced(probe, seed)
        err = full.states[:, fol, :] - full.states[:, [lead], :]
        worst = max(worst, float(np.abs(red.states - err @ K2).max()))
    return _check("reduction_projection_gap", worst, 1e-10, "<=")


def oracle_deviation_sigmas(mc, oracle) -> float:
    """Largest |mc - oracle| mean-square gap in units of the mc standard error.

    Sample times with zero sampling variance (deterministic initial condition)
    count only if the gap itself is nonzero beyond round-off.
    """
    dev = np.abs(mc.mse - oracle.mse)
    se = mc.stderr
    exact = se == 0.0
    ratio = np.where(exact, np.where(dev <= 1e-9, 0.0, np.inf),
                     dev / np.where(exact, 1.0, se))
    return float(ratio.max())


def check_oracle_agreement(mc, oracle) -> CheckResult:
    """Monte Carlo second moments within 3 standard errors of the moment ODEs."""
    return _check("monte_carlo_oracle_sigmas", oracle_deviation_sigmas(mc, oracle),
                  3.0, "<=")


def check_oracle_slope(scen, oracle) -> CheckResult:
    """Log-log slope of the exact mean-square error on the tail window."""
    fit = fit_power_law(oracle, (scen.t_end / 5.0, scen.t_end))
    dev = np.abs(fit.slope + scen.profile.beta).max()
    return _check("oracle_slope_deviation", dev, 0.15, "<=", surrogate=True)


def check_jordan_recursion() -> CheckResult:
    """Closed-form expm(-u J), u the exact gain integral of a one-agent profile,
    vs RK4 integration of Xi' = -a(t) J Xi on its gain, over random triples."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(JORDAN_TRIPLES):
        lam = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        r = int(rng.integers(1, 5))
        mu, c, d = rng.uniform(0.3, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        profile = make_profile([[mu, c, d]], rng.uniform(0.2, 0.8))
        grid = np.linspace(0.5, 10.0, 8001)
        tm = jordan_transition(lam, r, profile.envelope_integral(0.5, grid))
        ode = jordan_transition_ode(lam, profile.envelope, r, 0.5, grid)
        worst = max(worst, float(np.abs(tm.values - ode).max()))
    return _check("jordan_recursion_vs_ode", worst, 1e-6, "<=")


def check_transition_bound(scen) -> CheckResult:
    """Normalized transition-matrix ratio shows no growth on [1, 1e3]."""
    consts = rate_constants(scen.profile, scen.lap.L2)
    grid = np.geomspace(1.0, 1000.0, 40001)
    lam = consts.lambda_min
    entries = transition_bound_check([(lam, 1), (lam, 3)], scen.profile, consts.eps, grid)
    excess = max(e.tail_log_max - e.head_log_max for e in entries)
    return _check("transition_bound_log_excess", excess, np.log(GROWTH_SLACK), "<=",
                  surrogate=True)


def check_gain_decay(scen) -> tuple[CheckResult, CheckResult]:
    """The integrated-envelope exponential beats the t^(-beta) power law."""
    ratios = decay_dominance_log_ratios(scen.profile, 1.0, [1e2, 1e3, 1e4])
    mono = _check("gain_decay_log_ratio_steps", np.diff(ratios).max(), 0.0, "<=",
                  surrogate=True)
    small = _check("gain_decay_log_ratio_at_1e4", ratios[-1], np.log(1e-2), "<=",
                   surrogate=True)
    return mono, small


def check_filter_tails(scen) -> tuple[CheckResult, CheckResult, CheckResult]:
    """Stable-filter tracking witnesses for constant, exponential-tail and
    power-tail drives."""
    b = scen.plant.K2[0]
    n = b.size - 1
    zstar = 2.0
    roots = np.roots(b[::-1])
    t_end = 50.0 / np.abs(roots.real).min()
    t1 = np.arange(0.0, t_end + 1e-9, 0.01)
    _, s1 = filter_response(b, t1, np.full(t1.size, zstar), np.zeros(n))
    settle = abs(s1[-1, 0] - zstar / b[0]) + np.abs(s1[-1, 1:n]).max() if n > 1 else abs(
        s1[-1, 0] - zstar / b[0]
    )
    const = _check("filter_constant_drive_residual", settle, 1e-4, "<=",
                   surrogate=True)

    t2 = np.arange(0.0, 100.0 + 1e-9, 0.005)
    z2 = zstar + np.exp(-t2 ** scen.profile.beta)
    _, s2 = filter_response(b, t2, z2, np.zeros(n))
    ratio = np.abs(s2[:, 0] - zstar) * np.exp(t2 ** scen.profile.beta)
    head = ratio[(t2 >= 5.0) & (t2 <= 10.0)].max()
    tail = ratio[(t2 >= 50.0) & (t2 <= 100.0)].max()
    exp_tail = _check("filter_exponential_drive_ratio", tail / head, 1.05, "<=",
                      surrogate=True)

    beta = scen.profile.beta
    t3 = np.arange(0.01, 100.0 + 1e-9, 0.005)
    z3 = zstar + t3 ** (-0.5 * beta)
    _, s3 = filter_response(b, t3, z3, np.zeros(n))
    w = (s3[:, 0] - zstar / b[0]) ** 2 * t3 ** beta
    head = w[(t3 >= 5.0) & (t3 <= 10.0)].max()
    tail = w[(t3 >= 50.0) & (t3 <= 100.0)].max()
    pow_tail = _check("filter_power_drive_ratio", tail / head, 1.05, "<=",
                      surrogate=True)
    return const, exp_tail, pow_tail


def run_battery(scen, mc=None, oracle=None) -> VerifyReport:
    """Full property battery for a leader-following scenario.

    ``mc`` and ``oracle`` allow reuse of already-computed moment series (they
    must correspond to the same scenario).
    """
    if scen.leaderless:
        raise ValueError("the verification battery requires a leader-following scenario")
    if mc is None:
        mc = monte_carlo_moments(scen)
    if oracle is None:
        oracle = evolve_moments(scen)
    results = [
        check_follower_spectrum(),
        check_controller_identities(),
        check_reduction_consistency(scen),
        check_oracle_agreement(mc, oracle),
        check_oracle_slope(scen, oracle),
        check_jordan_recursion(),
        check_transition_bound(scen),
        *check_gain_decay(scen),
        *check_filter_tails(scen),
    ]
    return VerifyReport(scenario_hash=scen.fingerprint, results=tuple(results))
