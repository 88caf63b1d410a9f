"""Top-level acceptance battery.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in the captured output of failures) before asserting, so the
whole battery reads as a checklist.  Criteria that certify tail behavior on a
finite horizon are labeled as surrogates in their line.
"""

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

import leadfollow as lf
from leadfollow import sde, verify

from conftest import edge_noise


def _report(num, name, passed, detail, surrogate=False):
    status = "PASS" if passed else "FAIL"
    tag = " [finite-horizon surrogate]" if surrogate else ""
    print(f"[criterion {num:02d}] {name}: {status} ({detail}){tag}")
    return passed


def _asymptotic_envelope_constant(scen):
    """Leading-order constant C* of E|x_i - x_0|^2 ~ C_i t^(-beta), maximized over i.

    Built from the scenario's own fields and its document's noise section
    (``edge_noise``), without ``sde``, ``moments`` or ``noise_rate``, so that it
    is an independent reference.  The identities K2 (A + B K1) = 0
    and K2 B = 1 reduce follower i's filtered error z_i = K2 (x_i - x_0) to

        dz = -a(t) L2 z dt + a(t) Q^(1/2) dB,   a(t) = diag(a_i(t)) ~ t^(-beta) K,

    with K = diag(profile.k) and Q = diag(q_i), q_i = sum_j w_ij^2 |K2 o rho_ij|^2.
    Its covariance P obeys P' = -a L2 P - P (a L2)^T + a Q a.  Since P' is
    O(t^(-beta-1)) against the O(t^(-2 beta)) right-hand side (beta < 1),
    t^beta P tends to the solution X of (K L2) X + X (K L2)^T = K Q K.  Up to
    terms of lower order, x_i - x_0 lies on the kernel of A + B K1, which is
    spanned by e_1 with K2 e_1 = b_1; so t^beta E|x_i - x_0|^2 -> X_ii / b_1^2.
    """
    fol = scen.graph.follower_indices
    K2 = scen.plant.K2[0]
    q = np.zeros(len(fol))
    for i, j, rho in edge_noise(scen):
        if i in fol:
            q[fol.index(i)] += scen.graph.weights[i, j] ** 2 * np.sum((K2 * rho) ** 2)
    K = np.diag(scen.profile.k)
    X = solve_continuous_lyapunov(K @ scen.lap.L2, K @ np.diag(q) @ K)
    return float(np.max(np.diag(X))) / K2[0] ** 2


def test_criterion_01_envelope_reproduction(fig1, fig1_mc_timed):
    """Trial-averaged mean-square errors against the C* t^(-beta) envelope.

    The paper bounds each follower's mean-square error by O(t^(-beta)) without
    a constant; C* is the model's own asymptotic constant (see
    ``_asymptotic_envelope_constant``), checked on the tail t >= t_end / 5.
    """
    mc, seconds = fig1_mc_timed
    beta = fig1.profile.beta
    C = _asymptotic_envelope_constant(fig1)
    t_min = fig1.t_end / 5.0
    frac = lf.envelope_check(mc, C=C, beta=beta, t_min=t_min)
    runtime_ok = seconds <= 600.0
    frac_ok = bool(np.all(frac <= 0.2))
    ok = _report(
        1, "envelope violation fraction",
        frac_ok and runtime_ok,
        f"C*={C:.3f}, t >= {t_min:g}: "
        f"fractions={np.round(frac, 3).tolist()} threshold=0.2, "
        f"runtime={seconds:.1f}s limit=600s",
    )
    assert ok


def test_criterion_02_mean_square_slope(fig1_oracle):
    fit = lf.fit_power_law(fig1_oracle, (20.0, 100.0))
    ok = bool(np.all((fit.slope >= -0.55) & (fit.slope <= -0.25)))
    _report(2, "oracle log-log slope on [20, 100]", ok,
            f"slopes={np.round(fit.slope, 4).tolist()} band=[-0.55, -0.25]",
            surrogate=True)
    assert ok


def test_criterion_03_oracle_equivalence(fig1_mc, fig1_oracle):
    sigmas = verify.oracle_deviation_sigmas(fig1_mc, fig1_oracle)
    ok = sigmas <= 3.0
    _report(3, "Monte Carlo vs moment oracle", ok,
            f"max deviation={sigmas:.3f} standard errors, limit=3")
    assert ok


def test_criterion_04_pathwise_reduction(fig1):
    st = np.linspace(0.0, 10.0, 101)
    K2 = fig1.plant.K2[0]

    def gap(dt):
        scen = fig1.with_overrides(t_end=10.0, dt=dt, sample_times=st)
        full = lf.simulate_full(scen, 42)
        red = lf.simulate_reduced(scen, 42)
        err = full.states[:, 1:, :] - full.states[:, [0], :]
        return float(np.abs(red.states - err @ K2).max())

    # K2 (A + B K1) = 0 and K2 B K2 = K2 make each projected Euler-Maruyama
    # step of the full engine exactly a step of the reduced one on the same
    # increments, so the gap is round-off at every dt.
    g1, g2 = gap(1e-3), gap(5e-4)
    ok = g1 <= 1e-10 and g2 <= 1e-10
    _report(4, "shared-noise reduction identity", ok,
            f"gap(dt=1e-3)={g1:.3e}, gap(dt=5e-4)={g2:.3e}, limit=1e-10")
    assert ok


def test_criterion_05_follower_spectra():
    res = verify.check_follower_spectrum()
    _report(5, "spanning-tree spectra (100 graphs x 10 diagonals)", res.passed,
            f"min real part={res.value:.3e} threshold>{res.threshold:.0e}")
    assert res.passed


def test_criterion_06_controller_identities():
    res = verify.check_controller_identities()
    _report(6, "controller identities on random plants", res.passed,
            f"max residual={res.value:.3e} tol={res.threshold:.0e}")
    assert res.passed


def test_criterion_07_transition_recursion():
    res = verify.check_jordan_recursion()
    _report(7, "closed-form Jordan transitions vs ODE oracle", res.passed,
            f"max entry error={res.value:.3e} tol={res.threshold:.0e}")
    assert res.passed


def test_criterion_08_transition_bounds(fig1):
    res = verify.check_transition_bound(fig1)
    _report(8, "normalized transition ratio no-growth on [1, 1e3]", res.passed,
            f"tail-head log excess={res.value:.3f} limit={res.threshold:.4f}",
            surrogate=True)
    assert res.passed


def test_criterion_09_gain_decay_dominance(fig1):
    mono, small = verify.check_gain_decay(fig1)
    ok = mono.passed and small.passed
    _report(9, "integrated-envelope dominance over t^(-0.4)", ok,
            f"max log-ratio step={mono.value:.1f} (<0), "
            f"log-ratio at 1e4={small.value:.1f} (<{small.threshold:.2f})",
            surrogate=True)
    assert ok


def test_criterion_10_filter_witnesses(fig1):
    const, exp_tail, pow_tail = verify.check_filter_tails(fig1)
    ok = const.passed and exp_tail.passed and pow_tail.passed
    _report(10, "stable-filter tail propagation", ok,
            f"constant drive residual={const.value:.2e}, "
            f"exp-tail ratio={exp_tail.value:.3f}, "
            f"power-tail ratio={pow_tail.value:.3f} (limits 1e-4, 1.05, 1.05)",
            surrogate=True)
    assert ok


def test_criterion_11_leaderless_counterexample(fig1, fig2):
    # Growth is a claim about the noise-driven spread, which a single path
    # sees only on some streams (about four in five pass a head/tail norm
    # witness, and the noiseless path passes it too).  So the ensemble
    # variance tr Cov(x_i) over 32 independent trials (trial 0 is the path
    # of simulate_full at the preset seed, up to round-off) must grow from
    # (0, 10] to [150, 200] for every agent.  It is zero, and fails, without
    # noise: the paths are shifted by trial 0 first, so identical trials give
    # an exact zero rather than the round-off of their mean.
    t2 = fig2.sample_times
    paths = sde._run_full(fig2, fig2.base_seed, 32)
    spread = (paths - paths[:1]).var(axis=0).sum(axis=2)
    head = spread[(t2 > 0) & (t2 <= 10.0)].mean(axis=0)
    tail = spread[(t2 >= 150.0) & (t2 <= 200.0)].mean(axis=0)
    grew = bool(np.all(tail > head))

    traj1 = lf.simulate_full(fig1, fig1.base_seed)
    norms1 = np.linalg.norm(traj1.states, axis=2)
    leader_max = norms1[:, 0].max()
    tail_mean1 = norms1[traj1.times >= 80.0].mean(axis=0)
    bounded = bool(np.all(tail_mean1 <= 2.0 * leader_max + 1.0))

    ok = grew and bounded
    _report(11, "leaderless growth vs leader-following boundedness", ok,
            f"leaderless ensemble variance tail/head min ratio="
            f"{np.min(tail / head):.2f} over 32 trials; "
            f"leader-following tail max={tail_mean1.max():.2f} "
            f"bound={2.0 * leader_max + 1.0:.2f}")
    assert ok
