import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import leadfollow
from leadfollow import sde
from leadfollow.matrices import eigenvalues
from leadfollow.plant import (
    DimensionMismatchError, NotHurwitzError, _expm, build_plant, closed_loop_drift,
    leader_closed_loop,
)
from leadfollow.topology import laplacian_partition, random_spanning_tree_digraph

from conftest import dense_drift


def test_reference_plant_controllers():
    p = build_plant([-1.0, 1.0, 0.0, -2.0], [1.0, 3.0, 3.0])
    assert np.array_equal(p.K1, [[1.0, -2.0, -3.0, -1.0]])
    assert np.array_equal(p.K2, [[1.0, 3.0, 3.0, 1.0]])
    assert np.array_equal(p.A[-1], [-1.0, 1.0, 0.0, -2.0])
    assert np.array_equal(p.A[:-1, 1:], np.eye(3))
    assert np.array_equal(p.B.ravel(), [0.0, 0.0, 0.0, 1.0])


def test_double_integrator_plant():
    p = build_plant([0.0, 0.0], [1.0])
    assert np.array_equal(p.A, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(p.K1, [[0.0, -1.0]])
    assert np.array_equal(p.K2, [[1.0, 1.0]])


def test_plant_rejections():
    with pytest.raises(NotHurwitzError):
        build_plant([0.0, 0.0], [-1.0])
    with pytest.raises(DimensionMismatchError):
        build_plant([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        build_plant([0.0], [])


def _random_plant(rng):
    n = int(rng.integers(2, 7))
    alpha = rng.uniform(-2.0, 2.0, size=n)
    roots = -rng.uniform(0.2, 3.0, size=n - 1)
    b = np.polynomial.polynomial.polyfromroots(roots).real[:-1]
    return build_plant(alpha, b)


def test_controller_identities_random_plants():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = _random_plant(rng)
        assert np.abs(p.K2 @ p.closed_loop_A).max() <= 1e-12
        assert np.abs(p.K2 @ p.B @ p.K2 - p.K2).max() <= 1e-12


def test_closed_loop_spectrum_structure():
    """A + B K1 has exactly the roots of the design polynomial plus one zero."""
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = _random_plant(rng)
        spec = np.sort_complex(eigenvalues(p.closed_loop_A).eigenvalues)
        expected = np.roots(p.K2[0][::-1])
        expected = np.sort_complex(np.concatenate([expected, [0.0]]))
        assert np.allclose(spec, expected, atol=1e-6)


def test_reference_closed_loop_spectrum():
    p = build_plant([-1.0, 1.0, 0.0, -2.0], [1.0, 3.0, 3.0])
    spec = np.sort_complex(eigenvalues(p.closed_loop_A).eigenvalues)
    assert np.allclose(spec, [-1.0, -1.0, -1.0, 0.0], atol=1e-6)


def test_leader_limit_reference_plant():
    p = build_plant([-1.0, 1.0, 0.0, -2.0], [1.0, 3.0, 3.0])
    traj = leader_closed_loop(p, [1.0, 1.0, 1.0, 1.0], np.arange(50001), 1e-3)
    times = np.arange(traj.shape[0]) * 1e-3
    assert traj.shape == (50001, 4)
    assert np.abs(traj[-1, 1:]).max() < 1e-4
    # tail components decay in envelope after the transient
    tail = np.abs(traj[times >= 20.0][:, 1:]).max(axis=1)
    assert np.all(np.diff(tail) <= 1e-12)


def test_leader_limit_trivial_cases():
    p = build_plant([-1.0, 1.0, 0.0, -2.0], [1.0, 3.0, 3.0])
    traj = leader_closed_loop(p, np.zeros(4), np.arange(10001), 1e-3)
    assert np.abs(traj).max() == 0.0

    d = build_plant([0.0, 0.0], [1.0])
    traj = leader_closed_loop(d, [1.0, 0.0], np.arange(50001), 1e-3)
    assert np.allclose(traj[-1], [1.0, 0.0], atol=1e-6)


def test_leader_matches_scipy_at_fig1_samples(fig1):
    """x0(k dt) agrees with expm((A + B K1) k dt) x0 to 1e-12 relative at
    every sample step of the bundled scenario."""
    x0 = fig1.init_states[fig1.graph.leader_index]
    steps = fig1.sample_steps()
    traj = leader_closed_loop(fig1.plant, x0, steps, fig1.dt)
    for k, x in zip(steps, traj):
        ref = expm(fig1.plant.closed_loop_A * (k * fig1.dt)) @ x0
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_leader_matches_scipy_random_plants():
    """On 20 random plants and initial states, x0(k dt) agrees with
    expm((A + B K1) k dt) x0 to 1e-10 |x0| for k up to 1e7."""
    rng = np.random.default_rng(14)
    steps = np.concatenate([[0, 1, 2, 3], np.unique(np.geomspace(5, 1e7, 40).astype(int))])
    dt = 1e-3
    for _ in range(20):
        p = _random_plant(rng)
        x0 = rng.standard_normal(p.n)
        traj = leader_closed_loop(p, x0, steps, dt)
        for k, x in zip(steps, traj):
            ref = expm(p.closed_loop_A * (k * dt)) @ x0
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(x0)


def test_leader_row_depends_on_its_step_alone(fig1):
    """A row is bit-identical whatever the other requested steps are: under
    a permutation, a subset and a single step."""
    x0 = fig1.init_states[fig1.graph.leader_index]
    steps = np.array([0, 1, 7, 512, 4096, 33333, 99999, 100000, 10 ** 7])
    full = leader_closed_loop(fig1.plant, x0, steps, fig1.dt)
    perm = np.random.default_rng(3).permutation(steps.size)
    assert np.array_equal(leader_closed_loop(fig1.plant, x0, steps[perm], fig1.dt), full[perm])
    assert np.array_equal(leader_closed_loop(fig1.plant, x0, steps[1::3], fig1.dt), full[1::3])
    for i, k in enumerate(steps):
        assert np.array_equal(leader_closed_loop(fig1.plant, x0, [k], fig1.dt)[0], full[i])


def test_leader_rejections(fig1):
    p = fig1.plant
    with pytest.raises(ValueError):
        leader_closed_loop(p, np.ones(4), [0, 3, -1], 1e-3)
    with pytest.raises(DimensionMismatchError):
        leader_closed_loop(p, np.ones(3), [0, 3], 1e-3)


def test_expm_matches_scipy(fig1, fig2):
    """The leader's propagator agrees with scipy's expm to round-off in the
    1-norm, on the presets' leader matrices and on 200 random plants, also
    where ||m dt||_1 > 1/2 makes it square."""
    rng = np.random.default_rng(13)
    plants = [fig1.plant, fig2.plant] + [_random_plant(rng) for _ in range(200)]
    squared = 0
    for p in plants:
        for dt, tol in ((1e-3, 1e-15), (1e-2, 1e-15), (0.1, 1e-13), (1.0, 1e-13)):
            m = p.closed_loop_A * dt
            ref = expm(m)
            err = np.abs(_expm(m) - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()
            assert err <= tol
            squared += np.abs(m).sum(axis=0).max() > 0.5
    assert squared >= 200


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_expm_nonfinite_input_gives_nonfinite_result(bad):
    """No OverflowError and no RuntimeWarning: the non-finite entry shows."""
    m = np.eye(3)
    m[0, 2] = bad
    assert not np.isfinite(_expm(m)).all()


def _drift_cases(fig1, fig2):
    """(plant, Laplacian block) pairs: the presets and random spanning-tree
    digraphs with random Hurwitz designs."""
    cases = [(fig1.plant, fig1.lap.L2), (fig2.plant, fig2.lap.full)]
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = random_spanning_tree_digraph(int(rng.integers(3, 8)), rng)
        cases.append((_random_plant(rng), laplacian_partition(g).L2))
    return cases


def test_closed_loop_drift_matches_dense_form(fig1, fig2):
    """The rank-1 drift assembly equals the dense Kronecker reference, for
    single and batched gain vectors."""
    rng = np.random.default_rng(12)
    for plant, L in _drift_cases(fig1, fig2):
        drift = closed_loop_drift(plant, L)
        a = rng.uniform(0.05, 3.0, size=(3, L.shape[0]))
        batch = drift(a)
        assert batch.shape == (3, L.shape[0] * plant.n, L.shape[0] * plant.n)
        for k in range(3):
            ref = dense_drift(plant, L, a[k])
            tol = 1e-13 * np.linalg.norm(ref, 2)
            assert np.abs(drift(a[k]) - ref).max() <= tol
            assert np.abs(batch[k] - ref).max() <= tol


def test_reduced_drift_is_the_filtered_error_drift(fig1):
    """The drift the reduced engine steps is -diag(a) L2, and (I_N (x) K2)
    intertwines it with the followers' full drift:
    (I_N (x) K2) F(a) = F_red(a) (I_N (x) K2), at zero and at random gains."""
    L2 = fig1.lap.L2
    N = L2.shape[0]
    full, red = fig1.drift(), sde._reduced_drift(fig1)
    proj = np.kron(np.eye(N), fig1.plant.K2)
    rng = np.random.default_rng(13)
    for a in [np.zeros(N), *rng.uniform(0.05, 3.0, size=(3, N))]:
        assert np.abs(red(a) + np.diag(a) @ L2).max() <= 1e-12
        assert np.abs(proj @ full(a) - red(a) @ proj).max() <= 1e-12


def test_runs_do_not_import_scipy_linalg():
    """The leader's propagator is numpy's own: a forked Monte Carlo run, the
    moment oracle and the reduction check leave scipy.linalg unimported."""
    code = ("import sys, leadfollow; "
            "from leadfollow import moments, rates, sde, verify; "
            "sde.WORKERS = 2; "
            "scen = leadfollow.load_scenario(leadfollow.scenario.preset_path('fig1')); "
            "scen = scen.with_overrides(t_end=1.0, trials=4, sample_times=[0.5, 1.0]); "
            "rates.monte_carlo_moments(scen); moments.evolve_moments(scen); "
            "assert verify.check_reduction_consistency(scen).passed; "
            "print('scipy.linalg' in sys.modules)")
    path = [str(Path(leadfollow.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"
