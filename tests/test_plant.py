import numpy as np
import pytest

from leadfollow.matrices import eigenvalues
from leadfollow.plant import (
    DimensionMismatchError, NotHurwitzError, build_plant, closed_loop_drift,
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
    traj = leader_closed_loop(p, [1.0, 1.0, 1.0, 1.0], 50.0, 1e-3)
    times = np.arange(traj.shape[0]) * 1e-3
    assert traj.shape == (50001, 4)
    assert np.abs(traj[-1, 1:]).max() < 1e-4
    # tail components decay in envelope after the transient
    tail = np.abs(traj[times >= 20.0][:, 1:]).max(axis=1)
    assert np.all(np.diff(tail) <= 1e-12)


def test_leader_limit_trivial_cases():
    p = build_plant([-1.0, 1.0, 0.0, -2.0], [1.0, 3.0, 3.0])
    traj = leader_closed_loop(p, np.zeros(4), 10.0, 1e-3)
    assert np.abs(traj).max() == 0.0

    d = build_plant([0.0, 0.0], [1.0])
    traj = leader_closed_loop(d, [1.0, 0.0], 50.0, 1e-3)
    assert np.allclose(traj[-1], [1.0, 0.0], atol=1e-6)


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
