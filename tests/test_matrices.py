import numpy as np
import pytest

from leadfollow.matrices import DegenerateRowError, companion, eigenvalues, is_hurwitz
from leadfollow.topology import build_digraph, laplacian_partition

from conftest import fig1_weights


def _sorted(vals):
    return np.sort_complex(np.asarray(vals, dtype=complex))


def test_reference_follower_block_spectrum():
    lap = laplacian_partition(build_digraph(fig1_weights(), 0))
    spec = eigenvalues(lap.L2)
    assert np.allclose(_sorted(spec.eigenvalues), [1.0, 2.0, 2.0, 2.0], atol=1e-9)
    assert spec.min_real_part == pytest.approx(1.0, abs=1e-9)


def test_identity_and_rotation_spectra():
    spec = eigenvalues(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(_sorted(spec.eigenvalues), [-1j, 1j], atol=1e-12)
    assert spec.min_real_part == pytest.approx(0.0, abs=1e-12)


def test_spectrum_trace_and_determinant():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        m = rng.standard_normal((dim, dim))
        vals = eigenvalues(m).eigenvalues
        assert np.sum(vals).real == pytest.approx(np.trace(m), rel=1e-7, abs=1e-7)
        det = np.linalg.det(m)
        assert np.prod(vals).real == pytest.approx(det, rel=1e-6, abs=1e-6 * max(1, abs(det)))


def test_hurwitz_examples():
    # s^3 + 3 s^2 + 3 s + 1 = (s+1)^3
    assert is_hurwitz([1.0, 3.0, 3.0, 1.0])
    assert not is_hurwitz([1.0, 0.0, 1.0])  # s^2 + 1
    assert is_hurwitz([1.0, 1.0])           # s + 1


def test_hurwitz_degenerate_row():
    # s^3 + s^2 + s + 1 has roots at -1 and +-i; the table degenerates
    with pytest.raises(DegenerateRowError):
        is_hurwitz([1.0, 1.0, 1.0, 1.0])


def test_hurwitz_agrees_with_companion_spectrum():
    rng = np.random.default_rng(12)
    checked = stable_count = 0
    while checked < 100:
        deg = int(rng.integers(1, 7))
        coeffs = np.concatenate([rng.uniform(-3.0, 3.0, size=deg), [1.0]])
        m = companion(coeffs)
        max_real = np.max(eigenvalues(m).eigenvalues.real)
        if abs(max_real) < 1e-3:
            continue  # skip near-marginal polynomials
        try:
            verdict = is_hurwitz(coeffs)
        except DegenerateRowError:
            continue
        assert verdict == (max_real < 0)
        checked += 1
        stable_count += verdict
    assert 0 < stable_count < 100
