"""Small dense matrix kernels: spectra, companion matrices, Routh-Hurwitz.

Everything here targets desk-scale matrices (dimension <= 64); dense LAPACK
routines via numpy are more than adequate at that size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 64


class NoConvergenceError(RuntimeError):
    """Eigenvalue iteration failed to converge."""


class DegenerateRowError(ValueError):
    """A Routh table row vanished; the polynomial has roots on or near the imaginary axis."""


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # complex, (..., matrix dimension), sorted along the last axis
    min_real_part: float     # over all of them


def eigenvalues(m) -> Spectrum:
    """Eigenvalues of a square real matrix, or of each matrix of a stack
    (..., d, d), together with the smallest real part."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if a.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[-1]} exceeds supported maximum {MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    vals = np.sort_complex(vals)
    return Spectrum(eigenvalues=vals, min_real_part=float(vals.real.min()))


def companion(coeffs) -> np.ndarray:
    """Companion matrix of a monic polynomial given low-to-high coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[-1] != 1.0:
        raise ValueError("need monic coefficients (low to high, leading 1) of degree >= 1")
    deg = c.size - 1
    m = np.zeros((deg, deg))
    m[:-1, 1:] = np.eye(deg - 1)
    m[-1, :] = -c[:-1]
    return m


def is_hurwitz(coeffs) -> bool:
    """Routh-Hurwitz test: True iff all roots have negative real parts.

    ``coeffs`` lists monic polynomial coefficients low to high (leading 1).
    A vanishing pivot row is reported via DegenerateRowError rather than
    perturbed away: marginal stability must surface to the caller.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[-1] != 1.0:
        raise ValueError("need monic coefficients (low to high, leading 1) of degree >= 1")
    # Positivity of every coefficient is necessary for Hurwitz stability.
    if np.any(c <= 0):
        return False
    high_to_low = c[::-1]
    row0 = high_to_low[0::2]
    row1 = high_to_low[1::2]
    width = row0.size
    prev = np.zeros(width)
    prev[: row0.size] = row0
    cur = np.zeros(width)
    cur[: row1.size] = row1
    first_col = [prev[0], cur[0]]
    deg = c.size - 1
    for _ in range(deg - 1):
        if cur[0] == 0.0:
            raise DegenerateRowError("zero pivot in Routh table")
        nxt = np.zeros(width)
        for k in range(width - 1):
            nxt[k] = (cur[0] * prev[k + 1] - prev[0] * cur[k + 1]) / cur[0]
        prev, cur = cur, nxt
        first_col.append(cur[0])
    col = np.array(first_col[: deg + 1])
    if np.any(col == 0.0):
        raise DegenerateRowError("zero entry in Routh first column")
    return bool(np.all(col > 0))
