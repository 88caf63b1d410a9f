"""Canonical-form agent dynamics and the consensus controller vectors.

Every agent shares the single-input companion-form plant

    x' = A x + B u,      A = companion((-alpha, 1)),  B = e_n,

and the controller splits into a local part K1 = (-alpha_1, -alpha_2 - b_1, ...,
-alpha_n - b_{n-1}) and a relative part K2 = (b_1, ..., b_{n-1}, 1).  Two
algebraic identities make the whole analysis work: K2 (A + B K1) = 0 and
K2 B K2 = K2; both are checked at construction time.

Since B K2 = e_n K2 has rank one, the coupled closed loop of M agents,
F(a) = I_M (x) (A + B K1) - diag(a) L (x) B K2, differs from its uncoupled
part only in the last row of each agent block; ``closed_loop_drift`` builds
F(a) from that structure for the simulator, the moment oracle and scenario
validation alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DegenerateRowError, companion, frozen_copy, is_hurwitz

IDENTITY_TOL = 1e-12


class PlantError(ValueError):
    pass


class DimensionMismatchError(PlantError):
    pass


class NotHurwitzError(PlantError):
    pass


@dataclass(frozen=True)
class PlantModel:
    n: int
    alpha: np.ndarray        # (n,)
    b: np.ndarray            # (n-1,)
    A: np.ndarray            # (n, n) companion form
    B: np.ndarray            # (n, 1)
    K1: np.ndarray           # (1, n)
    K2: np.ndarray           # (1, n); K2[0] is the design polynomial, low to high

    @property
    def closed_loop_A(self) -> np.ndarray:
        """A + B K1, the leader's autonomous dynamics matrix."""
        return self.A + self.B @ self.K1


@dataclass(frozen=True)
class ClosedLoopDrift:
    """The drift F(a) of M coupled agents, as a function of their gains a.

    F(a) is ``base`` = I_M (x) (A + B K1) with each row ``last[p]`` (the last
    component of agent p) lowered by a_p times row p of ``coupling`` = L (x) K2.
    """

    base: np.ndarray      # (Mn, Mn)
    coupling: np.ndarray  # (M, Mn)
    last: np.ndarray      # (M,) int

    def __call__(self, a) -> np.ndarray:
        """F for gains ``a`` of shape (..., M); returns shape (..., Mn, Mn)."""
        a = np.asarray(a, dtype=float)
        F = np.empty(a.shape[:-1] + self.base.shape)
        F[...] = self.base
        F[..., self.last, :] = self.base[self.last] - a[..., :, None] * self.coupling
        return F


def closed_loop_drift(plant: PlantModel, L) -> ClosedLoopDrift:
    """Drift of the agents whose Laplacian block (rows and columns) is ``L``."""
    L = np.asarray(L, dtype=float)
    M, n = L.shape[0], plant.n
    last = np.arange(M) * n + (n - 1)
    last.setflags(write=False)
    return ClosedLoopDrift(
        base=frozen_copy(np.kron(np.eye(M), plant.closed_loop_A)),
        coupling=frozen_copy(np.kron(L, plant.K2)), last=last,
    )


def require_hurwitz(poly, what: str) -> None:
    """Raise NotHurwitzError unless the monic ``poly`` (low to high) is Hurwitz."""
    try:
        stable = is_hurwitz(poly)
    except DegenerateRowError as exc:
        raise NotHurwitzError(f"marginally stable {what}: {exc}") from exc
    if not stable:
        raise NotHurwitzError(f"{what} has a root with nonnegative real part")


def build_plant(alpha, b) -> PlantModel:
    """Assemble the companion plant and controller vectors, checking stability.

    The design vector b must make s^{n-1} + b_{n-1} s^{n-2} + ... + b_1 Hurwitz;
    otherwise NotHurwitzError is raised.
    """
    alpha = np.asarray(alpha, dtype=float)
    b = np.asarray(b, dtype=float)
    n = alpha.size
    if n < 2:
        raise DimensionMismatchError(f"state dimension must be >= 2, got {n}")
    if b.size != n - 1:
        raise DimensionMismatchError(f"expected {n - 1} design parameters, got {b.size}")
    require_hurwitz(np.concatenate([b, [1.0]]), "design polynomial")

    A = companion(np.concatenate([-alpha, [1.0]]))
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    K1 = np.zeros((1, n))
    K1[0, 0] = -alpha[0]
    K1[0, 1:] = -alpha[1:] - b
    K2 = np.concatenate([b, [1.0]]).reshape(1, n)

    resid1 = np.abs(K2 @ (A + B @ K1)).max()
    resid2 = np.abs(K2 @ B @ K2 - K2).max()
    if resid1 > IDENTITY_TOL or resid2 > IDENTITY_TOL:
        raise PlantError(
            f"controller identities violated: |K2(A+BK1)|={resid1:.3e}, |K2BK2-K2|={resid2:.3e}"
        )
    return PlantModel(
        n=n, alpha=frozen_copy(alpha), b=frozen_copy(b), A=frozen_copy(A), B=frozen_copy(B),
        K1=frozen_copy(K1), K2=frozen_copy(K2),
    )


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Moler & Van Loan, SIAM Review
    45(1), 2003): the Taylor series to degree 18 on m / 2^s, with s the least
    count that makes ||m / 2^s||_1 <= 1/2 (remainder below 2e-23), then s
    squarings.  A non-finite m gives a non-finite result.  Not a general-purpose
    expm: it loses the diagonal when a huge off-diagonal entry dominates ||m||_1
    (I + 1e20 e_0 e_1^T gives 1, not e).  Its one caller passes (A + B K1) dt,
    which scenario validation keeps small: dt ||F(a(0))||_2 <= 1."""
    norm = np.abs(m).sum(axis=0).max()
    # norm = f 2^e with f in [1/2, 1); frexp gives e = 0 for inf and nan.
    f, e = np.frexp(norm)
    s = int(e) + int(f > 0.5) if norm > 0.5 else 0
    a = np.ldexp(m, -s)
    eye = np.eye(m.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = eye
        for k in range(18, 0, -1):
            out = eye + (a @ out) / k
        for _ in range(s):
            out = out @ out
    return out


def leader_closed_loop(plant: PlantModel, x0_init, steps, dt: float) -> np.ndarray:
    """The leader's autonomous closed loop x0' = (A + B K1) x0 at the step
    counts ``steps``: row i is x0(steps[i] dt), shape (len(steps), n).

    x0(k dt) = Phi^k x0, Phi = expm((A + B K1) dt) from ``_expm`` (no scipy),
    by binary powering: for each bit j of k, lowest first, the rows with bit j
    set take Phi^(2^j), which is then squared.  A row depends on its own k
    alone, bit for bit; the cost is O(len(steps) log max(steps))."""
    x0 = np.asarray(x0_init, dtype=float)
    if x0.shape != (plant.n,):
        raise DimensionMismatchError(f"initial state must have shape ({plant.n},)")
    k = np.asarray(steps, dtype=np.int64)
    if (k < 0).any():
        raise ValueError("step counts must be nonnegative")
    out = np.tile(x0, (k.size, 1))
    power = _expm(plant.closed_loop_A * dt)
    while k.any():
        odd = (k & 1).astype(bool)
        out[odd] = np.einsum("ij,sj->si", power, out[odd])
        k = k >> 1
        power = power @ power
    return out
