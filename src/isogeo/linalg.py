"""Dense kernels: power-iteration spectral norm, Gram-Schmidt projection,
and a cyclic Jacobi eigensolver for small symmetric matrices.

Matrices are plain float64 ndarrays; :func:`as_matrix` is the validating
constructor that enforces finiteness at the public boundary.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDirectionError, EigenSolverError, ValidationError
from .rng import RngState, normal

ORTHO_TOL = 1e-10
DEGENERATE_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains NaN or Inf")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains NaN or Inf")
    return m


class PowerIterResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


# Fixed internal stream for the one random restart; independent of user seeds
# so spectral-norm estimates never vary with experiment configuration.
_RESTART_STREAM = RngState(0xD1A60)


def spectral_norm(m, max_iters: int = 500, tol: float = 1e-10) -> PowerIterResult:
    """Largest singular value via power iteration on the Gram matrix.

    Starts from the deterministic normalized all-ones vector and performs one
    fixed pseudo-random restart, keeping whichever estimate is larger; this
    guards against a start vector orthogonal to the top singular direction
    without making the estimate seed-dependent.  A zero matrix returns 0
    exactly without iterating.
    """
    a = as_matrix(m)
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    if a.size == 0:
        raise ValidationError("matrix must be nonempty")
    if not np.any(a):
        return PowerIterResult(0.0, True, 0)

    # Iterate on the smaller Gram matrix.
    gram = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    d = gram.shape[0]

    def run(v0: np.ndarray) -> PowerIterResult:
        v = v0 / np.linalg.norm(v0)
        est = 0.0
        for it in range(1, max_iters + 1):
            w = gram @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:  # v landed in the null space; restart handles this
                return PowerIterResult(0.0, False, it)
            new_est = np.sqrt(nw)  # ||gram v|| -> sigma_max^2 for unit v
            v = w / nw
            if est > 0.0 and abs(new_est - est) <= tol * est:
                return PowerIterResult(float(new_est), True, it)
            est = new_est
        return PowerIterResult(float(est), False, max_iters)

    first = run(np.ones(d))
    r0, _ = normal(_RESTART_STREAM, d)
    second = run(r0)
    best = first if first.value >= second.value else second
    return PowerIterResult(best.value, first.converged or second.converged, best.iterations)


def gram_schmidt_project_out(basis: Sequence[np.ndarray], v) -> np.ndarray:
    """Component of v orthogonal to an orthonormal basis, renormalized.

    The basis vectors must be unit-norm and mutually orthogonal within
    ORTHO_TOL.  Raises DegenerateDirectionError when v lies in the span of
    the basis (residual norm below DEGENERATE_TOL).
    """
    vec = as_vector(v, "v")
    us = [as_vector(u, "basis vector") for u in basis]
    for i, u in enumerate(us):
        if abs(np.linalg.norm(u) - 1.0) > ORTHO_TOL:
            raise ValidationError(f"basis vector {i} is not unit-norm")
        if u.shape != vec.shape:
            raise ValidationError("basis vector dimension does not match v")
        for j in range(i):
            if abs(us[j] @ u) > ORTHO_TOL:
                raise ValidationError(f"basis vectors {j} and {i} are not orthogonal")
    r = vec.copy()
    for _ in range(2):  # second pass removes first-pass roundoff
        for u in us:
            r -= (u @ r) * u
    norm = np.linalg.norm(r)
    if norm < DEGENERATE_TOL:
        raise DegenerateDirectionError(
            f"direction lies in the span of the basis (residual norm {norm:.3e})"
        )
    return r / norm


def jacobi_eigh(
    s, tol: float = 1e-12, max_sweeps: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the strict upper triangle in fixed row-major order, so the result
    is a deterministic function of the input.  Returns (eigenvalues,
    eigenvectors) sorted by descending eigenvalue, eigenvectors as columns.
    Raises EigenSolverError with the sweep count if the off-diagonal mass
    does not fall below tol * ||s||_F.
    """
    a = as_matrix(s, "symmetric matrix").copy()
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValidationError(f"matrix must be square, got {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValidationError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    scale = max(np.linalg.norm(a), 1e-300)

    def off(mat):
        # norm of the off-diagonal part, computed directly (the subtraction
        # form sqrt(||A||^2 - ||diag||^2) floors at sqrt(ulp) and never
        # reaches tight tolerances)
        return np.linalg.norm(mat - np.diag(np.diag(mat)))

    sweeps = 0
    while off(a) > tol * scale:
        if sweeps >= max_sweeps:
            raise EigenSolverError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal {off(a):.3e})",
                iterations=sweeps,
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale / (n * n):
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                sn = t * c
                rot_p = c * a[:, p] - sn * a[:, q]
                rot_q = sn * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - sn * a[q, :]
                rot_q = sn * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - sn * v[:, q]
                rot_q = sn * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
        sweeps += 1
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]
