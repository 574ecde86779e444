"""Validating array constructors and Gram-Schmidt projection.

Matrices are plain float64 ndarrays; :func:`as_matrix` is the validating
constructor that enforces finiteness at the public boundary.  Spectral norms
and symmetric eigendecompositions come from numpy's LAPACK bindings
(``np.linalg.norm(w, 2)``, ``np.linalg.eigh``) at their call sites.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateDirectionError, ValidationError

ORTHO_TOL = 1e-10
DEGENERATE_TOL = 1e-12


def as_matrix(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Validate and convert to a finite 2-D float64 array; ``stacked``
    takes a 3-D stack of matrices, one per model."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 + stacked:
        raise ValidationError(f"{name} must be {2 + stacked}-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains NaN or Inf")
    return m


def as_vector(a, name: str = "vector", stacked: bool = False) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array; ``stacked``
    takes a 2-D stack of vectors, one per model."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 1 + stacked:
        raise ValidationError(f"{name} must be {1 + stacked}-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains NaN or Inf")
    return m


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

