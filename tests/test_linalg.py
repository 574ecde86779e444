import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.errors import DegenerateDirectionError, ValidationError
from isogeo.linalg import as_matrix, gram_schmidt_project_out
from isogeo.rng import RngState, gaussian_matrix, normal


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValidationError):
        as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValidationError):
        as_matrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValidationError):
        as_matrix(np.ones(3))


class TestGramSchmidt:
    def test_already_orthogonal(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        out = gram_schmidt_project_out([e1], e2)
        assert np.allclose(out, e2, atol=1e-12)

    def test_mixed_vector(self):
        e1 = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        out = gram_schmidt_project_out([e1], v)
        assert np.allclose(out, [0.0, 1.0], atol=1e-12)

    def test_vector_in_span_raises(self):
        e1 = np.array([1.0, 0.0])
        with pytest.raises(DegenerateDirectionError):
            gram_schmidt_project_out([e1], e1)

    def test_result_orthogonal_and_unit(self):
        basis = [np.eye(6)[i] for i in range(3)]
        v, _ = normal(RngState(3), 6)
        out = gram_schmidt_project_out(basis, v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        for u in basis:
            assert abs(u @ out) < 1e-10

    def test_non_orthogonal_basis_rejected(self):
        u1 = np.array([1.0, 0.0])
        u2 = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(ValidationError):
            gram_schmidt_project_out([u1, u2], np.array([0.0, 1.0]))

    def test_non_unit_basis_rejected(self):
        with pytest.raises(ValidationError):
            gram_schmidt_project_out([np.array([2.0, 0.0])], np.array([0.0, 1.0]))


# Sub-block inequality: ||A v||^2 <= ||A||_F^2 for any unit v (property test).
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_subblock_inequality_property(seed, m, d):
    a, rng = gaussian_matrix(RngState(seed), m, d, 1.0)
    v, _ = normal(rng, d)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return
    v = v / norm
    assert np.sum((a @ v) ** 2) <= np.sum(a**2) + 1e-12
