import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo import data, rng
from isogeo.data import (
    DiscreteNuisanceToy,
    GaussianNuisanceModel,
    LabeledBatch,
    bayes_predictor,
    discrete_nuisance_toy,
    model_batch_source,
    sample,
    sample_blocks,
    sample_stack,
    signal_only_predictor,
    threshold_labels,
)
from isogeo.errors import ShapeError, ValidationError
from isogeo.rng import RngState, normal, uniform


@pytest.fixture
def model():
    return GaussianNuisanceModel.canonical(4, 4, 0.5, 0.1)


class TestModel:
    def test_canonical_directions(self, model):
        assert model.w_s[0] == 1.0 and np.all(model.w_s[1:] == 0)
        assert model.w_n[0] == 1.0

    def test_non_unit_weights_rejected(self):
        with pytest.raises(ValidationError):
            GaussianNuisanceModel(2, 2, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5, 0.1)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValidationError):
            GaussianNuisanceModel.canonical(2, 2, -0.1, 0.1)


class TestSampling:
    def test_rho_zero_kills_nuisance_label_covariance(self):
        m = GaussianNuisanceModel.canonical(4, 4, 0.0, 0.1)
        n = 100_000
        batch, _ = sample(m, n, RngState(2))
        nu = batch.nuisance @ m.w_n
        assert abs(np.mean(batch.y * nu)) < 4.0 / np.sqrt(n)

    def test_label_variance(self, model):
        n = 100_000
        batch, _ = sample(model, n, RngState(3))
        expected = 1.0 + model.rho**2 + model.sigma_eps**2
        se = np.sqrt(2.0 / n) * expected  # variance-of-variance scale
        assert abs(batch.y.var() - expected) < 3 * se

    def test_nuisance_label_coupling_equals_rho(self):
        # E[y <w_n, n>] = rho
        m = GaussianNuisanceModel.canonical(4, 4, 0.5, 0.1)
        n = 100_000
        batch, _ = sample(m, n, RngState(4))
        prods = batch.y * (batch.nuisance @ m.w_n)
        se = prods.std(ddof=1) / np.sqrt(n)
        assert abs(prods.mean() - 0.5) < 3 * se

    def test_column_partition(self, model):
        batch, _ = sample(model, 10, RngState(5))
        assert batch.signal.shape == (10, 4)
        assert batch.nuisance.shape == (10, 4)
        assert np.array_equal(np.hstack([batch.signal, batch.nuisance]), batch.x)

    def test_determinism(self, model):
        a, _ = sample(model, 100, RngState(7))
        b, _ = sample(model, 100, RngState(7))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestPredictors:
    def test_zero_input_zero_prediction(self, model):
        x = np.zeros((3, 8))
        assert np.all(bayes_predictor(model, x) == 0.0)
        assert np.all(signal_only_predictor(model, x) == 0.0)

    def test_bayes_mse_is_noise_floor(self, model):
        n = 100_000
        batch, _ = sample(model, n, RngState(8))
        resid = (bayes_predictor(model, batch.x) - batch.y) ** 2
        se = resid.std(ddof=1) / np.sqrt(n)
        assert abs(resid.mean() - model.sigma_eps**2) < 3 * se

    def test_signal_only_mse(self, model):
        n = 100_000
        batch, _ = sample(model, n, RngState(9))
        resid = (signal_only_predictor(model, batch.x) - batch.y) ** 2
        se = resid.std(ddof=1) / np.sqrt(n)
        assert abs(resid.mean() - (model.rho**2 + model.sigma_eps**2)) < 3 * se

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_gap_equals_rho_squared(self, rho):
        m = GaussianNuisanceModel.canonical(4, 4, rho, 0.1)
        n = 100_000
        batch, _ = sample(m, n, RngState(10))
        diff = (signal_only_predictor(m, batch.x) - batch.y) ** 2 - (
            bayes_predictor(m, batch.x) - batch.y
        ) ** 2
        se = diff.std(ddof=1) / np.sqrt(n)
        assert abs(diff.mean() - rho**2) < 3 * se

    def test_rho_zero_collapse(self):
        m = GaussianNuisanceModel.canonical(3, 3, 0.0, 0.1)
        batch, _ = sample(m, 500, RngState(11))
        assert np.array_equal(
            bayes_predictor(m, batch.x), signal_only_predictor(m, batch.x)
        )

    def test_shape_mismatch(self, model):
        with pytest.raises(ShapeError):
            bayes_predictor(model, np.zeros((2, 5)))


def test_threshold_labels():
    y = np.array([-1.0, 0.0, 0.5, 2.0])
    assert threshold_labels(y).tolist() == [0, 0, 1, 1]


def test_batch_source_protocol(model):
    source = model_batch_source(model)
    states = [RngState(12), RngState(13, 4)]
    x, y, successors = source(states, 16)
    assert x.shape == (2, 16, 8) and y.shape == (2, 16)
    assert len(successors) == 2
    assert all(after != before for after, before in zip(successors, states))


def _reference_sample(model, n, rng):
    """sample as it was before the stacked draw: three normal calls on one
    member's stream, the model equation, then hstack."""
    s, rng = normal(rng, (n, model.d_s))
    nn, rng = normal(rng, (n, model.d_n))
    eps, rng = normal(rng, n, model.sigma_eps)
    y = s @ model.w_s + model.rho * (nn @ model.w_n) + eps
    return np.hstack([s, nn]), y, rng


def _unit_vector(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


STREAMS = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**40)), min_size=1, max_size=7
)


@settings(max_examples=40, deadline=None)
@given(
    streams=STREAMS,
    n=st.integers(1, 9),
    d_s=st.integers(1, 5),
    d_n=st.integers(1, 5),
    sigma_eps=st.sampled_from([0.0, 0.1, 1.5]),
    weights_seed=st.integers(0, 1000),
    chunk=st.sampled_from([None, 2, 5, 8]),
)
@example(
    streams=[(1, 0), (2, 7), (2**64 - 1, 3)], n=40, d_s=3, d_n=5,
    sigma_eps=0.1, weights_seed=1, chunk=5,
)
def test_sample_stack_equals_per_member_samples(
    streams, n, d_s, d_n, sigma_eps, weights_seed, chunk
):
    # General unit weights, so the matmuls round as they would per member.
    # A small chunk puts the draws of up to 45 values across chunk
    # boundaries; the reference draws are made at the real chunk, in one.
    g = np.random.default_rng(weights_seed)
    m = GaussianNuisanceModel(d_s, d_n, _unit_vector(g, d_s), _unit_vector(g, d_n), 0.7, sigma_eps)
    states = [RngState(seed, counter) for seed, counter in streams]
    wants = [_reference_sample(m, n, state) for state in states]
    with mock.patch.object(rng, "_CHUNK", chunk or rng._CHUNK):
        x, y, successors = sample_stack(m, n, states)
        solos = [sample(m, n, state) for state in states]
    assert x.shape == (len(states), n, d_s + d_n) and y.shape == (len(states), n)
    for k, (want_x, want_y, want_next) in enumerate(wants):
        assert x[k].tobytes() == want_x.tobytes()
        assert y[k].tobytes() == want_y.tobytes()
        assert threshold_labels(y)[k].tobytes() == threshold_labels(want_y).tobytes()
        assert successors[k] == want_next
        batch, after = solos[k]
        assert batch.x.tobytes() == want_x.tobytes() and batch.y.tobytes() == want_y.tobytes()
        assert after == want_next


def _general_model(d_s, d_n, seed):
    """Unit weights with no zero entry, so the products round as in use."""
    g = np.random.default_rng(seed)
    return GaussianNuisanceModel(d_s, d_n, _unit_vector(g, d_s), _unit_vector(g, d_n), 0.7, 0.3)


BLOCK = 10


@pytest.mark.parametrize("chunk", [5, None])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 65, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 2])
def test_sample_blocks_reassemble_the_sample(monkeypatch, chunk, n):
    monkeypatch.setattr(data, "_BLOCK_ROWS", BLOCK)
    if chunk:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    m = _general_model(3, 5, n)
    _assert_blocks_reassemble(m, n, BLOCK)


def test_sample_blocks_reassemble_the_sample_at_the_real_block():
    _assert_blocks_reassemble(_general_model(3, 5, 0), 2 * data._BLOCK_ROWS + 2, data._BLOCK_ROWS)


def _assert_blocks_reassemble(m, n, block):
    batch, _ = sample(m, n, RngState(21, 4))
    x, y = np.full_like(batch.x, np.nan), np.full_like(batch.y, np.nan)
    seen = np.zeros(n, dtype=int)
    for rows, xb, yb in sample_blocks(m, n, RngState(21, 4)):
        assert len(rows) == xb.shape[0] == yb.shape[0] <= (n if n % 2 else block)
        x[rows], y[rows] = xb, yb
        seen[rows] += 1
    assert (seen == 1).all()
    assert x.tobytes() == batch.x.tobytes() and y.tobytes() == batch.y.tobytes()


def test_sample_blocks_rejects_an_empty_sample(model):
    with pytest.raises(ValidationError):
        sample_blocks(model, 0, RngState(0))


def _drawn_doubles(monkeypatch, draw) -> collections.Counter:
    """How many times draw() takes each double (seed, counter, index) of
    the Philox streams, logged at every positioned ``random`` call."""
    taken = collections.Counter()
    real = rng._generator

    class Logged:
        def __init__(self, state, skip=0):
            self.state, self.skip = state, skip

        def random(self, out):
            taken.update((self.state.seed, self.state.counter, self.skip + i)
                         for i in range(out.size))
            real(self.state, self.skip).random(out=out)

    with monkeypatch.context() as patch:
        patch.setattr(rng, "_generator", Logged)
        draw()
    return taken


@pytest.mark.parametrize("n", [2, 64, 70])
def test_streamed_sample_draws_the_doubles_of_the_whole_sample(monkeypatch, n):
    monkeypatch.setattr(data, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(rng, "_CHUNK", 5)
    m = _general_model(3, 5, 2)
    whole = _drawn_doubles(monkeypatch, lambda: sample(m, n, RngState(9)))
    streamed = _drawn_doubles(monkeypatch, lambda: list(sample_blocks(m, n, RngState(9))))
    assert streamed == whole
    assert set(whole.values()) == {1} and len(whole) == n * (m.d_in + 1)


def test_sample_memory_is_its_output(model):
    # The rows are drawn into x a window of Box-Muller pairs at a time: no
    # full-size uniform block, Box-Muller output or concatenated copy is
    # held beside x and y.  The first small call makes the one-time
    # allocations (the thread's Philox).
    sample(model, 10, RngState(6))
    tracemalloc.start()
    try:
        batch, _ = sample(model, 200_000, RngState(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (batch.x.nbytes + batch.y.nbytes)


class TestDiscreteToy:
    def test_rows_must_sum_to_one(self):
        bad = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValidationError):
            discrete_nuisance_toy(bad)

    def test_negative_entries_rejected(self):
        bad = np.array([[[1.2, -0.2], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ValidationError):
            discrete_nuisance_toy(bad)

    def test_conditionally_independent_gap_is_zero(self):
        # y depends on s only -> KL gap exactly 0
        table = np.array([[[0.9, 0.1], [0.9, 0.1]], [[0.2, 0.8], [0.2, 0.8]]])
        toy = discrete_nuisance_toy(table)
        assert toy.kl_gap() == pytest.approx(0.0, abs=1e-15)

    def test_gap_matches_hand_enumeration(self):
        # explicit 2x2x2 dependence; compare against the 8-cell hand sum
        table = np.array([[[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]])
        toy = discrete_nuisance_toy(table)
        p_x = np.full((2, 2), 0.25)
        p_ys = np.zeros((2, 2))
        for s in range(2):
            p_s = p_x[s].sum()
            for y in range(2):
                p_ys[s, y] = sum(p_x[s, n] * table[s, n, y] for n in range(2)) / p_s
        hand = 0.0
        for s in range(2):
            for n in range(2):
                for y in range(2):
                    p = table[s, n, y]
                    hand += p_x[s, n] * p * np.log(p / p_ys[s, y])
        assert toy.kl_gap() == pytest.approx(hand, abs=1e-12)

    def test_deterministic_label_gap_is_conditional_entropy(self):
        # y = n deterministically with n a fair coin given s: Delta = H(y|s) = log 2
        table = np.array(
            [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
        )
        toy = discrete_nuisance_toy(table)
        assert toy.kl_gap() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nuisance_condition_classification(self):
        # confounded: n correlates with y only through p_x coupling to s
        table_blind = np.array([[[0.9, 0.1], [0.9, 0.1]], [[0.1, 0.9], [0.1, 0.9]]])
        p_x = np.array([[0.4, 0.1], [0.1, 0.4]])
        # I(n; y | s) = Delta is zero although n predicts y through s
        confounded = DiscreteNuisanceToy(table_blind, p_x)
        assert confounded.kl_gap() == pytest.approx(0.0, abs=1e-14)
        # dependent given s: I(n; y | s) > 0
        table_dep = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.1], [0.2, 0.8]]])
        dependent = discrete_nuisance_toy(table_dep)
        assert dependent.kl_gap() > 1e-3

    def test_sampler_matches_joint(self):
        table = np.array([[[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]])
        toy = discrete_nuisance_toy(table)
        x, y, _ = toy.sample(50_000, RngState(17))
        assert set(np.unique(y)) <= {0, 1}
        assert x.shape == (50_000, 2)
        p_y1 = float(toy.joint()[:, :, 1].sum())
        assert abs(y.mean() - p_y1) < 4.0 / np.sqrt(50_000)

    @staticmethod
    def _reference_sample(toy, n, rng):
        """The toy's sample as it was before the stacked source."""
        S, N, Y = toy.shape
        flat_joint = toy.joint().ravel()
        u, rng = uniform(rng, n)
        idx = np.minimum(np.searchsorted(np.cumsum(flat_joint), u, side="right"),
                         flat_joint.size - 1)
        si, rem = np.divmod(idx, N * Y)
        ni, yi = np.divmod(rem, Y)
        return toy.encode_input(si, ni), yi.astype(np.int64), rng

    @settings(max_examples=25, deadline=None)
    @given(streams=STREAMS, n=st.integers(1, 40), shape=st.tuples(
        st.integers(1, 3), st.integers(1, 3), st.integers(2, 3)), table_seed=st.integers(0, 100))
    def test_batch_source_equals_per_member_samples(self, streams, n, shape, table_seed):
        g = np.random.default_rng(table_seed)
        table = g.dirichlet(np.ones(shape[2]), size=shape[:2])
        toy = DiscreteNuisanceToy(table, g.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape[:2]))
        states = [RngState(seed, counter) for seed, counter in streams]
        x, y, successors = toy.batch_source()(states, n)
        assert x.shape == (len(states), n, 2) and y.shape == (len(states), n)
        for k, state in enumerate(states):
            want_x, want_y, want_next = self._reference_sample(toy, n, state)
            assert x[k].tobytes() == want_x.tobytes() and y[k].tobytes() == want_y.tobytes()
            assert successors[k] == want_next
            solo_x, solo_y, after = toy.sample(n, state)
            assert solo_x.tobytes() == want_x.tobytes() and solo_y.tobytes() == want_y.tobytes()
            assert after == want_next

    def test_support_points(self):
        toy = discrete_nuisance_toy(np.full((2, 3, 2), 0.5))
        pts, probs = toy.support_points()
        assert pts.shape == (6, 2)
        assert probs.sum() == pytest.approx(1.0)
