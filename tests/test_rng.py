import dataclasses
import hashlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo import rng
from isogeo.errors import ValidationError
from isogeo.rng import (
    RngState,
    _generator,
    _normal_into,
    choice_without_replacement,
    derive,
    gaussian_matrix,
    normal,
    normal_stack,
    uniform,
)


def test_sigma_zero_gives_exact_zeros():
    m, nxt = gaussian_matrix(RngState(0), 4, 7, 0.0)
    assert m.shape == (4, 7)
    assert np.all(m == 0.0)
    assert nxt.counter == 1


def test_identical_state_identical_output():
    a, _ = gaussian_matrix(RngState(7), 13, 5, 2.5)
    b, _ = gaussian_matrix(RngState(7), 13, 5, 2.5)
    assert np.array_equal(a, b)


def test_successive_states_differ():
    a, nxt = normal(RngState(7), 100)
    b, _ = normal(nxt, 100)
    assert not np.array_equal(a, b)


def test_moments_oracle():
    # 1e5 draws at sigma=1: mean within 4/sqrt(n), variance within 5%.
    n = 100_000
    z, _ = normal(RngState(123), n)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.05


def test_sigma_scales_draws():
    z1, _ = normal(RngState(5), 50_000, 1.0)
    z3, _ = normal(RngState(5), 50_000, 3.0)
    assert np.allclose(z3, 3.0 * z1)


@pytest.mark.parametrize(
    "rows,cols",
    [
        (6 * rng._CHUNK // 16, 16),  # even rows: three windows of whole rows
        (7, 5),  # odd rows of several columns: one block of all pairs
        (2 * rng._CHUNK + 3, 1),  # one odd column: two windows
    ],
)
def test_sigma_draw_is_sigma_times_unit_draw_bit_for_bit(rows, cols):
    # diagnostics.tdi scales one unit draw to every sigma of its grid:
    # fl(fl(r cos) * sigma) is sigma * fl(fl(r cos) * 1), so no bit moves.
    state = RngState(31, 2)
    unit = np.empty((1, rows, cols))
    _normal_into((state,), unit, (1.0,))
    flat, _ = normal(state, (rows, cols), 1.0)
    for sigma in (1e-5, 3e-3, 0.01, 0.05, 0.2, 1.0, 7.5, 4e2, 1e6):
        z = np.empty_like(unit)
        _normal_into((state,), z, (sigma,))
        assert z.tobytes() == (sigma * unit).tobytes()
        assert normal(state, (rows, cols), sigma)[0].tobytes() == (sigma * flat).tobytes()


# SHA-256 of shape, dtype and bytes of normal(RngState(2024, 3), shape, sigma),
# recorded before the Box-Muller kernel was rewritten to work in place.  Odd
# and even counts cover the dropped sine of the last pair.
NORMAL_DIGESTS = [
    (7, 0.7, "375017176100e07fc26b1e0bb6e7d0411a0eb0ddee11a968dbf272d39031b6e1"),
    (8, 0.7, "1c2badc411e7bdb9f54166d201538e0b804b6d440ad325b3f17f17f7f2b1aac9"),
    ((), 0.7, "1f2b4ce575863b20998ee30744ba109656cbc7eb34703f653b82e4dda98520c0"),
    ((32, 8), 1.0, "0da02b80b5cb85b8523339e3ba0d28cdc5eeeeda970d6d7eb1ce08f3b3f5687c"),
    ((5, 3), 0.7, "baf76a3107e4df85f6d1ff32aa52e73e6c8da017ca9df2929068a104869a7e69"),
    ((4, 6), 0.0, "1163e72341c72f1a197b1600b6c22e4ad450ef9f0f0defd28a23211ff3c1d8fb"),
    (100_000, 1.0, "efe987f3eaaee8af97df746d925098d86c250283be9e09553164d14721949078"),
]


@pytest.mark.parametrize("shape,sigma,digest", NORMAL_DIGESTS)
def test_normal_stream_pinned(shape, sigma, digest):
    z, nxt = normal(RngState(2024, 3), shape, sigma)
    assert nxt == RngState(2024, 4)
    h = hashlib.sha256(repr(z.shape).encode() + z.dtype.str.encode() + z.tobytes())
    assert h.hexdigest() == digest


def _fresh_generator(state):
    """Reference: a new Philox for each draw call."""
    return np.random.Generator(np.random.Philox(key=state.seed, counter=state.counter << 128))


def test_reused_generator_matches_fresh_philox():
    # Each draw leaves the shared Philox part-way through its buffer or with
    # a spare 32-bit word; the next positioning must discard both.
    draws = [
        lambda g: g.random(3),
        lambda g: g.integers(0, 1000, size=5, dtype=np.uint32),
        lambda g: g.permutation(9),
        lambda g: g.random(),
    ]
    states = [RngState(0), RngState(1, 5), RngState(2**64 - 1, 2**64 + 3), RngState(17, 2**70)]
    for state in states:
        for draw in draws:
            assert np.array_equal(draw(_generator(state)), draw(_fresh_generator(state)))


@pytest.mark.parametrize("skip", [*range(10), 2**40, 2**40 + 1, 2**40 + 7, 2**62 + 3])
def test_positioned_generator_matches_fresh_philox_after_discards(skip):
    for state in [RngState(0), RngState(2**64 - 1, 2**64 + 3)]:
        want = _fresh_generator(state)
        if skip < 10:
            want.random(skip)  # discard by drawing
        else:
            want.bit_generator.advance(skip >> 2)  # one counter step per 4 doubles
            want.random(skip & 3)
        assert _generator(state, skip).random(11).tobytes() == want.random(11).tobytes()
        # An unpositioned call starts the block again.
        assert _generator(state).random(3).tobytes() == _fresh_generator(state).random(3).tobytes()


def test_threads_draw_their_own_streams():
    states = [RngState(100 + i, i) for i in range(4)]
    expected = [normal(s, 64)[0] for s in states]

    def worker(i):
        return [normal(states[i], 64)[0] for _ in range(300)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(expected, results):
        assert all(np.array_equal(want, z) for z in got)


def test_negative_sigma_rejected():
    with pytest.raises(ValidationError):
        normal(RngState(0), 3, -0.1)


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
def test_bad_sigma_rejected_by_both_draws(sigma):
    with pytest.raises(ValidationError, match="sigma must be finite and >= 0"):
        normal(RngState(0), 3, sigma)
    with pytest.raises(ValidationError, match="sigma must be finite and >= 0"):
        normal_stack([RngState(0), RngState(1)], 3, [1.0, sigma])


def test_stack_needs_one_sigma_per_state():
    with pytest.raises(ValidationError, match="one sigma per state"):
        normal_stack([RngState(0), RngState(1)], 3, [1.0])


def _reference_normal(state, shape, sigma=1.0):
    """normal as it was before the stacked draw: a fresh Philox per call,
    radii from a first random(m) call and angles from a second."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    n = math.prod(shape)
    if sigma == 0.0 or n == 0:
        return np.zeros(shape), state.next()
    g = _fresh_generator(state)
    m = (n + 1) // 2
    r = np.sqrt(-2.0 * np.log(1.0 - g.random(m)))
    theta = g.random(m) * (2.0 * math.pi)
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return (z * sigma).reshape(shape), state.next()


SHAPES = st.sampled_from([(), (0, 3), 1, 7, 8, (5, 3), (3, 0), (32, 8), (3, 5, 7)]) | st.tuples(
    st.integers(1, 9), st.integers(1, 9)
)
MEMBER = st.tuples(
    st.integers(0, 2**64 - 1), st.integers(0, 2**70), st.sampled_from([0.0, 0.05, 1.0, 2.5])
)


def _assert_rows_equal_reference_draws(states, shape, sigmas):
    z, successors = normal_stack(states, shape, sigmas)
    want_shape = (shape,) if isinstance(shape, int) else shape
    assert z.shape == (len(states),) + want_shape and z.dtype == np.float64
    for row, state, sigma, after in zip(z, states, sigmas, successors):
        want, want_next = _reference_normal(state, shape, sigma)
        assert after == want_next
        assert row.tobytes() == want.tobytes()  # bits, so -0.0 != +0.0
        solo, _ = normal(state, shape, sigma)
        assert solo.shape == want.shape and solo.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(shape=SHAPES, members=st.lists(MEMBER, min_size=1, max_size=9))
def test_normal_stack_rows_equal_reference_draws(shape, members):
    states = [RngState(seed, counter) for seed, counter, _ in members]
    _assert_rows_equal_reference_draws(states, shape, [sigma for _, _, sigma in members])


CHUNK_STATES = [RngState(11), RngState(2**64 - 1, 2**70), RngState(5, 3), RngState(12, 9)]
CHUNK_SIGMAS = [1.0, 0.0, 2.5, 0.05]


@pytest.mark.parametrize("chunk", [5, 8])
@pytest.mark.parametrize("odd", [True, False])
def test_normal_stack_rows_equal_reference_draws_across_chunks(monkeypatch, chunk, odd):
    # A small chunk (5 is not a multiple of Philox's 4-double block) keeps
    # the reference draws fast.  m pairs sit around one and two chunks.
    monkeypatch.setattr(rng, "_CHUNK", chunk)
    for m in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        n = 2 * m - odd
        _assert_rows_equal_reference_draws(CHUNK_STATES, n, CHUNK_SIGMAS)
        _assert_rows_equal_reference_draws(CHUNK_STATES[:1], (n, 1), CHUNK_SIGMAS[:1])


def test_normal_stack_rows_equal_reference_draws_across_the_real_chunk():
    n = 2 * (2 * rng._CHUNK + 1) - 1
    _assert_rows_equal_reference_draws(CHUNK_STATES[:3], n, CHUNK_SIGMAS[:3])


@pytest.mark.parametrize("chunk", [5, 8, None])
@pytest.mark.parametrize("rows", [1, 7, 40])
def test_draw_into_strided_column_block_equals_reference(monkeypatch, chunk, rows):
    if chunk:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    wide = np.full((len(CHUNK_STATES), rows, 7), np.nan)
    block = wide[:, :, 2:5]  # rows of 3 values, 7 apart
    successors = _normal_into(CHUNK_STATES, block, CHUNK_SIGMAS)
    for k, (state, sigma) in enumerate(zip(CHUNK_STATES, CHUNK_SIGMAS)):
        want, want_next = _reference_normal(state, (rows, 3), sigma)
        assert np.ascontiguousarray(block[k]).tobytes() == want.tobytes()
        assert successors[k] == want_next
    assert np.isnan(wide[:, :, :2]).all() and np.isnan(wide[:, :, 5:]).all()


N_ODD = 45  # m = 23 pairs; the last pair has no sine


@pytest.mark.parametrize("chunk", [4, 5, None])
@pytest.mark.parametrize(
    "p0, shape",
    [(0, (3, 4)), (9, (1, 12)), (9, (2, 6)), (17, (1, 11)), (22, (1, 1)), (0, (5, 9))],
)
def test_pair_window_is_its_part_of_the_whole_draw(monkeypatch, chunk, p0, shape):
    # A window of c pairs starting at pair p0 holds values [p0, p0 + c) of
    # the whole draw, then values [m + p0, m + p0 + c) that exist: the
    # window that ends at the last pair has one sine fewer.  (0, (5, 9)) is
    # the whole draw.
    if chunk:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    m = (N_ODD + 1) // 2
    c = (math.prod(shape) + 1) // 2
    wide = np.full((len(CHUNK_STATES), shape[0], shape[1] + 2), np.nan)
    block = wide[:, :, 1:-1]
    successors = _normal_into(CHUNK_STATES, block, CHUNK_SIGMAS, N_ODD, p0)
    for k, (state, sigma) in enumerate(zip(CHUNK_STATES, CHUNK_SIGMAS)):
        whole, want_next = _reference_normal(state, N_ODD, sigma)
        want = np.concatenate([whole[p0 : p0 + c], whole[m + p0 : m + p0 + c]])
        assert np.ascontiguousarray(block[k]).tobytes() == want.tobytes()
        assert successors[k] == want_next
    assert np.isnan(wide[:, :, 0]).all() and np.isnan(wide[:, :, -1]).all()


@pytest.mark.parametrize("k", [1, 3])
def test_draw_into_column_block_holds_one_window_and_a_half(k):
    # A draw into a block of rows inside a wider array makes its pairs a
    # window at a time: one (K, 2, _CHUNK) uniform block, plus half a block
    # for the cosines, and no staging block.  The first small call makes
    # the one-time allocations (the thread's Philox).
    wide = np.empty((k, 200_000, 16))
    states, sigmas = CHUNK_STATES[:k], (1.0,) * k
    _normal_into(states, wide[:, :4, :8], sigmas)
    tracemalloc.start()
    try:
        _normal_into(states, wide[..., :8], sigmas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * k * 2 * rng._CHUNK * 8


def test_zero_sigma_member_draws_positive_zeros():
    states = [RngState(3), RngState(4), RngState(5)]
    z, _ = normal_stack(states, (4, 5), [1.0, 0.0, 0.5])
    assert z[1].tobytes() == np.zeros((4, 5)).tobytes()
    assert np.count_nonzero(z[0]) == 20 and np.count_nonzero(z[2]) == 20


@pytest.mark.parametrize("shape", [(-2, 3), (-2, -3), -1])
def test_negative_dimension_rejected(shape):
    with pytest.raises(ValidationError):
        normal(RngState(0), shape)
    with pytest.raises(ValidationError):
        uniform(RngState(0), shape)


def test_derive_is_stable_and_key_sensitive():
    base = RngState(42)
    assert derive(base, "data") == derive(base, "data")
    assert derive(base, "data") != derive(base, "noise")
    assert derive(base, 1, "a") != derive(base, "1a")
    assert derive(17, "x") == derive(RngState(17), "x")


def test_uniform_range():
    u, _ = uniform(RngState(9), 10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_choice_without_replacement():
    idx, _ = choice_without_replacement(RngState(4), 20, 8)
    assert len(set(idx.tolist())) == 8
    assert all(0 <= i < 20 for i in idx)
    with pytest.raises(ValidationError):
        choice_without_replacement(RngState(4), 3, 5)


def test_successor_fills_every_state_field():
    # next() fills seed and counter without the constructor; a new field,
    # default or slots would need it changed.
    assert [f.name for f in dataclasses.fields(RngState)] == ["seed", "counter"]
    assert not hasattr(RngState, "__slots__")
    after = RngState(7, 4).next()
    assert vars(after) == vars(RngState(7, 5))


def test_successor_checks_the_counter_bound_only():
    last = RngState(2**64 - 1, 2**128 - 2).next()
    assert last == RngState(2**64 - 1, 2**128 - 1)
    assert hash(last) == hash(RngState(2**64 - 1, 2**128 - 1))
    assert {RngState(3, 1): "a"}[RngState(3, 0).next()] == "a"
    with pytest.raises(ValidationError, match=r"counter must be an int in \[0, 2\*\*128\)"):
        last.next()


def test_state_validation():
    with pytest.raises(ValidationError):
        RngState(-1)
    with pytest.raises(ValidationError):
        RngState(0, -3)
    with pytest.raises(ValidationError):
        RngState(0, 2**128)
    RngState(0, 2**128 - 1)
