"""Deterministic, counter-based random streams.

All randomness in the package flows through :class:`RngState`, an immutable
(seed, counter) pair over a Philox counter-based generator.  Drawing functions
are pure: they return the values *and* the successor state, so identical
(seed, counter) inputs reproduce identical outputs on every platform.  Normal
variates are produced by an explicit Box-Muller transform over Philox
uniforms (rejection-free, so the number of consumed uniforms is a fixed
function of the request).

:func:`normal_stack` draws for K streams at once, as a stack of nets needs:
each member's uniforms come from its own Philox key and counter, and one
Box-Muller pass transforms the whole (K, 2, m) block.  :func:`normal` is its
K = 1 case.  A member's values equal its solo draw bit for bit, on the
assumption that numpy's elementwise ``log``, ``sqrt``, ``sin`` and ``cos``
give the same bits for an element whatever the length of the array around
it (the pinned digests and the stack tests check this).

Philox is counter-based, so any stretch of a call's stream can be drawn on
its own: ``_generator(state, skip)`` positions the stream ``skip`` doubles
into the call's block.  That lets Box-Muller run over a large draw in chunks
of ``_CHUNK`` pairs per member, each chunk drawing only its own uniforms and
putting its values into the caller's output, with the same bits as one pass
over the whole draw.  A draw's memory is then its output plus one
(K, 2, _CHUNK) uniform block, and a second one that stages the values when
the output is a block of rows inside a wider array.  The chunk size is a
fixed private constant, not an option: the values never depend on it, so it
only trades the size of those blocks for per-chunk call overhead, and one
fixed value keeps every draw's footprint the same on every machine.  A draw
that fits in one chunk makes one ``random`` call per member and one pass, as
it would without chunks.

The same positioning lets a caller draw only a window of a draw's pairs:
``_normal_into(states, out, sigmas, n, p0)`` fills out with the cosines and
then the sines of pairs [p0, p0 + c) of a draw of n values, the values p0 ..
p0 + c - 1 and m + p0 .. m + p0 + c - 1 for m = ceil(n / 2).  When a draw
fills an even number 2h of rows, a pair's cosine and sine sit h rows apart,
which is how ``data.sample_blocks`` makes a sample a block of rows at a
time without drawing any uniform twice.  The whole draw is the window
[0, m), so there is one Box-Muller transform for both.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RngState:
    """Immutable handle into a counter-based random stream.

    Advancing happens by value: every drawing function returns the successor
    state alongside its output.
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or not (0 <= int(self.seed) < 2**64):
            raise ValidationError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        # counter * 2**128 must fit Philox's 256-bit counter
        if not isinstance(self.counter, (int, np.integer)) or not (
            0 <= int(self.counter) < 2**128
        ):
            raise ValidationError(f"counter must be an int in [0, 2**128), got {self.counter!r}")

    def next(self) -> "RngState":
        # The seed is already valid, so only the counter bound is checked;
        # filling the two fields directly skips the frozen constructor and
        # __post_init__ (tests/test_rng.py pins the field list this relies on).
        c = self.counter + 1
        if c >= 2**128:
            raise ValidationError(f"counter must be an int in [0, 2**128), got {c!r}")
        nxt = object.__new__(RngState)
        nxt.__dict__.update(seed=self.seed, counter=c)
        return nxt


# Each draw call owns a disjoint 2**128-block of the Philox counter space, so
# successive states can never overlap regardless of how much one call
# consumes: the 256-bit counter of state counter c is c * 2**128, whose 64-bit
# words are (0, 0, low 64 bits of c, high 64 bits of c).
_WORD = (1 << 64) - 1

# One Philox per thread, reset in full by every _generator call.  Building a
# Philox costs about 17 us, most of it gathering OS entropy for a seed that
# the key then replaces.  Setting its state from a new dict of new arrays
# costs about 4 us; the thread's own state dict, whose counter and key lists
# are rewritten in place, costs about a third of that.
_LOCAL = threading.local()


def _thread_philox() -> tuple:
    """The thread's (generator, bit generator, state dict, counter, key)."""
    try:
        return _LOCAL.philox
    except AttributeError:
        g = np.random.Generator(np.random.Philox(key=0))
        counter, key = [0, 0, 0, 0], [0, 0]
        full = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        _LOCAL.philox = (g, g.bit_generator, full, counter, key)
        return _LOCAL.philox


def _generator(state: RngState, skip: int = 0) -> np.random.Generator:
    """The thread's generator, positioned as a fresh
    ``Philox(key=seed, counter=counter * 2**128)`` that has already drawn
    ``skip`` doubles.  Callers draw from it before the next call repositions
    it.

    Philox makes four 64-bit words, four doubles, per counter step, and steps
    its counter before each block; so counter word 0 set to ``skip >> 2``
    makes the next block the one that holds double ``skip``, and the
    ``skip & 3`` doubles ahead of it in that block are discarded."""
    g, bits, full, counter, key = _thread_philox()
    c = int(state.counter)
    counter[0] = skip >> 2
    counter[2] = c & _WORD
    counter[3] = c >> 64
    key[0] = int(state.seed)
    bits.state = full
    if skip & 3:
        bits.random_raw(skip & 3)
    return g


def derive(state: "RngState | int", *keys: "str | int | float") -> RngState:
    """Derive an independent substream from a state (or bare seed) and keys.

    The derived seed is a BLAKE2b hash of the parent (seed, counter) and the
    key sequence, so substreams for distinct keys never collide with the
    parent stream or with one another.  A bare seed outside [0, 2**64)
    raises ValidationError.
    """
    if not isinstance(state, RngState):
        state = RngState(state)
    h = hashlib.blake2b(digest_size=8)
    h.update(int(state.seed).to_bytes(8, "little"))
    h.update(int(state.counter).to_bytes(16, "little"))
    for k in keys:
        if isinstance(k, float):
            k = f"{k:.17g}"
        h.update(str(k).encode("utf-8"))
        h.update(b"\x1f")
    return RngState(int.from_bytes(h.digest(), "little"), 0)


def _shape(shape) -> tuple:
    """An int or sequence shape as a tuple; a negative dimension is rejected."""
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    if any(k < 0 for k in shape):
        raise ValidationError(f"shape must have no negative dimension, got {shape}")
    return shape


def uniform(state: RngState, shape) -> tuple[np.ndarray, RngState]:
    """Uniform [0, 1) draws of the given shape; returns (values, successor)."""
    shape = _shape(shape)
    g = _generator(state)
    return g.random(shape), state.next()


def _check_sigma(sigma) -> None:
    if not 0.0 <= sigma < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"sigma must be finite and >= 0, got {sigma}")


# Box-Muller pairs per member in one chunk of a draw.  A draw's temporaries
# are at most two (K, 2, _CHUNK) float64 blocks, 256 KiB per member, which
# stay in a 2 MiB L2 cache.  On a 2-vCPU Xeon, chunks of 2**13 to 2**16 pairs
# drew normal((4096, 16)) and 200,000-row samples within run-to-run noise of
# one another and no slower than the unchunked draw.
_CHUNK = 1 << 13


def _box_muller(states, sigmas, out, n=None, p0=0) -> None:
    """Fill out (K, rows, cols) with a window of pairs of member k's draw
    of n N(0, sigma_k^2) values from states[k]; n defaults to rows * cols,
    the whole draw.  out may be a strided view, such as a column block of a
    wider array.

    The draw's values take m = ceil(n / 2) pairs.  Pair p takes radius
    uniform p and angle uniform m + p of the member's Philox stream and gives
    value p (r cos(theta)) and value m + p (r sin(theta)); the sine of the
    last pair is dropped when n is odd.  The window is the c =
    ceil(rows * cols / 2) pairs [p0, p0 + c), and out takes, in row-major
    order, their c cosines followed by their sines: values [p0, p0 + c)
    of the draw, then those of [m + p0, m + p0 + c) below n.  The whole
    draw is the window [0, m).

    The pairs are made in chunks of _CHUNK: each member fills its row of
    one (K, 2, w) uniform block, with one ``random`` call when the window is
    the whole draw in one chunk and otherwise one for its radii and one for
    its angles, positioned by ``_generator``'s skip.  The transform then
    runs once over the block.  When out holds each member's values as one
    run (rows == 1), the chunk's cosines and sines are computed straight
    into it; a block of several rows gets them copied in from a (K, 2, w)
    staging block.  Rows with sigma 0 draw nothing and come back as +0.0.
    """
    k, rows, cols = out.shape
    size = rows * cols
    n = size if n is None else n
    m = (n + 1) // 2
    c = (size + 1) // 2
    w = min(c, _CHUNK)
    u = np.empty((k, 2, w))
    z = np.empty((k, 2, w)) if rows > 1 else None
    scale = sigmas[0] if k == 1 else np.asarray(sigmas, dtype=np.float64)[:, None]
    for j in range(0, c, _CHUNK):
        p = p0 + j
        if j + w > c:  # the last, shorter chunk
            w = c - j
            u = u[:, :, :w]
        for i, (state, sigma) in enumerate(zip(states, sigmas)):
            if sigma == 0.0:
                u[i] = 0.5  # any value log() keeps finite; the row is zeroed below
            elif w == m:
                _generator(state).random(out=u[i])
            else:
                _generator(state, p).random(out=u[i, 0])
                _generator(state, m + p).random(out=u[i, 1])
        r, theta = u[:, 0], u[:, 1]
        np.subtract(1.0, r, out=r)  # (0, 1]: keeps log() finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= _TWO_PI
        ws = min(w, n - m - p)  # sines kept: the last pair's goes when n is odd
        if z is None:
            zc, zs = out[:, 0, j : j + w], out[:, 0, c + j : c + j + ws]
        else:
            zc, zs = z[:, 0, :w], z[:, 1, :ws]
        np.cos(theta, out=zc)
        np.sin(theta[:, :ws], out=zs)
        zc *= r
        zs *= r[:, :ws]
        zc *= scale
        zs *= scale
        if z is not None:
            _copy_into(out, j, zc)
            _copy_into(out, c + j, zs)
    zero = [i for i, s in enumerate(sigmas) if s == 0.0]
    if zero:
        out[zero] = 0.0


def _copy_into(out, start: int, values) -> None:
    """Copy values (K, L) to flat positions [start, start + L) of each
    member's row-major (rows, cols) block of out (K, rows, cols), part of a
    row or a run of whole rows at a time."""
    cols = out.shape[2]
    row, col = divmod(start, cols)
    while values.shape[1]:
        if col or values.shape[1] < cols:
            dest = out[:, row : row + 1, col : col + values.shape[1]]
        else:
            dest = out[:, row : row + values.shape[1] // cols]
        h = dest.shape[1] * dest.shape[2]
        dest[...] = values[:, :h].reshape(dest.shape)
        values, row, col = values[:, h:], row + dest.shape[1], 0


def _normal_into(states, out, sigmas, n=None, p0=0) -> list[RngState]:
    """Fill out (K, rows, cols), which may be a strided view, with row k
    equal to ``normal(states[k], rows * cols, sigmas[k])[0]`` in row-major
    order, bit for bit; returns the successors.  Given n and p0, out takes
    instead the pair window of ``normal(states[k], n, sigmas[k])[0]`` that
    starts at pair p0, as ``_box_muller`` lays it out."""
    if len(sigmas) != len(states):
        raise ValidationError(f"need one sigma per state, got {len(sigmas)} for {len(states)}")
    for sigma in sigmas:
        _check_sigma(sigma)
    if out.size == 0 or not any(sigmas):
        out[...] = 0.0
    else:
        _box_muller(states, sigmas, out, n, p0)
    return [s.next() for s in states]


def normal_stack(states, shape, sigmas) -> tuple[np.ndarray, list[RngState]]:
    """One normal draw per stream: ``(K,) + shape`` values whose row k is
    ``normal(states[k], shape, sigmas[k])[0]``, bit for bit; returns
    (values, successors)."""
    shape = _shape(shape)
    z = np.empty((len(states),) + shape)
    return z, _normal_into(states, z.reshape(len(states), 1, math.prod(shape)), sigmas)


def normal(state: RngState, shape, sigma: float = 1.0) -> tuple[np.ndarray, RngState]:
    """i.i.d. N(0, sigma^2) draws via Box-Muller; returns (values, successor).

    sigma = 0 is allowed and yields exact zeros (the state still advances so
    downstream draws do not depend on whether a zero-scale draw happened).
    A sigma that is negative, infinite or NaN raises ValidationError.
    """
    z = np.empty(_shape(shape))
    (nxt,) = _normal_into((state,), z.reshape(1, 1, z.size), (sigma,))
    return z, nxt


def gaussian_matrix(
    state: RngState, rows: int, cols: int, sigma: float
) -> tuple[np.ndarray, RngState]:
    """(rows x cols) matrix with i.i.d. N(0, sigma^2) entries."""
    return normal(state, (rows, cols), sigma)


def permutation(state: RngState, n: int) -> tuple[np.ndarray, RngState]:
    """Deterministic random permutation of range(n)."""
    g = _generator(state)
    return g.permutation(n), state.next()


def choice_without_replacement(state: RngState, n: int, k: int) -> tuple[np.ndarray, RngState]:
    """k distinct indices drawn uniformly from range(n)."""
    if k > n:
        raise ValidationError(f"cannot draw {k} distinct values from range({n})")
    perm, nxt = permutation(state, n)
    return perm[:k], nxt
