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
Box-Muller pass transforms a (K, 2, w) block of w pairs for all members.
:func:`normal` is its K = 1 case.  A member's values equal its solo draw bit
for bit, on the assumption that numpy's elementwise ``log``, ``sqrt``, ``sin``
and ``cos`` give the same bits for an element whatever the length of the
array around it (the pinned digests and the stack tests check this).

Philox is counter-based, so any stretch of a call's stream can be drawn on
its own: ``_generator(state, skip)`` positions the stream ``skip`` doubles
into the call's block.  A draw of n values takes m = ceil(n / 2) Box-Muller
pairs, and pair p gives value p (its cosine) and value m + p (its sine).  So
when a draw fills an even number 2h of rows, or one column of 2h or 2h - 1
rows, a pair's cosine and sine sit h rows apart: rows [a, b) and
[h + a, h + b) are the values of a window of pairs, which can be made on its
own, bit for bit as in one pass over the whole draw.  ``_normal_into`` places
every draw this way, a window of at most ``_CHUNK`` pairs per member at a
time, so a draw's memory is its output plus one (K, 2, _CHUNK) uniform block
and half a block more.  The window size is a fixed private constant, not an
option: the values never depend on it, so it only trades the size of that
block for per-window call overhead, and one fixed value keeps every draw's
footprint the same on every machine.  A draw that fits in one window makes one
``random`` call per member.  The one layout without partner rows, an odd
number of rows of several columns, is made in one block of all its pairs and
copied in.  ``data.sample_blocks`` uses the same fact to make a sample a block
of rows at a time without drawing any uniform twice.
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


# Box-Muller pairs per member in one window of a draw.  A draw's temporaries
# are one (K, 2, _CHUNK) float64 block, 128 KiB per member, and half a block
# more for the cosines.  On a 2-vCPU Xeon, windows of 2**13 to 2**16 pairs
# drew normal((4096, 16)) and 200,000-row samples within run-to-run noise of
# one another and of one window over the whole draw.
_CHUNK = 1 << 13


def _box_muller(states, sigmas, n, p, w) -> np.ndarray:
    """Pairs [p, p + w) of member k's draw of n N(0, sigma_k^2) values from
    states[k], as a (K, 2, w) block: cosines in row 0, sines in row 1.

    The draw takes m = ceil(n / 2) pairs.  Pair p takes radius uniform p and
    angle uniform m + p of the member's stream and gives value p,
    r cos(theta) sigma, and value m + p, r sin(theta) sigma (none when that
    is n).  A member fills its row of the block with one ``random`` call
    when the window is the whole draw, else one for its radii and one for
    its angles.  A member with sigma 0 draws nothing and gets finite
    values, not zeros."""
    m = (n + 1) // 2
    u = np.empty((len(states), 2, w))
    for i, (state, sigma) in enumerate(zip(states, sigmas)):
        if sigma == 0.0:
            u[i] = 0.5  # any value log() keeps finite
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
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    scale = sigmas[0] if len(sigmas) == 1 else np.asarray(sigmas, dtype=np.float64)[:, None]
    theta *= r
    theta *= scale
    r *= cos  # the same bits as cos * r
    r *= scale
    return u


def _normal_into(states, out, sigmas, n=None, p0=0) -> list[RngState]:
    """Fill out (K, rows, cols), which may be a strided view, with row k
    equal to ``normal(states[k], rows * cols, sigmas[k])[0]`` in row-major
    order, bit for bit; returns the successors.  Given n and p0, out takes
    instead the c = ceil(rows * cols / 2) pairs of ``normal(states[k], n,
    sigmas[k])[0]`` from pair p0: values [p0, p0 + c), then those of
    [m + p0, m + p0 + c) below n.

    When the cosines fill whole rows (rows even, or one column), cosine row
    a and sine row h + a come from the same pairs, h = c / cols; windows of
    whole rows, at most _CHUNK pairs or one row, are made one at a time and
    assigned to both.  Otherwise one block of all c pairs is made and
    copied in.  Rows with sigma 0 come back as +0.0."""
    if len(sigmas) != len(states):
        raise ValidationError(f"need one sigma per state, got {len(sigmas)} for {len(states)}")
    for sigma in sigmas:
        if not 0.0 <= sigma < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"sigma must be finite and >= 0, got {sigma}")
    k, rows, cols = out.shape
    size = rows * cols
    n = size if n is None else n
    c = (size + 1) // 2
    if size == 0 or not any(sigmas):
        out[...] = 0.0
    elif c % cols:  # the cosines end mid-row
        z = _box_muller(states, sigmas, n, p0, c).reshape(k, 2 * c)
        out[...] = z[:, :size].reshape(out.shape)
    else:
        h = c // cols
        step = max(1, _CHUNK // cols)
        for a in range(0, h, step):
            b = min(a + step, h)
            z = _box_muller(states, sigmas, n, p0 + a * cols, (b - a) * cols)
            out[:, a:b] = z[:, 0].reshape(k, b - a, cols)
            sines = out[:, h + a : h + b]  # one row short at the end of an odd column
            sines[...] = z[:, 1, : sines.shape[1] * cols].reshape(sines.shape)
            del z  # before the next window's block is made
    zero = [i for i, s in enumerate(sigmas) if s == 0.0]
    if zero:
        out[zero] = 0.0
    return [s.next() for s in states]


def normal_stack(states, shape, sigmas) -> tuple[np.ndarray, list[RngState]]:
    """One normal draw per stream: ``(K,) + shape`` values whose row k is
    ``normal(states[k], shape, sigmas[k])[0]``, bit for bit; returns
    (values, successors)."""
    shape = _shape(shape)
    z = np.empty((len(states),) + shape)
    return z, _normal_into(states, z.reshape(len(states), math.prod(shape), 1), sigmas)


def normal(state: RngState, shape, sigma: float = 1.0) -> tuple[np.ndarray, RngState]:
    """i.i.d. N(0, sigma^2) draws via Box-Muller; returns (values, successor).

    sigma = 0 is allowed and yields exact zeros (the state still advances so
    downstream draws do not depend on whether a zero-scale draw happened).
    A sigma that is negative, infinite or NaN raises ValidationError.
    """
    z = np.empty(_shape(shape))
    (nxt,) = _normal_into((state,), z.reshape(1, z.size, 1), (sigma,))
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
