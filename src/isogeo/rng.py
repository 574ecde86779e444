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
        return RngState(self.seed, self.counter + 1)


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


def _generator(state: RngState) -> np.random.Generator:
    """The thread's generator, positioned as a fresh
    ``Philox(key=seed, counter=counter * 2**128)``: same key and counter, empty
    output buffer.  Callers draw from it before the next call repositions it."""
    g, bits, full, counter, key = _thread_philox()
    c = int(state.counter)
    counter[2] = c & _WORD
    counter[3] = c >> 64
    key[0] = int(state.seed)
    bits.state = full
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


def _box_muller(states, n: int, sigmas) -> np.ndarray:
    """(K, n) block of N(0, sigma_k^2) draws, row k from states[k].

    Each row's 2m uniforms (m = ceil(n / 2)) come from one ``random`` call
    on its own positioned Philox: radii from the first m, angles from the
    last m.  The transform then runs once over the whole block.  Rows with
    sigma 0 draw nothing and come back as +0.0.
    """
    k = len(states)
    m = (n + 1) // 2
    u = np.empty((k, 2, m))
    zero = [i for i, s in enumerate(sigmas) if s == 0.0]
    for i, (state, sigma) in enumerate(zip(states, sigmas)):
        if sigma == 0.0:
            u[i] = 0.5  # any value log() keeps finite; the row is zeroed below
        else:
            _generator(state).random(out=u[i])
    r, theta = u[:, 0], u[:, 1]
    np.subtract(1.0, r, out=r)  # (0, 1]: keeps log() finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _TWO_PI
    z = np.empty((k, 2 * m))  # [r cos(theta), r sin(theta)], cut to n below
    np.cos(theta, out=z[:, :m])
    np.sin(theta, out=z[:, m:])
    z[:, :m] *= r
    z[:, m:] *= r
    z = z[:, :n]
    z *= sigmas[0] if k == 1 else np.asarray(sigmas, dtype=np.float64)[:, None]
    if zero:
        z[zero] = 0.0
    return z


def normal_stack(states, shape, sigmas) -> tuple[np.ndarray, list[RngState]]:
    """One normal draw per stream: ``(K,) + shape`` values whose row k is
    ``normal(states[k], shape, sigmas[k])[0]``, bit for bit; returns
    (values, successors)."""
    if len(sigmas) != len(states):
        raise ValidationError(f"need one sigma per state, got {len(sigmas)} for {len(states)}")
    for sigma in sigmas:
        _check_sigma(sigma)
    shape = _shape(shape)
    n = math.prod(shape)
    nxt = [s.next() for s in states]
    if n == 0 or not any(sigmas):
        return np.zeros((len(states),) + shape), nxt
    return _box_muller(states, n, sigmas).reshape((len(states),) + shape), nxt


def normal(state: RngState, shape, sigma: float = 1.0) -> tuple[np.ndarray, RngState]:
    """i.i.d. N(0, sigma^2) draws via Box-Muller; returns (values, successor).

    sigma = 0 is allowed and yields exact zeros (the state still advances so
    downstream draws do not depend on whether a zero-scale draw happened).
    A sigma that is negative, infinite or NaN raises ValidationError.
    """
    _check_sigma(sigma)
    shape = _shape(shape)
    n = math.prod(shape)
    nxt = state.next()
    if sigma == 0.0 or n == 0:
        return np.zeros(shape), nxt
    return _box_muller((state,), n, (sigma,)).reshape(shape), nxt


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
