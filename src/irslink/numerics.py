"""Complex-array validation, seedable random streams, and dB conversions.

Complex vectors and matrices are plain ``numpy`` arrays of dtype
``complex128``; the validators below enforce the invariants (finite
entries, expected shape) at module boundaries.  All magnitudes are kept
linear internally; dB / dBm appears only at I/O boundaries.

A stream ``(master_seed, stream_id)`` is a Philox generator keyed by
numpy's ``SeedSequence((master_seed, stream_id))``.  ``sample_cscg_rows``
draws many streams of one master seed at once: it hashes all their keys
together with the ``SeedSequence`` algorithm on ``uint32`` arrays
(``_philox_keys``) and re-keys a single generator per stream, so each row
has the bits of its own stream drawn alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    # Finalizer of the splitmix64 generator: a 64-bit avalanche bijection.
    # Takes an int or a uint64 array, whose arithmetic wraps at 2^64.
    x = x & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _mix64(a, b: int):
    # Order-sensitive combine of two 64-bit words into one; a may be a
    # uint64 array of words.
    return _splitmix64((a * 0x9E3779B97F4A7C15 + b + 1) & _MASK64)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on a pool of
# four uint32 words.  Its hash constants do not depend on the data: the k-th
# hashmix call XORs with INIT_A * MULT_A^k and multiplies by
# INIT_A * MULT_A^(k+1) (mod 2^32), and generate_state's k-th word likewise
# with INIT_B and MULT_B.  Filling and mixing the pool make 4 + 12 calls.
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH_A = np.array([[_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK32] for k in range(17)], np.uint32)
_HASH_B = np.array([[_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32] for k in range(5)], np.uint32)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # hashmix calls with the hash constants consts[0], consts[1], ... (a
    # column) on the rows of value, or on one row repeated
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _philox_keys(master_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """``SeedSequence((master_seed, i)).generate_state(2, np.uint64)`` for
    every ``i`` of the 1-D uint64 array ``stream_ids``, as (R, 2) uint64.

    The entropy words are the master seed's (one below 2^32, else two)
    followed by each id's low and high words, zero-padded to the pool size:
    numpy coerces each integer to its shortest word list (0 to one word), and
    hashing a zero word is how it fills a pool longer than the entropy.
    """
    master = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = np.zeros((_POOL_SIZE, len(stream_ids)), np.uint32)
    entropy[:len(master)] = np.array(master, np.uint32)[:, None]
    entropy[len(master)] = stream_ids.astype(np.uint32)
    entropy[len(master) + 1] = (stream_ids >> np.uint64(32)).astype(np.uint32)
    pool = _hashmix(entropy, _HASH_A[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # every other word, in order, mixes in its own hash of word src
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], _HASH_A[k:k + len(dst) + 1])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
        k += len(dst)
    state = _hashmix(pool, _HASH_B).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


@dataclass(frozen=True)
class SeededRng:
    """Value-type handle on a deterministic random stream.

    A stream is identified by ``(master_seed, stream_id)``.  The same pair
    always yields the same samples; distinct pairs yield statistically
    independent streams.  Instances are immutable; operations that consume
    randomness derive a fresh counter-based generator on every call, so
    every such operation is a pure function of (seed, stream, inputs).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v < 1 << 64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def split(self, index: int) -> "SeededRng":
        """Derive the ``index``-th substream of this stream."""
        return SeededRng(self.master_seed, _mix64(self.stream_id, index))

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator positioned at the stream start."""
        seq = np.random.SeedSequence((self.master_seed, self.stream_id))
        return np.random.Generator(np.random.Philox(seq))


def sample_cscg(rng: SeededRng, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. circularly symmetric complex Gaussian samples.

    Zero mean, unit variance: real and imaginary parts are independent
    Gaussians with variance 1/2 each.  Draws are interleaved so that the
    first ``m < n`` samples of a stream are a prefix of any longer draw
    from the same stream (used to pair sweeps over the element count).
    """
    return sample_cscg_rows(rng.master_seed, [rng.stream_id], n)[0]


def sample_cscg_rows(master_seed: int, stream_ids, n: int) -> np.ndarray:
    """``sample_cscg(SeededRng(master_seed, i), n)`` for every stream id
    ``i``, stacked as an (R, n) array.

    One generator serves the call: for each stream it is re-keyed with that
    stream's key from :func:`_philox_keys` and reset to the start of its
    stream (counter 0, empty buffer), as a fresh generator is.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if not 0 <= master_seed < 1 << 64:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
    ids = np.array(stream_ids, dtype=np.uint64)
    raw = np.empty((len(ids), 2 * n))
    if n:
        bitgen = np.random.Philox(0)
        gen = np.random.Generator(bitgen)
        stream = {"counter": np.zeros(4, np.uint64), "key": None}
        start = {"bit_generator": "Philox", "state": stream, "buffer": np.zeros(4, np.uint64),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for key, out in zip(_philox_keys(master_seed, ids), raw):
            stream["key"] = key
            bitgen.state = start
            gen.standard_normal(out=out)
    return (raw[:, 0::2] + 1j * raw[:, 1::2]) * np.sqrt(0.5)


def db_to_linear(x_db):
    """10^(x/10); accepts scalars or arrays."""
    if np.ndim(x_db):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
    return 10.0 ** (float(x_db) / 10.0)


def linear_to_db(x):
    """10*log10(x) for x > 0; raises on non-positive input."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"linear_to_db requires positive finite input, got {x}")
    out = 10.0 * np.log10(arr)
    return out if np.ndim(x) else float(out)


def as_complex_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D complex128 array."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_complex_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D complex128 array."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr
