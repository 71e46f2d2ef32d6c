"""Seedable, splittable noise streams for reproducible simulation.

Every sampling chain draws from the Philox stream keyed by (seed, chain
index) via `numpy.random.SeedSequence` spawning, so chain i draws the same
trajectory regardless of how many chains run alongside it.  Standard
normals come from numpy's ziggurat implementation, which is deterministic
for a fixed numpy version.

`chain_normals` draws a block of normals for every chain at once: it
derives all the chains' Philox keys in one pass of integer arithmetic and
re-keys a single generator per chain, so it builds no per-chain objects.
It re-keys through numpy's public `bit_generator.state` setter, with plain
Python ints in the state dict (the chain's key via `tolist()`, a zero
counter and buffer): the setter casts its ten words one by one, and
re-keying from numpy arrays, which makes a numpy scalar for each word,
takes about 2.5 times as long.  Row i equals
`substream(seed, i).standard_normal(count)` bit for bit; the samplers take
each chain's noise from it.  So a row's first k normals do not depend on
`count`: `chain_normals(seed, n, k)` is `chain_normals(seed, n, K)[:, :k]`
for k <= K, and a sweep draws each seed's block once, at the widest count
any of its cells reads, for every cell to read a prefix.  Nor does a row
depend on the rows drawn beside it: `chain_normals(seed, n, k, out,
start)` fills only rows start..n-1 of `out` and derives only their keys,
so a sweep's processes each draw a contiguous slice of chains into one
shared block (the sweep's own process the first slice, worker k the
k-th) and meet the full draw bit for bit.  Consumers that draw lazily
(the regressor, `forward_jump`) take a `numpy.random.Generator` directly:
`substream`, `chain_streams`, or `Generator(Philox(seed))` for the root
stream of a seed.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def substream(seed: int, index: int) -> Generator:
    """The index-th child stream of `seed`, without building its siblings."""
    return Generator(Philox(SeedSequence(seed, spawn_key=(index,))))


def chain_streams(seed: int, num_chains: int) -> list[Generator]:
    """Independent per-chain streams; chain i depends only on (seed, i).

    These are the streams of `SeedSequence(seed).spawn(num_chains)`.
    """
    return [substream(seed, i) for i in range(num_chains)]


def _chain_keys(seed: int, num_chains: int, start: int = 0) -> np.ndarray:
    """Philox keys of chains start..num_chains-1, shape
    (num_chains - start, 2): the row of chain i is
    `SeedSequence(seed).spawn(num_chains)[i].generate_state(2, uint64)`.

    A child's entropy is the parent's (zero-padded to the pool size) plus
    one spawn word i < 2**32, so its pool is the parent's pool with i
    hashed into each of the four pool words.  The hash constants depend
    only on how many hashes came before, never on the values hashed, so i
    is the only per-chain input and all chains are derived at once in
    uint64 arithmetic masked to 32 bits.  Generating the key's four state
    words reads the child's pool words in order, so it shares the loop.
    """
    entropy_words = max(1, -(-seed.bit_length() // 32))
    # Filling and cross-mixing the pool takes 16 hashes; each entropy word
    # past the pool size takes 4 more.
    hashes_before = _POOL_SIZE * _POOL_SIZE \
        + _POOL_SIZE * max(0, entropy_words - _POOL_SIZE)
    hash_a = _INIT_A * pow(_MULT_A, hashes_before, 1 << 32) & _MASK32
    hash_b = _INIT_B
    index = np.arange(start, num_chains, dtype=np.uint64)
    words = []
    for pool_word in SeedSequence(seed).pool:
        next_a = hash_a * _MULT_A & _MASK32
        spawn_hash = (index ^ hash_a) * next_a & _MASK32
        spawn_hash ^= spawn_hash >> 16
        hash_a = next_a
        word = ((_MIX_MULT_L * int(pool_word) & _MASK32)
                - _MIX_MULT_R * spawn_hash) & _MASK32
        word ^= word >> 16
        next_b = hash_b * _MULT_B & _MASK32
        word = (word ^ hash_b) * next_b & _MASK32
        word ^= word >> 16
        hash_b = next_b
        words.append(word)
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32],
                    axis=1)


def chain_normals(seed: int, num_chains: int, count: int,
                  out: np.ndarray | None = None,
                  start: int = 0) -> np.ndarray:
    """Standard normals of shape (num_chains, count) whose row i equals
    `substream(seed, i).standard_normal(count)` bit for bit.

    With `out`, a C-contiguous float64 array of that shape, rows
    start..num_chains-1 are drawn into it, the rows before `start` are
    left as they are, and `out` is returned; only the drawn chains' keys
    are derived.
    One Philox generator is re-keyed per chain (counter 0, empty buffer),
    so no per-chain `SeedSequence` or generator is built.  The first drawn
    chain's derived key is checked against numpy's own spawning on every
    call, so a numpy whose `SeedSequence` differs fails here instead of
    drawing other streams.  A block beyond numpy's index range raises the
    `MemoryError` of an unallocatable one.
    """
    seed = operator.index(seed)
    # the block and the (num_chains, 2) keys, in bytes
    if 8 * num_chains * max(count, 2) > np.iinfo(np.intp).max:
        raise MemoryError(
            f"{num_chains} x {count} normals are too many for an array")
    keys = _chain_keys(seed, num_chains, start)
    if len(keys) and not np.array_equal(
            keys[0], SeedSequence(seed, spawn_key=(start,))
            .generate_state(2, np.uint64)):
        raise RuntimeError(
            f"derived Philox key of chain {start} differs from numpy's "
            "SeedSequence; chain_normals does not support this numpy")
    if out is None:
        out = np.empty((num_chains, count))
    elif out.shape != (num_chains, count):
        raise ValueError(f"out has shape {out.shape}, "
                         f"need {(num_chains, count)}")
    if count == 0:
        return out
    bit_generator = Philox(0)
    standard_normal = Generator(bit_generator).standard_normal
    # Plain ints only (see the module docstring).
    key_state = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": key_state,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, key in zip(out[start:], keys):
        key_state["key"] = key.tolist()
        bit_generator.state = state
        standard_normal(out=row)
    return out
