"""Per-trial random streams of the photon-counting simulation, and their counting.

Trial ``i`` of a campaign with master seed ``s`` draws from PCG64 seeded by
``SeedSequence((s, i))``, so counts are bit-identical for identical
configurations regardless of execution order. Seed and index must each fit
in 64 bits. The SeedSequence hash is computed here on numpy arrays, once per
block of 256 consecutive indices, and numpy's PCG64 seeds itself from each
trial's row; the stream is numpy's to the bit. Zero-padding the entropy to
the hash pool is exact: ``(s, i)`` is at most 4 32-bit words, and
SeedSequence hashes 0 into every pool slot past its entropy.
``numpy.random`` is imported on the first trial, not on import.

A campaign samples its trials in blocks (:func:`_sample_blocks`): one fill
of each trial's stream and one compare against a threshold row keep a bool
per uniform, and :func:`_read_block` then counts the whole block with a
handful of numpy calls. The block buffers fit a fixed byte budget
(:func:`_block_size`). This module never sees the stopping-rule classes or
:class:`~wva_costlab.experiment.TrialCounts`: :mod:`wva_costlab.experiment`
chooses the uniforms of a fill and builds the counts from what it returns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

# A campaign samples its trials in blocks whose buffers fit this many bytes:
# one threshold row shared by the workers and, per worker, a row of uniforms
# and one bool row per trial of the block, at most _MAX_BLOCK trials. It keeps
# fills below 2**16 uniforms, which the block reader's uint16 counts need; a
# wider trial takes the serial path. Over the C08 deck (2 vCPUs), 512 KiB,
# 768 KiB and 1 MiB took 34.3, 32.9 and 32.3 ms per deck in process, and the
# campaign benchmark's peak RSS rose 1.3-1.7, 1.35 and 1.7 MB; 256 KiB still
# cost 0.8 MB, at 86 instead of 101 items per kref.
_BLOCK_BUDGET = 3 << 18
_MAX_BLOCK = 32
# A word of eight 0/1 bytes times this holds the byte prefix sums of the word.
_BYTE_ONES = np.uint64(0x0101010101010101)

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe), for a pool of 4 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_SEED_BLOCK = 256


def _words(n: int) -> list[int]:
    """The 32-bit little-endian words SeedSequence takes from 0 <= n < 2**64."""
    return [n & _MASK32, n >> 32] if n >> 32 else [n]


@lru_cache(maxsize=64)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of trials ``256 * block`` to ``256 * block + 255``.

    Row j equals ``SeedSequence((master_seed, 256 * block + j))
    .generate_state(4, np.uint64)``: numpy's hash run on uint32 columns, one
    row per trial. A block never straddles 2**32, so every index in it has
    the same number of words. The entropy is at most 4 words, and
    ``mix_entropy`` hashes 0 into each pool slot past the entropy, so
    zero-padding it to the pool size gives the same pool. Read-only.
    """
    first = block * _SEED_BLOCK
    index = np.uint64(first) + np.arange(_SEED_BLOCK, dtype=np.uint64)
    columns = [np.full(_SEED_BLOCK, word, dtype=np.uint32) for word in _words(master_seed)]
    columns.append(index.astype(np.uint32))
    if first >> 32:
        columns.append((index >> 32).astype(np.uint32))
    columns += [np.zeros(_SEED_BLOCK, dtype=np.uint32)] * (_POOL_SIZE - len(columns))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(column) for column in columns]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    state = np.empty((_SEED_BLOCK, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> _XSHIFT)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


@lru_cache(maxsize=None)
def _block_seed_type() -> type:
    """An ISeedSequence that hands PCG64 one row of a seed block.

    Built on first use, so importing this module does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class BlockSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return BlockSeed


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Trial ``i``'s generator: ``PCG64(SeedSequence((s, i)))``, bit for bit.

    The SeedSequence hash runs once per block of 256 trial indices
    (:func:`_seed_block`), and numpy's PCG64 seeds itself from the row of
    this trial. Both arguments lie in [0, 2**64).
    """
    block, offset = divmod(int(trial_index), _SEED_BLOCK)
    words = _seed_block(int(master_seed), block)[offset]
    return np.random.Generator(np.random.PCG64(_block_seed_type()(words)))


def _read_block(
    bits: np.ndarray, width: int, scratch: np.ndarray, prepare: int, nu: Optional[int]
) -> tuple[list[bool], list[int], list[int], list[int]]:
    """Read a block of compared trials: (hit, n_prepared, n_postselected, n_minus) per row.

    Row j of ``bits`` holds ``u < threshold`` for the ``width`` uniforms of
    trial j, padded to whole 8-byte words: the first ``prepare`` decide
    postselection and the rest are readout uniforms, in stream order. With
    ``nu`` given, a trial stops at its nu-th success, and it is a hit when
    the first ``prepare`` uniforms hold that many. Without it, all ``prepare``
    uniforms are prepared, and the trial is a hit when its readout fits in the
    row. The counts of a row that misses are meaningless.

    Each word of bools is multiplied by 0x0101010101010101 in place. Byte i of
    the product then counts the set bytes 0..i, and the top byte the whole
    word; no carry crosses a byte, since each byte is 0 or 1. A running sum of
    the word counts per row, as uint16 in ``scratch``, gives the successes
    before any position with one lookup. ``width`` must stay below 2**16,
    and ``scratch`` must hold (rows) * (words per row + 1) uint16. The nu-th
    success lies in the first word whose running sum reaches nu, and a search
    among that word's eight bytes finds it.
    """
    n_rows, n_words = bits.shape[0], bits.shape[1] // 8
    bits[:, width:] = False  # stale, or the previous block's products
    words = bits.view("<u8")
    np.multiply(words, _BYTE_ONES, out=words)
    in_word = bits.view(np.uint8)
    before = scratch[: n_rows * (n_words + 1)].reshape(n_rows, n_words + 1)
    before[:, 0] = 0
    np.right_shift(words, np.uint64(56), out=before[:, 1:], casting="unsafe")
    # before[:, k]: the set bools in words 0..k-1
    np.cumsum(before, axis=1, dtype=np.uint16, out=before)
    rows = np.arange(n_rows)

    def successes(ends):
        """Set bools before position ``ends`` >= 1 (an int or one per row) of each row."""
        last = ends - 1  # the words before the one holding it, then its word up to it
        return before[rows, last // 8].astype(np.int64) + in_word[rows, last]

    postselected = successes(prepare)
    if nu is not None:
        hit = postselected >= nu
        n_minus = successes(prepare + nu) - postselected
        word = np.argmax(before[:, 1:] >= nu, axis=1)
        short = nu - before[rows, word].astype(np.int64)
        byte = np.count_nonzero(in_word.reshape(n_rows, n_words, 8)[rows, word] < short[:, None],
                                axis=1)
        n_prepared = (8 * word + byte + 1).tolist()
        n_postselected = [nu] * n_rows
    else:
        room = width - prepare
        hit = postselected <= room
        n_minus = successes(prepare + np.minimum(postselected, room)) - postselected
        n_prepared = [prepare] * n_rows
        n_postselected = postselected.tolist()
    return hit.tolist(), n_prepared, n_postselected, n_minus.tolist()


def _block_size(width: int, workers: int) -> int:
    """Trials per block for fills of ``width`` uniforms; 0 sends every trial to the serial path.

    The largest block, up to 32, whose buffers fit the byte budget: the
    shared threshold row and, per worker, a row of uniforms and a bool row
    per trial, padded to whole 8-byte words.
    """
    free = _BLOCK_BUDGET - 8 * width * (1 + workers)
    return max(0, min(_MAX_BLOCK, free // (workers * 8 * -(-width // 8))))


def _sample_blocks(
    seed: int, indices: range, thresholds: np.ndarray, prepare: int, nu: Optional[int], block: int
) -> Iterator[tuple[int, bool, int, int, int]]:
    """(index, hit, n_prepared, n_postselected, n_minus) of trials ``indices``, in order.

    Trials are sampled ``block`` at a time. Each trial's generator fills one
    row of ``len(thresholds)`` uniforms, and one compare against
    ``thresholds`` keeps a bool per uniform. A float64 uniform consumes one
    PCG64 output and nothing is buffered between draws, so the fill is the
    stream that serial draws of the same sizes consume. :func:`_read_block`
    then reads the whole block; the counts of a miss are meaningless.
    """
    if not indices:
        return
    width = thresholds.size
    n_words = -(-width // 8)
    block = min(block, len(indices))
    bits = np.empty((block, 8 * n_words), dtype=bool)
    # The uniforms row is idle while a block is read, so it also holds the
    # block's uint16 running counts.
    row = np.empty(max(width, -(-block * (n_words + 1) // 4)))
    uniforms, scratch = row[:width], row.view(np.uint16)
    for start in range(indices.start, indices.stop, block):
        batch = range(start, min(start + block, indices.stop))
        for j, index in enumerate(batch):
            _trial_rng(seed, index).random(out=uniforms)
            np.less(uniforms, thresholds, out=bits[j, :width])
        yield from zip(batch, *_read_block(bits[: len(batch)], width, scratch, prepare, nu))
