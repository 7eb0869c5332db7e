"""Fast, bit-exact replacements for :class:`repro.common.rng.StreamFactory`.

``StreamFactory.fresh(name)`` builds a ``SeedSequence`` for every stream
(numpy's entropy pooling, ~10 us) and then a ``Generator``/``PCG64``
pair (~1.6 us).  The pooling algorithm is small and fixed, and with a
single-word seed and a one-word spawn key everything but its last
mixing step depends on the seed alone, so that prefix is computed once
per factory.  The rest is pooled one of two ways:

* a batch of spawn words (:meth:`FastStreamFactory.fresh_batch`, at
  least :data:`BATCH_MIN` names) in vectorized numpy passes over
  ``uint64`` arrays: ~1.1 us a name at 16 names, ~0.14 us at 256;
* a single name in plain Python, ~5 us.

The pooled words reach ``PCG64`` through a minimal ``ISeedSequence``
shim (:class:`PrepooledSeedSequence`) that skips the pooling numpy
would otherwise redo.  So building the generator is now the larger
cost of a batched stream.  (Figures measured on a 2-core x86-64 host
with Python 3.11 and numpy 2.4.)

Bit-exactness is non-negotiable: the fast engine must produce the same
``SimResult`` as the oracle.  Two guards enforce it:

* an import-time self-check pools a handful of (seed, name) pairs with
  numpy and with both of our implementations and compares the state
  words; on any mismatch (say, a numpy that changes its pooling
  constants or its integer promotion rules) every factory permanently
  takes the oracle path;
* seeds outside ``[0, 2**32)`` — which numpy would split into multiple
  32-bit entropy words — always take the oracle path.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from ...common.rng import stable_hash32

__all__ = [
    "FastStreamFactory",
    "PrepooledSeedSequence",
    "pooled_state_batch",
    "pooled_state_words",
]

# SeedSequence pooling constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4

#: Smallest batch :meth:`FastStreamFactory.fresh_batch` pools with numpy;
#: below it the per-name Python pooling is cheaper (measured crossover).
BATCH_MIN = 4

#: Spawn words per numpy pass.  Larger passes (a batch reaches ~5k
#: words) save next to nothing per word, but their temporaries raised
#: the process's peak RSS by ~1 MB.
_POOL_ROWS = 256


def _pool_prefix(seed: int) -> Tuple[List[int], int]:
    """Entropy-pool state after absorbing the seed-only prefix.

    With a single-word seed and one spawn-key word the assembled entropy
    is ``[seed, 0, 0, 0, spawn_word]`` (the entropy run is zero-padded
    to the pool size before the spawn key is appended).  The pool fill
    *and* the cross-mix pass consume only the first four words, so the
    state they leave behind depends only on the seed and is shared by
    every stream of one factory; the spawn word is mixed in afterwards.
    """
    hash_const = _INIT_A
    pool = []
    for word in (seed, 0, 0, 0):
        word ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        word = (word * hash_const) & _M32
        word ^= word >> _XSHIFT
        pool.append(word)
    # Cross-mix every pool word into every other.
    for i_src in range(_POOL_SIZE):
        src = pool[i_src]
        for i_dst in range(_POOL_SIZE):
            if i_src == i_dst:
                continue
            v = src ^ hash_const
            hash_const = (hash_const * _MULT_A) & _M32
            v = (v * hash_const) & _M32
            v ^= v >> _XSHIFT
            r = (_MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * v) & _M32
            pool[i_dst] = r ^ (r >> _XSHIFT)
    return pool, hash_const


def pooled_state_words(seed: int, spawn_word: int) -> Tuple[int, int, int, int]:
    """The four ``uint64`` words ``SeedSequence(seed, spawn_key=(spawn_word,))``
    feeds to ``PCG64`` — computed without constructing a ``SeedSequence``."""
    pool, hash_const = _pool_prefix(seed)
    return _finish_pool(list(pool), hash_const, spawn_word)


def _finish_pool(
    pool: List[int], hash_const: int, spawn_word: int
) -> Tuple[int, int, int, int]:
    # Mix the excess entropy word (the spawn key) into every pool word.
    for i_dst in range(_POOL_SIZE):
        v = spawn_word ^ hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        v = (v * hash_const) & _M32
        v ^= v >> _XSHIFT
        r = (_MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * v) & _M32
        pool[i_dst] = r ^ (r >> _XSHIFT)
    # generate_state(4, uint64): eight uint32 draws, paired little-endian.
    hash_const = _INIT_B
    out32 = []
    for i in range(8):
        v = pool[i % _POOL_SIZE]
        v ^= hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        v = (v * hash_const) & _M32
        v ^= v >> _XSHIFT
        out32.append(v)
    return (
        out32[0] | (out32[1] << 32),
        out32[2] | (out32[3] << 32),
        out32[4] | (out32[5] << 32),
        out32[6] | (out32[7] << 32),
    )


def _hash_chain(hash_const: int, mult: int,
                n: int) -> Tuple[List[int], List[int]]:
    """XOR and multiply constants of ``n`` consecutive hashmix steps.

    Each step XORs its input with the running hash constant, advances
    the constant, then multiplies by the advanced one.
    """
    xor_c, mul_c = [], []
    for _ in range(n):
        xor_c.append(hash_const)
        hash_const = (hash_const * mult) & _M32
        mul_c.append(hash_const)
    return xor_c, mul_c


def _column(values: List[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint64)[:, None]


#: Constants of ``generate_state``'s eight draws, and the pool word each
#: draw reads.
_DRAW_XOR, _DRAW_MUL = map(_column, _hash_chain(_INIT_B, _MULT_B, 8))
_DRAW_POOL = np.array([i % _POOL_SIZE for i in range(8)], dtype=np.intp)
_U32 = np.uint64(_M32)
_USHIFT = np.uint64(_XSHIFT)
_UMIX_R = np.uint64(_MIX_MULT_R)
_U64_HALF = np.uint64(32)


def _batch_consts(pool: List[int], hash_const: int) -> Tuple[np.ndarray, ...]:
    """Seed-dependent constants of the spawn-word mixing step, as columns.

    Mixing the spawn word into pool word ``i`` reads only that word and
    the ``i``-th step of the hash-constant chain, so the four steps are
    independent and run as the rows of one ``(4, n)`` array pass.
    """
    xor_c, mul_c = _hash_chain(hash_const, _MULT_A, _POOL_SIZE)
    lhs = [(_MIX_MULT_L * word) & _M32 for word in pool]
    return _column(xor_c), _column(mul_c), _column(lhs)


def _pool_batch(consts: Tuple[np.ndarray, ...],
                spawn_words: Sequence[int]) -> np.ndarray:
    """:func:`_finish_pool` over many spawn words: an ``(n, 4)`` uint64 array.

    Every operand is ``uint64`` and every product of two 32-bit values
    is masked back to 32 bits, so no step depends on numpy's promotion
    rules for Python integers; the import-time self-check still covers
    it.
    """
    xor_c, mul_c, lhs = consts
    v = np.asarray(spawn_words, dtype=np.uint64)[None, :] ^ xor_c
    v = (v * mul_c) & _U32
    v ^= v >> _USHIFT
    r = (lhs - _UMIX_R * v) & _U32
    pool = r ^ (r >> _USHIFT)
    out = pool[_DRAW_POOL] ^ _DRAW_XOR
    out = (out * _DRAW_MUL) & _U32
    out ^= out >> _USHIFT
    return np.ascontiguousarray((out[0::2] | (out[1::2] << _U64_HALF)).T)


def pooled_state_batch(seed: int, spawn_words: Sequence[int]) -> np.ndarray:
    """Row ``k`` holds the words of ``SeedSequence(seed, spawn_key=(w_k,))``.

    The vectorized counterpart of :func:`pooled_state_words`, for
    ``0 <= seed < 2**32`` and 32-bit spawn words.
    """
    return _pool_batch(_batch_consts(*_pool_prefix(seed)), spawn_words)


class PrepooledSeedSequence(ISeedSequence):
    """Minimal ``ISeedSequence`` carrying already-pooled state words.

    ``PCG64(seed_seq)`` only ever calls ``generate_state(4, uint64)``;
    handing it the precomputed words skips numpy's pooling entirely
    while seeding the bit generator identically.
    """

    __slots__ = ("_words",)

    def __init__(self, words: Sequence[int]) -> None:
        self._words = words  # four words: a tuple or a uint64 array row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:
            return np.array(self._words, dtype=np.uint64)
        # Any other request shape means a numpy we did not anticipate;
        # re-derive via uint32 halves (uint64 words are LE word pairs).
        halves: List[int] = []
        for w in map(int, self._words):
            halves.append(w & _M32)
            halves.append(w >> 32)
        if dtype is np.uint32 and n_words <= len(halves):
            return np.array(halves[:n_words], dtype=np.uint32)
        raise NotImplementedError(
            f"PrepooledSeedSequence cannot serve generate_state({n_words}, {dtype})"
        )


def _self_check() -> bool:
    """Compare both of our poolings against numpy's on a spread of keys."""
    names = ("it:r0:0", "sq:seq:17", "wp:a:3:1", "est:x", "")
    try:
        for seed in (0, 1, 2003, 0x7FFFFFFF, 0xDEADBEEF, 0xFFFFFFFF):
            spawns = [stable_hash32(name) for name in names] + [0, _M32]
            batch = pooled_state_batch(seed, spawns)
            if batch.dtype != np.uint64 or batch.shape != (len(spawns), 4):
                return False
            for spawn, row in zip(spawns, batch.tolist()):
                ref = SeedSequence(entropy=seed, spawn_key=(spawn,)).generate_state(
                    4, np.uint64
                )
                ref = tuple(int(x) for x in ref)
                if pooled_state_words(seed, spawn) != ref or tuple(row) != ref:
                    return False
        return True
    # lint: allow(EXC001 import-time capability probe: any failure means "pooling not exact here" and every factory takes the oracle path)
    except Exception:
        return False


#: Whether both of our poolings, per name and batched, reproduce numpy's
#: exactly on this installation.  When False every factory uses the
#: oracle path.
POOLING_EXACT = _self_check()


class FastStreamFactory:
    """Drop-in ``fresh()`` provider matching ``StreamFactory`` bit-for-bit."""

    __slots__ = ("_seed", "_fast", "_pool", "_hash_const", "_consts")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._fast = POOLING_EXACT and 0 <= seed < (1 << 32)
        if self._fast:
            self._pool, self._hash_const = _pool_prefix(seed)
            self._consts = _batch_consts(self._pool, self._hash_const)

    def fresh_batch(self, names: Sequence[str]) -> Iterator[Generator]:
        """New generators for ``names``, in order: what ``fresh`` gives each.

        From :data:`BATCH_MIN` names on, the spawn words are pooled with
        numpy, :data:`_POOL_ROWS` per pass.  Generators are built one at
        a time as the caller consumes them, so a large batch never holds
        them all at once.
        """
        words = [stable_hash32(name) for name in names]
        if not self._fast:
            seed = self._seed
            return (Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(w,))))
                    for w in words)
        if len(words) >= BATCH_MIN:
            consts = self._consts
            states = (row for lo in range(0, len(words), _POOL_ROWS)
                      for row in _pool_batch(consts, words[lo:lo + _POOL_ROWS]))
        else:
            pool, hash_const = self._pool, self._hash_const
            states = [_finish_pool(list(pool), hash_const, w) for w in words]
        return (Generator(PCG64(PrepooledSeedSequence(s))) for s in states)

    def fresh(self, name: str) -> Generator:
        """A new generator for ``name`` — same stream as the oracle's."""
        if not self._fast:
            return Generator(
                PCG64(SeedSequence(entropy=self._seed, spawn_key=(stable_hash32(name),)))
            )
        words = _finish_pool(
            list(self._pool), self._hash_const, stable_hash32(name)
        )
        return Generator(PCG64(PrepooledSeedSequence(words)))
