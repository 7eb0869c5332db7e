"""Fast, bit-exact replacements for :class:`repro.common.rng.StreamFactory`.

``StreamFactory.fresh(name)`` builds a ``SeedSequence`` for every stream
(numpy's entropy pooling, ~10 us) and then a ``Generator``/``PCG64``
pair.  The pooling algorithm is small and fixed, and with a single-word
seed and a one-word spawn key everything but its last mixing step
depends on the seed alone, so that prefix is computed once per factory.
The rest is pooled one of two ways:

* a batch of spawn words (:func:`pooled_state_batch`) in vectorized
  numpy passes over ``uint64`` arrays: ~0.14 us a name at 256 names;
* a single name in plain Python, ~5 us.

Most streams are then never given a generator.  The fast engine reads
only the first few draws of each (a CFG walk's branch decisions, a
wrong-path burst's length, convergence and skip), and PCG64 is a
128-bit LCG with a fixed output permutation, so
:meth:`FastStreamFactory.raw_batch` runs it for a whole batch at once
(:func:`pcg64_raw`): the 128-bit state is two ``uint64`` limbs, and
every stream's state at draw *k* follows from its seed words by two
128-bit multiplies with constants of ``k`` steps.
:func:`raw_doubles`, :func:`geometric_search` and
:func:`lemire_bounded` turn raw outputs into what ``Generator.random``,
``Generator.geometric`` (its search form) and ``Generator.integers``
return.  From 256 streams on, 16 doubles cost ~1.3 us a stream in
bulk, against ~4-5 us to build a ``Generator`` from pooled words and
draw them; at one stream the kernel costs ~110 us against ~17 us.  A
whole batch of walks or wrong-path bursts breaks even at about 32
streams, so smaller batches keep their generators
(:data:`BULK_MIN`, :meth:`FastStreamFactory.fresh_batch`).  (Figures
measured on a 2-core x86-64 host with Python 3.11 and numpy 2.4.)

Bit-exactness is non-negotiable: the fast engine must produce the same
``SimResult`` as the oracle.  Two guards enforce it:

* a self-check, run once when the first factory is made, pools a
  handful of (seed, name) pairs with numpy and with both of our
  poolings and compares the state words, and compares our raw draws,
  doubles, geometric and bounded integers with numpy's generators on
  them; on any mismatch (say, a numpy that changes its pooling
  constants, its integer promotion rules or a sampling algorithm) every
  factory takes the oracle path from then on;
* seeds outside ``[0, 2**32)`` — which numpy would split into multiple
  32-bit entropy words — always take the oracle path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from ...common.rng import stable_hash32

__all__ = [
    "FastStreamFactory",
    "PrepooledSeedSequence",
    "geometric_search",
    "lemire_bounded",
    "pcg64_raw",
    "pooled_state_batch",
    "pooled_state_words",
    "raw_doubles",
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

#: Smallest batch :meth:`FastStreamFactory.raw_batch` draws in bulk;
#: below it a generator per stream is cheaper (measured crossover).
BULK_MIN = 32

#: Spawn words per numpy pass, when pooling and when drawing.  Larger
#: passes (a batch reaches ~6k words) save next to nothing per word, but
#: their temporaries raised the process's peak RSS by ~1 MB.
_POOL_ROWS = 256

# PCG64 (numpy/random/src/pcg64/pcg64.h): a 128-bit LCG stepped by
# state = state * _PCG_MULT + inc before every output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

#: ``Generator.random`` is ``(raw >> 11) * 2**-53``; this is its largest
#: value.
_U_MAX = 1.0 - 2.0 ** -53

#: ``Generator.geometric(p)`` searches the cumulative distribution with
#: one double from this ``p`` up (numpy's literal 0.333333333333333333333333
#: is this double); below it it inverts an exponential drawn by ziggurat,
#: which :func:`geometric_search` does not reproduce.
GEOMETRIC_SEARCH_MIN = 1.0 / 3.0


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
_U1 = np.uint64(1)
_U11 = np.uint64(11)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)


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


def _limb_columns(values: Sequence[int]) -> Tuple[np.ndarray, ...]:
    """128-bit constants as read-only rows of ``uint64`` limbs: high,
    low, and the low limb's two 32-bit halves."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _M64 for v in values], dtype=np.uint64)
    return tuple(_frozen(limb) for limb in (hi, lo, lo & _U32, lo >> _U64_HALF))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=32)
def _jump(n_draws: int) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """Constants that take a seeded stream to each of its first draws.

    ``pcg64_set_seed`` leaves ``(t * M + inc)`` with ``t = init + inc``,
    and draw ``k`` steps once more before its output, so the state it
    outputs is ``t * M**(k+1) + inc * (M**k + ... + M + 1)``.  Returns
    the limbs of both multipliers for ``k = 1 .. n_draws``.
    """
    power, total = _PCG_MULT, 1
    powers, totals = [], []
    for _ in range(n_draws):
        power = (power * _PCG_MULT) & _M128
        total = (total * _PCG_MULT + 1) & _M128
        powers.append(power)
        totals.append(total)
    return _limb_columns(powers), _limb_columns(totals)


def _mul128(xh: np.ndarray, xl: np.ndarray,
            const: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``(xh, xl) * const`` modulo 2**128, as high and low limbs.

    The low limbs' 64x64-bit product is split into 32-bit halves, so
    every partial product fits a ``uint64``.
    """
    ch, cl, c0, c1 = const
    x0 = xl & _U32
    x1 = xl >> _U64_HALF
    p00 = x0 * c0
    p01 = x0 * c1
    p10 = x1 * c0
    mid = (p00 >> _U64_HALF) + (p01 & _U32) + (p10 & _U32)
    carry = (x1 * c1 + (p01 >> _U64_HALF) + (p10 >> _U64_HALF)
             + (mid >> _U64_HALF))
    return carry + xl * ch + xh * cl, xl * cl


def _raw_rows(states: np.ndarray, n_draws: int) -> np.ndarray:
    """:func:`pcg64_raw` over one pass of rows."""
    powers, totals = _jump(n_draws)
    # pcg64_set_seed: state words 0-1 are the initial state, 2-3 the
    # stream (both high limb first); inc = (stream << 1) | 1.
    inc_h = ((states[:, 2] << _U1) | (states[:, 3] >> _U63))[:, None]
    inc_l = ((states[:, 3] << _U1) | _U1)[:, None]
    t_l = states[:, 1, None] + inc_l
    t_h = states[:, 0, None] + inc_h + (t_l < inc_l)
    ah, al = _mul128(t_h, t_l, powers)
    bh, bl = _mul128(inc_h, inc_l, totals)
    lo = al + bl
    hi = ah + bh + (lo < bl)
    # XSL-RR output: rotate (hi ^ lo) right by the state's top six bits.
    x = hi ^ lo
    rot = hi >> _U58
    return (x >> rot) | (x << ((_U64 - rot) & _U63))


def pcg64_raw(states: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` raw outputs of ``PCG64`` seeded by each row.

    ``states`` holds pooled state words, one stream a row, as
    :func:`pooled_state_batch` gives them; row ``k`` of the result is
    ``PCG64(seed_seq_k).random_raw(n_draws)``.
    """
    out = np.empty((len(states), n_draws), dtype=np.uint64)
    for lo in range(0, len(states), _POOL_ROWS):
        out[lo:lo + _POOL_ROWS] = _raw_rows(states[lo:lo + _POOL_ROWS], n_draws)
    return out


def raw_doubles(raw: np.ndarray) -> np.ndarray:
    """What ``Generator.random`` makes of each raw output."""
    return (raw >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0)


@lru_cache(maxsize=32)
def _geometric_sums(p: float) -> np.ndarray:
    """numpy's running sums for ``geometric(p)`` by search, in its order.

    numpy counts the sums below its double ``U`` (``sum = prod = p``,
    then ``prod *= q; sum += prod`` per step).  The sums stop where they
    reach the largest ``U`` or stop growing; a ``U`` above a sum that
    stopped growing never ends numpy's loop.
    """
    q = 1.0 - p
    total = prod = p
    sums = [total]
    while total < _U_MAX:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    return _frozen(np.array(sums))


def geometric_search(doubles: np.ndarray, p: float) -> np.ndarray:
    """``Generator.geometric(p)`` from each stream's first double.

    For ``p >= GEOMETRIC_SEARCH_MIN`` only, where numpy searches with
    one double (even at ``p == 1``).  0 marks a double numpy's search
    never returns from.
    """
    sums = _geometric_sums(p)
    k = np.searchsorted(sums, doubles, side="left") + 1
    k[doubles > sums[-1]] = 0
    return k


def lemire_bounded(raw: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(0, n)`` from each raw output, and which rows
    it is exact for.

    For ``1 <= n < 2**32`` numpy maps the low 32 bits of one raw output
    into ``[0, n)`` by Lemire's multiply-shift; a word in the rejection
    zone takes the output's high half and maybe more draws, so its row
    is marked inexact.  ``integers(0, 1)`` draws nothing and returns 0.
    """
    if n == 1:
        return np.zeros(raw.shape, dtype=np.int64), np.ones(raw.shape, dtype=bool)
    m = (raw & _U32) * np.uint64(n)
    threshold = np.uint64(((1 << 32) - n) % n)
    return (m >> _U64_HALF).astype(np.int64), (m & _U32) >= threshold


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
    """Compare our poolings and bulk draws against numpy on a spread of keys."""
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
            if not _draws_match(batch):
                return False
        return True
    # lint: allow(EXC001 capability probe: any failure means "pooling not exact here" and every factory takes the oracle path)
    except Exception:
        return False


def _draws_match(states: np.ndarray) -> bool:
    """Whether our bulk draws from ``states`` equal numpy's generators'."""
    def numpy(draw):
        return [draw(Generator(PCG64(PrepooledSeedSequence(row))))
                for row in states]

    raw = pcg64_raw(states, 4)
    doubles = raw_doubles(raw)
    if (numpy(lambda g: g.bit_generator.random_raw(4).tolist()) != raw.tolist()
            or numpy(lambda g: g.random(4).tolist()) != doubles.tolist()):
        return False
    for p in (1.0, 0.5, GEOMETRIC_SEARCH_MIN):
        want = numpy(lambda g: g.geometric(p))
        if want != geometric_search(doubles[:, 0], p).tolist():
            return False
    for n in (1, 2, 3, 6, 7):
        values, exact = lemire_bounded(raw[:, 0], n)
        want = numpy(lambda g: g.integers(0, n))
        if any(ok and w != v for w, v, ok in
               zip(want, values.tolist(), exact.tolist())):
            return False
    return True


#: Whether both of our poolings, per name and batched, and our bulk draws
#: reproduce numpy's exactly on this installation; None until the first
#: factory runs the self-check, so a process that never makes one (the
#: oracle's) pays nothing for it.  When False every factory uses the
#: oracle path.
POOLING_EXACT: Optional[bool] = None


def _pooling_exact() -> bool:
    """:data:`POOLING_EXACT`, running the self-check on first use."""
    global POOLING_EXACT
    if POOLING_EXACT is None:
        POOLING_EXACT = _self_check()
    return POOLING_EXACT


class FastStreamFactory:
    """Drop-in ``fresh()`` provider matching ``StreamFactory`` bit-for-bit."""

    __slots__ = ("_seed", "_fast", "_pool", "_hash_const", "_consts")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._fast = 0 <= seed < (1 << 32) and _pooling_exact()
        if self._fast:
            self._pool, self._hash_const = _pool_prefix(seed)
            self._consts = _batch_consts(self._pool, self._hash_const)

    def _pooled(self, words: List[int]) -> Iterator[np.ndarray]:
        """The pooled state rows of ``words``, :data:`_POOL_ROWS` a pass."""
        for lo in range(0, len(words), _POOL_ROWS):
            yield _pool_batch(self._consts, words[lo:lo + _POOL_ROWS])

    def raw_batch(self, names: Sequence[str], n_draws: int) -> Optional[np.ndarray]:
        """The first ``n_draws`` raw outputs of each name's stream.

        Row ``k`` holds what ``fresh(names[k]).bit_generator.random_raw(n_draws)``
        would.  ``None`` when the batch has fewer than :data:`BULK_MIN`
        names or the factory takes the oracle path: the caller then
        draws from :meth:`fresh_batch`'s generators.
        """
        if not self._fast or len(names) < BULK_MIN:
            return None
        words = [stable_hash32(name) for name in names]
        return pcg64_raw(np.concatenate(list(self._pooled(words))), n_draws)

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
            states = (row for block in self._pooled(words) for row in block)
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
