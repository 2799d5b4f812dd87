"""Separable compressive measurement operators.

Measurements are Y = Phi_s X Phi_p^T plus optional Gaussian noise. Each
axis stacks a low-pass block of leading sequency-ordered Walsh-Hadamard
coefficients over a seeded Rademacher block with rows scaled to unit norm;
each Rademacher sign is the top bit of one raw Philox word
(rng.negative_signs). Counts that are not integers with 1 <= m <= n and
0 <= q <= m, axes longer than MAX_WALSH_LENGTH, a Rademacher block of more
than _MAX_RADEMACHER_ENTRIES entries, a given scale that is not a real
number, finite and > 0 (and 1 when q = m), and rates and noise levels that
are not real numbers in range are rejected before anything is built.

The spectral projector is one dense m_s x n_s matrix M (at most 2048 x
2048): its q_s leading Walsh rows over Rademacher rows drawn in chunks
straight into M, applied as a single product. The spatial projector keeps
the zig-zag-first 2-D Walsh coefficients of each n_v x n_h frame over
Rademacher rows that its constructor draws once and stores packed, one sign
bit per entry, expanded to float64 +/-1 (+/-1/sqrt(2) when log2 n_p is
odd); the rest of 1/sqrt(n_p), a power of two, is a gain on each product,
so every output and scale is that of +/-1/sqrt(n_p) rows bit for bit.
A build of at most _KEEP_LIMIT Rademacher entries (every 32x32 block,
64x64 ones of up to 256 rows) also caches them as float64. A default build
of more, up to _MATERIALIZE_LIMIT, holds them for its power iteration as
an int8 +/-1 copy, one byte per entry, and drops it after; each step casts
the copy's slices into one float64 buffer. A build given its scale fills
no copy past _KEEP_LIMIT. Rows with no cache are expanded chunk by chunk
instead of being held whole, once per apply, adjoint or
residual_and_adjoint. Draws and passes are chunked separately. Both
projectors draw their rows through _draw_rademacher, on up to one thread
per CPU the process may use, each thread drawing one range of rows of at
least _WORKER_ENTRIES entries, with the same bits for any CPU count; the
passes stay on one thread. A build
draws and packs its rows, then fills its cache or copy, in chunks of at
most _DRAW_BYTES of raw words in all (past 256x256 frames, runs of columns
of one row), so beyond what it keeps or copies it holds at most about 0.6
MiB; a much larger draw budget can cost resident memory through glibc's
mmap threshold (see _CHUNK_ENTRIES). A pass sweeps the rows in chunks
whose size it picks from its row count (see _WORKSET_BYTES): a chunk is
expanded into one reused buffer, cast into it from the int8 copy, or is a
view of the float64 cache. The fused pass runs both products of a chunk
while it is in cache: the solvers make one per iterate, and the
spatial power iteration one per step, at y = 0.

Both projectors fold in a deterministic spectral normalization: the stacked
matrix is divided by a power-iteration estimate of its largest singular
value. An estimate reads from below, so each normalized axis norm is at
least 1 and close to it (by dense SVD over the default sweep of the
reference grid, spatial 1.0006 to 1.0113). The combined operator
X -> Phi_s X Phi_p^T is Phi_p kron Phi_s, so its norm is the product of the
axis norms, and the solvers' fixed step size is stable at every sampling
rate. A purely low-pass projector (q = m) is a partial isometry, so its
scale is exactly 1. A constructor given scale= uses that value instead of
the estimate and draws the same rows: an HSM2 file stores the scales of its
acquisition, so reading one skips the power iteration.
"""

import itertools
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .datacube import frames_from_matrix, matrix_from_frames
from .transforms import check_pow2, walsh_rows, zigzag_indices

# Draws and passes are chunked separately. Both axes draw their Rademacher
# rows, and the spatial axis packs them, in chunks of at most _DRAW_BYTES of
# raw Philox words in all: each of w workers draws whole rows in chunks of
# _DRAW_BYTES / w, or a power-of-two run of columns of one row when a row
# is longer. The spatial axis then fills its cache in row chunks of
# _DRAW_BYTES on one thread. The stream and every byte are those of one
# whole draw, and a 64x64 build holds at most 0.6 MiB beyond what it keeps,
# as tracemalloc counts it with the workers' threads. A draw budget well
# above the solvers' cube-sized temporaries may give back part of that gain
# in resident memory even where the live peak stays small: glibc raises its
# mmap threshold to the size of each freed mmapped block, so later
# temporaries come from the heap and stay resident. The pass chunks below are
# _CHUNK_ENTRIES entries and set the adjoint's summation order, so they do
# not follow the draw budget.
#
# The spatial rows are kept as packed sign bits. A default build of at most
# _MATERIALIZE_LIMIT entries also copies them for its norm estimate, whose
# passes (m = 1) ran faster on slices of a float64 cache than on expanded
# chunks: 1.9 against 2.8-2.9 ms over 819 x 4096 rows. Past _KEEP_LIMIT the
# copy holds int8 +/-1, and each step casts one slice at a time into one
# float64 buffer by _expand's last step (_widen), in the cached rule's
# slices below, so every BLAS call and default scale is the float64 cache's
# bit for bit. At 819 x 4096 the copy holds 3.4 MB, not 26.8 MB: one build's
# tracemalloc peak fell from 26.2 to 4.5 MiB and its time from 166 to 157 ms
# (medians of 12 interleaved builds, 10 faster). A block that the 1-row
# passes take whole (rows of more than 2^14 entries) keeps a float64 copy,
# which an int8 one would cast whole at every step. Only a block of at most
# _KEEP_LIMIT entries keeps its cache after the estimate, and a build given
# its scale fills one only then: a solver's fused pass (m = 8) ran faster on
# a cache at 32x32 (0.50 against 0.89-0.93 ms over 410 rows, 1.05-1.09
# against 1.83-1.94 over 900) but not at 64x64 (1.07-1.09 against 0.97-1.00
# ms over 128 rows, 2.01 against 1.62-1.75 over 256, 3.73-3.78 against
# 3.49-3.62 over 512, 5.59-5.65 against 5.13-5.18 over 819). The rule loses
# one measured case: at 64x64, m = 4, over 512 rows the cache took
# 1.62-1.64 ms against 1.94-1.96. Timed with one BLAS thread on the host
# below, medians of 31 in two rounds.
# Rows with no cache are expanded in row chunks once per apply, adjoint and
# fused residual-and-adjoint pass. Every pass sweeps the rows in chunks,
# expanded, cast from the copy or sliced from the cache, so that the fused
# pass reads each chunk from memory once for both products. A pass over
# m input rows whose input, accumulator and product blocks (24 m n_p bytes)
# take at most two thirds of a budget B fills the rest of B with each chunk,
# so that both stay in a 2 MiB L2 cache. An expanded chunk, at most
# _CHUNK_ENTRIES entries, has B = _WORKSET_BYTES: 24 rows at 64x64 with
# m = 8, not 256. A cached slice has half, room also for the packed copy BLAS
# makes of it (Goto and van de Geijn, ACM TOMS 2008), which timed best: 72
# rows at 32x32 with m = 8, 84 with m = 4 and 21 in a 64x64 norm pass
# (m = 1). Timed on a 2-vCPU Xeon (2 MiB L2 per core), one BLAS thread,
# medians of 9: slicing took the fused pass at 32x32x16, rates (0.5, 0.5),
# from 783 to 540 us and at (0.3, 0.25) from 173 to 162 us, and that 64x64
# norm pass from 2320 to 1964 us; 168-row slices (the full budget) took 748
# us, and halving the budget of expanded chunks too took the fused pass at
# 64x64x32, rates (0.5, 0.25), from 11.6 to 16.9 ms. Past the rule's bound a
# pass takes _CHUNK_ENTRIES chunks or the whole cache, since smaller chunks
# ran slower there: a fused pass at 64x64 took 25 and 28 ms in the 12 and 9
# rows the rule would give m = 12 and 13 against 23 and 24 ms in 256, and at
# 128x128 with m = 8 276 ms in 4 rows against 186 ms in 64.
_MATERIALIZE_LIMIT = 1 << 22
_KEEP_LIMIT = 1 << 20
_CHUNK_ENTRIES = 1 << 20
_DRAW_BYTES = 1 << 19
_WORKSET_BYTES = 3 << 19
_NORM_ITERATIONS = 50
# A Rademacher block is drawn on up to one worker per usable CPU, each
# taking one contiguous range of rows of at least _WORKER_ENTRIES entries,
# so a block of fewer than 2^20 entries is drawn on the calling thread
# alone: every 32x32 block at rates up to 0.5 and 64x64 blocks of fewer
# than 256 rows. Packed spatial draws, sequential against two workers,
# medians of 81 interleaved, in two runs on a 2-vCPU VM shared with other
# tenants: 128 x 4096 2.69 and 2.40 ms against 2.84 and 3.02 (two workers
# faster in 52 and 29 of 81), 256 x 4096 8.00 and 4.67 against 5.23 and
# 3.02 (62 and 74), 819 x 4096 19.5 and 16.9 against 15.9 and 14.0 (72 and
# 78), 1638 x 4096 34.0 and 32.4 against 21.0 and 24.0 ms (78 and 71).
# Smaller blocks were timed faster on two workers in these runs (410 x 1024
# 2.05 and 1.88 against 1.56 and 1.35 ms) but slower or even in an earlier
# sweep (2.20 against 2.27, and 205 x 1024 1.12 against 1.58), so they stay
# sequential. A thread takes about 0.12 ms to start and join. A worker
# draws chunks of _DRAW_BYTES / workers but never fewer than _WORKER_WORDS
# raw words (32 KiB), so at most 16 workers draw at once: a sequential draw
# of 819 x 4096 took 26.5, 20.3 and 16.7 ms in chunks of 1024, 2048 and 4096
# words and 14.9-17.7 ms in larger ones, a few microseconds of Python,
# which holds the GIL, per chunk. Only one and two workers were timed. A
# drawing thread's glibc malloc arena keeps the pages of its chunks, about
# 1 MB resident once per process, since the next build's thread reuses the
# arena: hsbench's peak RSS moved by -0.08 to +0.29 MB.
_WORKER_ENTRIES = 1 << 19
_WORKER_WORDS = 1 << 12
# Largest Rademacher block a projector may draw: 256 MiB of packed spatial
# signs, enough for 128x128 frames at any rate and 256x256 at r_p <= 0.5.
_MAX_RADEMACHER_ENTRIES = 1 << 31


def check_rates(r_p, r_s):
    """A ValueError unless each rate is a real number in (0, 1]."""
    for rate, what in ((r_p, "spatial"), (r_s, "spectral")):
        if not (rng.is_real(rate) and 0.0 < rate <= 1.0):
            raise ValueError(f"{what} rate must be in (0, 1], got {rate!r}")


def rates_to_counts(r_p, r_s, n_p, n_s):
    """Projection counts (m_p, m_s) for rates in (0, 1], round-half-up."""
    check_rates(r_p, r_s)
    counts = []
    for rate, n, what in ((r_p, n_p, "spatial"), (r_s, n_s, "spectral")):
        if not rng.is_integer(n) or n < 1:
            raise ValueError(f"{what} dimension must be >= 1, got {n}")
        counts.append(min(n, max(1, int(math.floor(rate * n + 0.5)))))
    return counts[0], counts[1]


def default_lowpass_counts(n_p, n_s, m_p, m_s, q_p=None, q_s=None):
    """Default low-pass block sizes: ten percent of n_p, five percent of n_s.

    Counts are clamped to the projection budget (with a warning) since the
    low-pass block cannot exceed the total row count. At full rate (m = n)
    the complete orthonormal transform is used instead, making acquisition
    an isometry. A count given as q_p or q_s is returned as it is, and only
    a count that is not given is defaulted or warned about.
    """
    out = []
    for frac, n, m, q, what in ((0.1, n_p, m_p, q_p, "spatial"),
                                (0.05, n_s, m_s, q_s, "spectral")):
        if q is None and m == n:
            q = n
        elif q is None:
            q = int(math.floor(frac * n + 0.5))
            if q > m:
                warnings.warn(
                    f"{what} low-pass count {q} exceeds the projection "
                    f"budget {m}; clamping to {m}")
                q = m
        out.append(q)
    return out[0], out[1]


def _power_norm(gram_fn, dim, gen):
    """Largest singular value estimate by power iteration on a Gram map."""
    v = rng.gaussian(gen, (dim,))
    v /= np.linalg.norm(v)
    sigma2 = 1.0
    for _ in range(_NORM_ITERATIONS):
        w = gram_fn(v)
        sigma2 = np.linalg.norm(w)
        v = w / sigma2
    return float(np.sqrt(sigma2))


def _draw_chunks(rows, n):
    """(lo, hi) row ranges of a rows x n cache fill, each at least one row
    and otherwise at most _DRAW_BYTES / 8 entries."""
    step = max(1, _DRAW_BYTES // (8 * n))
    return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _cpus():
    """CPUs this process may run on: its affinity mask (which taskset
    narrows) where the OS has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw_rademacher(seed, purpose, out, n, s=None):
    """The Rademacher block of the (seed, purpose) stream, len(out) rows of
    n signs, into out: packed sign bits when s is None, else float64 +/-s.
    The rows are split into one contiguous range per worker (see
    _WORKER_ENTRIES): one thread per range but the last, which the caller
    draws, all joined before return. Each range is drawn from a stream
    started at its first word into its own rows, so the bits never depend
    on the worker count. A thread that cannot be started leaves its range
    and those after it to the caller. A worker draws chunks of _DRAW_BYTES
    / workers of raw words: whole rows, or a power-of-two run of at least
    8 columns of a longer row, so a packed chunk fills whole bytes."""
    rows = len(out)
    workers = max(1, min(_cpus(), rows, rows * n // _WORKER_ENTRIES,
                         _DRAW_BYTES // (8 * _WORKER_WORDS)))
    words = max(8, _DRAW_BYTES // (8 * workers))
    step, cols = max(1, words // n), min(n, 1 << (words.bit_length() - 1))

    def draw(a, b):
        gen = rng.stream(seed, purpose, start=a * n)
        for lo, c in itertools.product(range(a, b, step), range(0, n, cols)):
            hi = min(lo + step, b)
            neg = rng.negative_signs(gen, (hi - lo, cols))
            if s is None:
                out[lo:hi, c // 8:(c + cols + 7) // 8] = np.packbits(
                    neg, axis=1)
            else:
                out[lo:hi, c:c + cols] = np.where(neg, -s, s)
            del neg  # no mask outlives its chunk

    def work(a, b):
        try:
            draw(a, b)
        except BaseException as exc:  # raised again in the caller
            failed.append(exc)

    bounds = [rows * i // workers for i in range(workers)]
    failed, threads = [], []
    try:
        for a, b in zip(bounds[:-1], bounds[1:]):
            thread = threading.Thread(target=work, args=(a, b))
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: the caller draws on
                break
            threads.append(thread)
        draw(bounds[len(threads)], rows)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]


def _check_counts(n, m, q, scale, what):
    if not rng.is_integer(m) or m < 1 or m > n:
        raise ValueError(
            f"{what} projection count must satisfy 1 <= m <= {n}, got {m}")
    if not rng.is_integer(q) or q < 0 or q > m:
        raise ValueError(
            f"{what} low-pass count must satisfy 0 <= q <= m={m}, got {q}")
    if (m - q) * n > _MAX_RADEMACHER_ENTRIES:
        raise ValueError(f"{what} Rademacher block of {m - q} x {n} entries "
                         f"exceeds {_MAX_RADEMACHER_ENTRIES}")
    if scale is None:
        return
    if not (rng.is_real(scale) and math.isfinite(scale) and scale > 0):
        raise ValueError(f"{what} scale must be finite and > 0, got {scale}")
    if q == m and scale != 1.0:
        raise ValueError(f"{what} scale must be 1 on a purely low-pass axis "
                         f"(q = m = {m}), got {scale}")


class SpatialProjector:
    """Pixel-axis projector on n_v x n_h frames flattened column-major: q_p
    zig-zag 2-D WHT coefficients over (m_p - q_p) Rademacher rows of
    +/-1/sqrt(n_p), held as packed signs and expanded to +/-u, all
    multiplied by scale (by default the inverse of a power-iteration
    estimate of the stacked matrix's norm), acting on (bands, n_p) matrices."""

    def __init__(self, n_v, n_h, m_p, q_p, seed, *, scale=None):
        check_pow2(n_v, "frame rows")
        check_pow2(n_h, "frame cols")
        self.n_v, self.n_h, self.n_p = n_v, n_h, n_v * n_h
        _check_counts(self.n_p, m_p, q_p, scale, "spatial")
        self.m_p, self.q_p, self.seed = m_p, q_p, rng.check_seed(seed)
        # the zig-zag prefix lies in the leading rows and columns of the grid
        self._rows, self._cols = zigzag_indices(n_v, n_h, q_p).T
        self._wv = walsh_rows(n_v, self._rows.max(initial=-1) + 1)
        self._wh = walsh_rows(n_h, self._cols.max(initial=-1) + 1)
        rows = m_p - q_p
        # 1/sqrt(n_p) is 2^-k * u exactly, k = floor(log2(n_p) / 2), u = 1 or
        # 1/sqrt(2): the products carry 2^-k, which commutes with rounding
        k = (int(self.n_p).bit_length() - 1) // 2
        self._unit, self._gain = 1.0 / np.sqrt(self.n_p >> 2 * k), 2.0 ** -k
        self._chunk = max(1, _CHUNK_ENTRIES // self.n_p)
        self._signs = np.empty((rows, (self.n_p + 7) // 8), np.uint8)
        _draw_rademacher(self.seed, rng.SPATIAL_RADEMACHER, self._signs,
                         self.n_p)
        self._cache = None
        entries = rows * self.n_p
        keep = entries <= _KEEP_LIMIT
        if entries <= _MATERIALIZE_LIMIT and (keep or scale is None):
            # allocated after the draws, so it never coexists with one. The
            # estimate's copy holds int8 signs where its 1-row passes slice
            # it; a block they take whole would be cast whole at every step
            narrow = not keep and self._pass_rows(1, True) < rows
            self._cache = np.empty((rows, self.n_p),
                                   np.int8 if narrow else np.float64)
            for lo, hi in _draw_chunks(rows, self.n_p):
                self._expand(lo, hi, self._cache[lo:hi])
        self.scale = 1.0 if scale is None else float(scale)
        if scale is None and q_p < m_p:
            # at scale 1 the fused pass at y = 0 is -adjoint(apply(v)) bit
            # for bit, and the norm ignores the sign
            zero = np.zeros(m_p)
            gen = rng.stream(self.seed, rng.SPATIAL_NORM)
            self.scale = 1.0 / _power_norm(
                lambda v: self.residual_and_adjoint(zero, v)[1], self.n_p, gen)
        if not keep:
            self._cache = None  # the estimate's copy: later passes expand

    def _expand(self, lo, hi, out):
        """Rademacher rows lo:hi unpacked into out through _widen."""
        signs = np.unpackbits(self._signs[lo:hi], axis=1,
                              count=self.n_p).view(np.int8)
        signs *= -2
        signs += 1  # 1 - 2b in place: +1 or -1
        return self._widen(signs, out)

    def _widen(self, signs, out):
        """int8 +/-1 rows into out: as they are into int8, as float64 +/-u
        by a plain cast when u = 1 and one multiply when log2 n_p is odd."""
        if self._unit == 1.0 or out.dtype == np.int8:
            np.copyto(out, signs)
            return out
        return np.multiply(signs, self._unit, out=out)

    def _pass_rows(self, m, cached):
        """Rows per block of a pass over m input rows, by the _WORKSET_BYTES
        rule: half the budget for a slice of the cached block, and past the
        rule's bound the whole cache or a _CHUNK_ENTRIES chunk."""
        rows, n = self.m_p - self.q_p, self.n_p
        chunk, budget = self._chunk, _WORKSET_BYTES
        if cached:
            chunk, budget = max(rows, 1), _WORKSET_BYTES // 2
        if 3 * 24 * m * n <= 2 * budget:
            chunk = min((budget - 24 * m * n) // (8 * n), chunk)
        return chunk

    def _blocks(self, m):
        """(first output row, Rademacher rows) pairs for a pass over m input
        rows, in _pass_rows slices: views of a float64 cache, else float64
        rows in one buffer reused per call, cast from an int8 cache or
        expanded from the packed signs."""
        rows, cache = self.m_p - self.q_p, self._cache
        chunk = self._pass_rows(m, cache is not None)
        buf = None
        if cache is None or cache.dtype == np.int8:
            buf = np.empty((min(chunk, rows), self.n_p))
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            if buf is None:
                block = cache[lo:hi]
            elif cache is None:
                block = self._expand(lo, hi, buf[:hi - lo])
            else:
                block = self._widen(cache[lo:hi], buf[:hi - lo])
            yield self.q_p + lo, block

    def _low(self, x):
        coeff = self._wv @ frames_from_matrix(x, self.n_v, self.n_h) @ self._wh.T
        return coeff[..., self._rows, self._cols]

    def _low_adjoint(self, y):
        coeff = np.zeros(y.shape[:-1] + (len(self._wv), len(self._wh)))
        coeff[..., self._rows, self._cols] = y
        return matrix_from_frames(self._wv.T @ coeff @ self._wh)

    def apply(self, x):
        """x: (..., n_p) -> (..., m_p)."""
        out = np.empty(x.shape[:-1] + (self.m_p,))
        out[..., :self.q_p] = self._low(x)
        for lo, block in self._blocks(math.prod(x.shape[:-1])):
            np.multiply(x @ block.T, self._gain,
                        out=out[..., lo:lo + len(block)])
        return self.scale * out

    def adjoint(self, y):
        """y: (..., m_p) -> (..., n_p)."""
        back = np.zeros(y.shape[:-1] + (self.n_p,))
        for lo, block in self._blocks(math.prod(y.shape[:-1])):
            back += y[..., lo:lo + len(block)] @ block
        back *= self._gain
        return self.scale * (self._low_adjoint(y[..., :self.q_p]) + back)

    def residual_and_adjoint(self, y, x):
        """(y - apply(x), adjoint(y - apply(x))) bit for bit, expanding each
        Rademacher chunk once for both products."""
        q = self.q_p
        resid = np.empty(y.shape)
        resid[..., :q] = y[..., :q] - self.scale * self._low(x)
        back = np.zeros(x.shape[:-1] + (self.n_p,))
        gain = self.scale * self._gain
        for lo, block in self._blocks(math.prod(x.shape[:-1])):
            hi = lo + len(block)
            np.subtract(y[..., lo:hi], gain * (x @ block.T),
                        out=resid[..., lo:hi])
            back += resid[..., lo:hi] @ block
        back *= self._gain
        return resid, self.scale * (self._low_adjoint(resid[..., :q]) + back)


class SpectralProjector:
    """Band-axis projector: one dense m_s x n_s matrix M, q_s leading
    sequency WHT rows over (m_s - q_s) Rademacher rows, multiplied by scale
    (by default the inverse of a power-iteration estimate of its norm),
    acting on (n_s, cols) matrices."""

    def __init__(self, n_s, m_s, q_s, seed, *, scale=None):
        check_pow2(n_s, "band count")
        _check_counts(n_s, m_s, q_s, scale, "spectral")
        self.n_s, self.m_s, self.q_s = n_s, m_s, q_s
        self.seed = rng.check_seed(seed)
        self._m = np.empty((m_s, n_s))
        self._m[:q_s] = walsh_rows(n_s, q_s)
        _draw_rademacher(self.seed, rng.SPECTRAL_RADEMACHER, self._m[q_s:],
                         n_s, 1.0 / np.sqrt(n_s))
        self.scale = 1.0 if scale is None else float(scale)
        if scale is None and q_s < m_s:
            gen = rng.stream(self.seed, rng.SPECTRAL_NORM)
            self.scale = 1.0 / _power_norm(
                lambda v: self._m.T @ (self._m @ v), n_s, gen)

    def apply(self, x):
        """x: (n_s, cols) -> (m_s, cols)."""
        return self.scale * (self._m @ x)

    def adjoint(self, y):
        """y: (m_s, cols) -> (n_s, cols)."""
        return self.scale * (self._m.T @ y)


@dataclass(frozen=True, eq=False)
class Measurements:
    """Acquired matrix plus everything needed to rebuild the operators."""

    y: np.ndarray
    spectral: SpectralProjector
    spatial: SpatialProjector
    sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        sp, pp = self.spectral, self.spatial
        y = _check_shape(self.y, (sp.m_s, pp.m_p), "measurement shape")
        check_noise_level(self.sigma)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "noise_seed", rng.check_seed(self.noise_seed))


def check_noise_level(sigma):
    """A ValueError unless sigma is a real number, finite in float64 and >= 0."""
    if not (rng.is_real(sigma) and 0.0 <= sigma <= sys.float_info.max):
        raise ValueError(f"noise level must be finite and >= 0, got {sigma!r}")


def _check_shape(a, shape, noun):
    """a as float64, refused unless its shape is the projectors' shape."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{noun} {a.shape} does not match projectors {shape}")
    return a


def project(x, sp, pp):
    """Phi_s X Phi_p^T via the fast operators."""
    x = _check_shape(x, (sp.n_s, pp.n_p), "band-by-pixel matrix shape")
    return pp.apply(sp.apply(x))


def adjoint(y, sp, pp):
    """Phi_s^T Y Phi_p via the fast operators."""
    y = _check_shape(y, (sp.m_s, pp.m_p), "measurement shape")
    return sp.adjoint(pp.adjoint(y))


def residual_and_adjoint(y, x, sp, pp):
    """(y - project(x), adjoint(y - project(x))) bit for bit, expanding each
    chunk of a chunked spatial Rademacher block once instead of twice."""
    x = _check_shape(x, (sp.n_s, pp.n_p), "band-by-pixel matrix shape")
    y = _check_shape(y, (sp.m_s, pp.m_p), "measurement shape")
    resid, z = pp.residual_and_adjoint(y, sp.apply(x))
    return resid, sp.adjoint(z)


def acquire(x, sp, pp, sigma, noise_seed=0):
    """Noisy acquisition: project(x) plus i.i.d. zero-mean Gaussian noise."""
    check_noise_level(sigma)
    y = project(x, sp, pp)
    if sigma > 0:
        y = y + rng.gaussian(rng.stream(noise_seed, rng.NOISE), y.shape, sigma)
    return Measurements(y=y, spectral=sp, spatial=pp, sigma=float(sigma),
                        noise_seed=noise_seed)
