"""Coincidence-counting kernel: the one hot inner loop of the HBT simulation.

``coincidence_histogram`` counts the ordered pairs of two sorted time-tag
streams by separation b - a, in 2*m_max + 1 bins of width w centred on m*w
for m = -m_max..m_max. The bin rule is a comparison in float64: the edge k of
a row is ``a + (k - 0.5)*w``, evaluated exactly as written, and pair (a, b)
is in bin m iff

    a + (m - 0.5)*w <= b < a + (m + 0.5)*w.

At time tags around 1e9 a separation within a few ulps of an edge can fall
on the other side of ``floor((b - a)/w + 0.5)``; the comparison rule is the
one that the per-edge count below can evaluate exactly, so both branches
use it.

Each row a_i owns the window [lo_i, hi_i) of b between its outer edges (the
sliding-window pair counter used for TCSPC time tags; Wahl et al., Opt.
Express 11, 3583 (2003)). Rows are taken a block at a time. Two scalar
searches find the block's partners bs = b[first:last], from the first row's
lower outer edge to the last row's upper one; they hold every window and
every interior edge of the block. Each block picks its branch from its own
input: its exact pair total against (2*m_max + 2) x its rows, the number of
edge searches the per-edge count would make.

* few pairs: expand the pairs in chunks of ``_CHUNK_PAIRS`` and bincount
  them, O(N log N + pairs);
* many pairs: count the b below every interior edge and take differences,
  O(N log N + M N) expected.

Where the partners average more than one per bin width (len(bs) * w >
bs[-1] - bs[0]), the block builds its cell table (below) and counts the b
below its two outer edges through it: their difference is the pair total,
and where that picks the per-edge count they are its outer counts. Any
other block, sparse or with few pairs, builds no table for its windows: one
``searchsorted`` over bs finds each row's lo, and its hi is lo plus the
partners from bs[lo] on that compare below its upper edge, found by
advancing a chunk of rows at a time (``_advance``; a sparse row has at most
a few). It then drops the rows with an empty window, which add the same
count to every edge, by index rather than by a boolean mask; where the
pair total of the rest picks the per-edge count, that counts through the
block's table, built now if the density rule built none.

The per-edge count searches only bs, through the block's cell table.
``_CELLS_PER_PARTNER`` x len(bs) equal cells span bs, cell(x) =
clip((x - bs_0) * inv, 0, ncell - 1) cast to int, and start[c] = the number
of bs in cells below c. cell is monotone non-decreasing (a rounded
difference, a product with a positive inv, a clip and a truncation of values
>= 0 each are), so every b in a lower cell than a key is below the key and
every b in a higher cell is not. A key's count is start[cell(key)] plus
a short advance over the b of its own cell that compare below it, the
comparison evaluated exactly as written. The
argument holds for any positive finite inv, so every block's table is
exact: inv = ncell / span only makes the advance short. Where the partners
span zero time, or so little that the quotient overflows, inv is the
largest float, and a span beyond the float range counts as the largest
float. Keys still advancing after ``_ADVANCE_PASSES`` passes (duplicate
time tags, crowded cells) finish with the table's one binary search.

A dense block of at least ``_THREAD_MIN_ROWS`` rows deals its interior
edges out to ``_WORKERS`` threads (2 where the process may run on two
cores): the calling thread counts edges 1, 3, 5, ... and one helper
thread edges 2, 4, 6, .... Both read the one table, read-only once
built; each counts through its own keys and work arrays (25 B per row),
which the calling thread allocates before the helper starts, and each
writes only its own edges' counts. Every count is an exact integer, so
the histogram is the same bytes for any number of threads and any order
they run in. Sparse blocks, small blocks and the pair branch (hbt_fine,
criterion 7) start no thread.

The counter is incremental (``_Counter``): streams that arrive in pieces,
such as the segments of ``simulate.simulate_hbt``, are counted as they
come. A row is counted once its upper outer edge is at or below the end
of what has arrived, in whole blocks of ``_BLOCK_ROWS`` rows, so the
blocks are those of one call on the whole streams and so are the counts.
``coincidence_histogram`` is one ``add`` of both streams to a new
counter. A counter's work arrays (keys, the cell table's start, bs_inf
and y/cell/less) live as long as it does and are reused by every block.
"""

from __future__ import annotations

import bisect
import math
import os
import sys
import threading

import numpy as np

__all__ = ["coincidence_histogram", "MAX_BINS"]

# Largest histogram (2*m_max + 1 bins) accepted; 8 MB of int64 counts.
MAX_BINS = 1_000_001

# Rows of times_a handled at once, and pairs expanded at once. Both keep the
# memory of a call small: with whole-stream window arrays the peak RSS of one
# hbt_wide benchmark op rose from 86 MB (earlier per-edge kernel) to 94 MB,
# where blocks leave it at 78 MB, the simulation's own peak; with 1M-pair
# chunks a stream of 8e6 pairs traced 87 MB instead of 7.5 MB.
_BLOCK_ROWS = 1 << 16
_CHUNK_PAIRS = 1 << 16

# Rows whose window ends advance at once, and photons split between the
# detectors at once: the per-row work arrays of a chunk (64 KB of float64)
# stay in cache, and cost the memory of a chunk rather than of a block.
_CHUNK = 1 << 13

# Cells of a block's bucket table per partner, and the comparison
# passes over all keys after which the keys still advancing finish by
# binary search. On an hbt_wide stream 21 % of the keys pass one partner of
# their own cell, 3 % two and 0.4 % three. 2 cells per partner and 3 passes
# ran within 3 % of the fastest choice there (4 cells, 2 passes) with half
# the table (16 B per partner).
_CELLS_PER_PARTNER = 2
_ADVANCE_PASSES = 3

# Threads counting a dense block's interior edges: at most 2, and no more
# than the cores this process may run on when it is imported (1 runs the
# serial loop). Most numpy calls of an edge release the interpreter lock
# over their arrays of keys, so two threads overlap. Blocks of fewer rows
# count serially: a thread's start and join take about 70 us on a 2-core
# Xeon VM, the edge count of about 6000 keys.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_THREAD_MIN_ROWS = 1 << 14

_FLOAT_MAX = sys.float_info.max


def _edge(a, k, w, out=None):
    """Edge k of the rows at times a: the lower edge of bin k."""
    return np.add(a, (k - 0.5) * w, out=out)


def coincidence_histogram(times_a, times_b, bin_width: float,
                          m_max: int) -> np.ndarray:
    """Histogram of pair separations t_b - t_a within +-(m_max+0.5)*bin_width.

    Both time arrays must be sorted ascending. Counts every ordered pair
    (full correlation, not start-stop). Pass ``times_a is times_b`` data for
    an autocorrelation and subtract the self-pairs from the center bin at
    the call site.
    """
    w = float(bin_width)
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    m_max = int(m_max)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if 2 * m_max + 1 > MAX_BINS:
        raise ValueError(f"2*m_max + 1 = {2 * m_max + 1} bins exceeds the "
                         f"limit of {MAX_BINS}")
    a = np.ascontiguousarray(times_a, dtype=np.float64)
    b = np.ascontiguousarray(times_b, dtype=np.float64)
    return _Counter(w, m_max).add(a, b)


class _Counter:
    """``coincidence_histogram`` of two sorted streams that arrive in pieces.

    ``hist`` holds the pairs of the rows counted so far. ``rows`` are the
    tags of a not yet counted, from the first row of a block on;
    ``partners`` the tags of b from the lower outer edge of the first of
    them (of the end of what has arrived, once every row is counted) on.
    Later rows lie at or above both, so no later row pairs with a b below
    them. Both lie at the front of the counter's work arrays of those
    names, so a piece written there (``space``) is appended without a copy.
    """

    def __init__(self, w, m_max):
        self.w, self.m_max = w, m_max
        self.hist = np.zeros(2 * m_max + 1, dtype=np.int64)
        self.rows = self.partners = np.empty(0)
        self._buffers = _Buffers()

    def space(self, n_a, n_b):
        """Arrays for the next n_a tags of a and n_b of b, which ``add``
        takes without a copy."""
        return self._tail("rows", self.rows, n_a), \
            self._tail("partners", self.partners, n_b)

    def _tail(self, name, head, n):
        """n elements that follow head in the work array name."""
        return self._buffers.get(name, head.size + n, keep=head.size,
                                 spare=_BLOCK_ROWS)[head.size:]

    def _append(self, name, head, tail):
        """head followed by tail: tail itself where head is empty, else in
        the work array name, at whose front head lies."""
        if not head.size:
            return tail
        joined = self._buffers.get(name, head.size + tail.size,
                                   keep=head.size, spare=_BLOCK_ROWS)
        joined[head.size:] = tail  # in place where space() gave tail
        return joined

    def _keep(self, name, tags):
        """tags, at the front of the work array name: the caller may reuse
        the arrays it added, and tags may lie anywhere in name (a forward
        copy within one array is safe)."""
        kept = self._buffers.get(name, tags.size)
        kept[:] = tags
        return kept

    def add(self, a, b, end=math.inf):
        """Append the next tags of both streams and count every row whose
        upper outer edge is at or below end, in whole blocks; with no end,
        every row. Returns the histogram so far.

        a and b are sorted, and every tag that arrives later is at or above
        end and at or above every tag that has arrived.
        """
        rows = self._append("rows", self.rows, a)
        partners = self._append("partners", self.partners, b)
        n_rows = rows.size
        if end < math.inf:
            reach = (self.m_max + 1 - 0.5) * self.w  # as _edge adds it
            n_rows = bisect.bisect_right(rows, end, key=lambda t: float(t) + reach)
            n_rows -= n_rows % _BLOCK_ROWS
        ready = rows[:n_rows]
        for r in range(0, n_rows, _BLOCK_ROWS):
            _add_block(self.hist, ready[r:r + _BLOCK_ROWS], partners, self.w,
                       self.m_max, self._buffers)
        if end == math.inf:
            self.rows = self.partners = np.empty(0)
        else:
            lowest = rows[n_rows] if n_rows < rows.size else end
            first = np.searchsorted(
                partners, _edge(lowest, -self.m_max, self.w), side="left")
            self.rows = self._keep("rows", rows[n_rows:])
            self.partners = self._keep("partners", partners[first:])
        return self.hist


class _Buffers:
    """Named work arrays of one call, reused by every block and segment.

    ``get(name, n)`` hands out the first n elements of the array of that
    name, made anew (rounded up by ``_capacity``) only when more is asked
    for. Where each block or segment made its own arrays, the largest
    arrays of a call on a segmented stream were about 1 MB, and glibc
    returned their memory to the system as they were freed and took it
    back for the next: the minor page faults of an hbt_wide op rose about
    7-fold, and its time by 10-14 %.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name, n, dtype=np.float64, keep=0, spare=0):
        """The first n elements of the array name, with room for spare more
        when it is made. Where it is too small, it is made anew with room
        for an eighth more, so that it grows seldom, and its first keep
        elements are copied; where it keeps none, it is dropped first.

        The counter's carried rows and partners ask for a block's spare
        room: without it they are made anew as the next segment is appended,
        and hbt_wide's peak RSS read 2.2-2.5 MB higher (50.3-50.6 MB)."""
        array = self._arrays.get(name)
        if array is None:
            array = self._arrays[name] = np.empty(_capacity(n + spare), dtype)
        elif array.size < n:
            if not keep:
                array = self._arrays[name] = None  # freed unless a view lives
            grown = np.empty(_capacity(n + max(spare, n // 8)), dtype)
            if keep:
                grown[:keep] = array[:keep]
            array = self._arrays[name] = grown
        return array[:n]


def _add_block(hist, a, b, w, m_max, buffers):
    """Add the pairs of the rows a to hist, with the work arrays of buffers."""
    first = np.searchsorted(b, _edge(a[0], -m_max, w), side="left")
    last = np.searchsorted(b, _edge(a[-1], m_max + 1, w), side="left")
    bs = b[first:last]  # the partners of every row of the block
    if bs.size == 0:
        return
    dense = bs.size * w > float(bs[-1]) - float(bs[0])  # > 1 per bin width
    table = None
    if dense:
        table = _CellTable(bs, a.size, buffers)
        keys, work = buffers.get("keys0", a.size), _work(buffers, 0, a.size)
        below_lo = table.below(_edge(a, -m_max, w, out=keys), work)
        below_hi = table.below(_edge(a, m_max + 1, w, out=keys), work)
    if not dense or below_hi - below_lo <= (2 * m_max + 2) * a.size:
        # arrays of their own, not buffers: they die as rows drop out
        edge = _edge(a, -m_max, w)
        lo = np.searchsorted(bs, edge, side="left")
        hi = _advance(bs, lo, _edge(a, m_max + 1, w, out=edge))
        del edge  # hi holds the keys' memory, freed below if rows drop out
        rows = np.flatnonzero(lo < hi)
        if rows.size < a.size:
            a, lo, hi = a.take(rows), lo.take(rows), hi.take(rows)
        del rows
        n_pairs = int((hi - lo).sum())
        if n_pairs == 0:
            return
        if n_pairs <= (2 * m_max + 2) * a.size:
            _add_pairs(hist, a, bs, lo, hi, w, m_max)
            return
        # the edge count needs only the sums of the window ends: drop the
        # per-row arrays before it takes its workers' buffers
        below_lo, below_hi = int(lo.sum()), int(hi.sum())
        del lo, hi
        if table is None:
            table = _CellTable(bs, a.size, buffers)
    threaded = dense and a.size >= _THREAD_MIN_ROWS
    workers = max(1, min(_WORKERS, 2 * m_max)) if threaded else 1
    _add_edges(hist, a, below_lo, below_hi, w, m_max, table, workers, buffers)


def _advance(bs, lo, keys):
    """``np.searchsorted(bs, keys, side="left")``, given lo at or below it,
    written over keys (as intp) and returned.

    bs is sorted, so a key's position is lo plus the partners from bs[lo]
    on that compare below it. A chunk of ``_CHUNK`` rows at a time, one
    pass compares every row's bs[min(lo, last)] with its key and the next
    passes only the rows still advancing; rows left after
    ``_ADVANCE_PASSES`` passes finish by binary search. A row that reaches
    bs.size has passed bs[-1], and its later passes compare with bs[-1]
    again, so it too finishes by binary search, at bs.size.
    """
    hi = keys.view(np.intp)
    y = np.empty(min(keys.size, _CHUNK))  # one chunk's partners bs[lo]
    less = np.empty(y.size, dtype=bool)
    for s in range(0, keys.size, _CHUNK):
        pos, key = lo[s:s + _CHUNK], keys[s:s + _CHUNK]
        np.take(bs, pos, out=y[:key.size], mode="clip")
        rows = np.flatnonzero(np.less(y[:key.size], key, out=less[:key.size]))
        key, pos = key.take(rows), pos.take(rows) + 1
        hi[s:s + _CHUNK] = lo[s:s + _CHUNK]  # the chunk's keys are read
        rows += s
        for _ in range(1, _ADVANCE_PASSES):
            hi[rows] = pos
            step = np.flatnonzero(bs.take(pos, mode="clip") < key)
            rows, key, pos = rows.take(step), key.take(step), pos.take(step) + 1
        hi[rows] = np.searchsorted(bs, key, side="left")
    return hi


def _add_pairs(hist, a, b, lo, hi, w, m_max):
    """Bin the pairs of rows a, expanded _CHUNK_PAIRS at a time."""
    ends = np.cumsum(hi - lo)  # pairs in rows 0..i
    shift = ends - hi          # pair p of row i pairs with b[p - shift[i]]
    n_pairs = int(ends[-1])
    for s in range(0, n_pairs, _CHUNK_PAIRS):
        e = min(s + _CHUNK_PAIRS, n_pairs)
        r0, r1 = np.searchsorted(ends, [s, e - 1], side="right")
        rows = slice(r0, r1 + 1)  # a chunk may split a row
        counts = np.minimum(ends[rows], e) - np.maximum(shift[rows] + lo[rows], s)
        ta = np.repeat(a[rows], counts)
        tb = b[np.arange(s, e) - np.repeat(shift[rows], counts)]
        m = np.floor((tb - ta) / w + 0.5)
        np.clip(m, -m_max, m_max, out=m)
        m = _settle(ta, tb, m.astype(np.int64), w)
        hist += np.bincount(m + m_max, minlength=hist.size)


def _settle(ta, tb, m, w):
    """Move each first-guess bin m until _edge(ta, m) <= tb < _edge(ta, m + 1).

    The window guarantees such an m within -m_max..m_max, and the edges grow
    with m, so every step heads towards it. Only mismatching pairs are
    revisited.
    """
    idx = np.arange(m.size)
    while idx.size:
        t_a, t_b, k = ta[idx], tb[idx], m[idx]
        step = (t_b >= _edge(t_a, k + 1, w)).astype(np.int64) \
            - (t_b < _edge(t_a, k, w))
        m[idx] = k + step
        idx = idx[step != 0]
    return m


def _add_edges(hist, a, below_lo, below_hi, w, m_max, table, workers,
               buffers):
    """Count the partners below every interior edge through the block's
    cell table, summed over the rows a, and difference.

    below_lo and below_hi are the sums of the rows' window ends, the counts
    below the outer edges. The interior edges are dealt out to ``workers``
    threads, the calling one included: each has its own keys and work
    arrays, taken from buffers here before any helper starts, and writes
    its own entries of ``below``; the table is read-only. The counts are
    exact integers, so the histogram does not depend on the threads' order.
    """
    below = np.empty(2 * m_max + 2, dtype=np.int64)
    below[0] = below_lo
    below[-1] = below_hi
    work = [_work(buffers, i, a.size) for i in range(workers)]
    keys = [buffers.get(f"keys{i}", a.size) for i in range(workers)]

    def count(i):
        for k in range(1 + i, 2 * m_max + 1, workers):
            below[k] = table.below(_edge(a, k - m_max, w, out=keys[i]), work[i])

    _run(count, workers)
    hist += np.diff(below)


def _run(job, workers):
    """job(0) on the calling thread and job(1), ... on helper threads.

    Every helper is joined before this returns, also when job(0) raises;
    then the first exception a helper raised is raised here.
    """
    errors = []

    def helper(i):
        try:
            job(i)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    started = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=helper, args=(i,))
            thread.start()
            started.append(thread)
        job(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _capacity(n):
    """n rounded up to a multiple of 4096, the size of a work array."""
    return -(-n // 4096) * 4096


class _CellTable:
    """Cell table of a block's sorted partners bs: bs, its scale, start and
    bs_inf, read-only once built.

    Counting allocates no array per edge beyond those of the few keys left
    for binary search: start, bs_inf and every per-key array are the
    counter's work arrays (``_Buffers``), whose sizes are rounded by
    ``_capacity`` so that blocks of about the same size share them. With
    fresh arrays per edge and pass, or buffers of exact size, glibc's heap
    fragmented over a run of hbt_wide benchmark ops, and the peak RSS rose
    by up to 7 MB above the earlier kernel's instead of 1 MB.

    The per-key arrays are not the table's: each thread that counts through
    it passes its own (``_work``) to ``cells`` and ``below``. A thread that
    wrote into the table would raise instead of racing with the others.
    """

    def __init__(self, bs, n_keys, buffers):
        n_cells = _CELLS_PER_PARTNER * bs.size
        self.bs = bs.view()
        self.base = float(bs[0])
        # any positive finite inv keeps the count exact (module docstring)
        span = min(float(bs[-1]) - self.base, _FLOAT_MAX)
        self.inv = min(n_cells / span, _FLOAT_MAX) if span > 0 else _FLOAT_MAX
        self.top = float(n_cells - 1)
        cell = self.cells(bs, _work(buffers, 0, max(n_keys, bs.size)))
        self.start = buffers.get("start", n_cells + 1, np.intp)
        self.start.fill(0)
        np.add.at(self.start[1:], cell, 1)  # in place, unlike bincount
        np.cumsum(self.start, out=self.start)  # bs in the cells below c
        self.bs_inf = buffers.get("bs_inf", bs.size + _ADVANCE_PASSES)
        self.bs_inf[:bs.size] = bs
        self.bs_inf[bs.size:] = np.inf
        for array in (self.bs, self.start, self.bs_inf):
            array.flags.writeable = False

    def cells(self, x, work):
        """clip((x - base) * inv, 0, top) truncated to int: monotone in x."""
        y, cell = work[0][:x.size], work[1][:x.size]
        with np.errstate(over="ignore"):  # +-inf is clipped like any x
            np.subtract(x, self.base, out=y)
            np.multiply(y, self.inv, out=y)
        np.clip(y, 0.0, self.top, out=y)
        np.copyto(cell, y, casting="unsafe")
        return cell

    def below(self, keys, work):
        """``np.searchsorted(bs, keys, side="left").sum()``, with the work
        arrays of the calling thread.

        Every b in a lower cell than a key is below it, so a key's count is
        pos = start[cell(key)] plus the number of b from bs[pos] on that
        compare below the key. bs is sorted, so the comparisons with
        bs[pos + j] for j < _ADVANCE_PASSES add up that number; the keys for
        which all of them hold finish by binary search. Indices stay inside
        bs_inf, so mode "clip" never moves one: it only skips the buffered
        bounds check of ``np.take``.
        """
        cell = self.cells(keys, work)
        pos = work[0].view(np.intp)[:keys.size]
        np.take(self.start, cell, out=pos, mode="clip")
        y, less = work[1].view(np.float64)[:keys.size], work[2][:keys.size]
        total = int(pos.sum())
        for j in range(_ADVANCE_PASSES):
            np.take(self.bs_inf[j:], pos, out=y, mode="clip")
            np.less(y, keys, out=less)
            n_less = int(np.count_nonzero(less))
            if not n_less:
                return total
            total += n_less
        left = np.flatnonzero(less)
        return (total + int(self._search(keys[left]).sum())
                - int(pos[left].sum()) - _ADVANCE_PASSES * left.size)

    def _search(self, keys):
        """``np.searchsorted(bs, keys, side="left")``: the table's one binary
        search, for the keys still advancing after the last pass."""
        return np.searchsorted(self.bs, keys, side="left")


def _work(buffers, i, n):
    """Work arrays (y, cell, less) of worker i for n keys: 17 B per key.

    ``cells`` fills y and then cell; ``below`` takes the keys' positions
    into y's memory, dead once the cells are cast, and the partners it
    compares into cell's, dead once the positions are taken.
    """
    return (buffers.get(f"y{i}", n), buffers.get(f"cell{i}", n, np.intp),
            buffers.get(f"less{i}", n, bool))
