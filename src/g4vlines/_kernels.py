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
every interior edge of the block. Where the partners average more than one
per bin width (len(bs) * w > bs[-1] - bs[0]), the block builds its cell
table (below) first and finds every window through it; otherwise two
``searchsorted`` calls over bs find them. Rows with an empty window add the
same count to every edge, so they are dropped. Each block then picks its
branch from its own input: its exact pair total against (2*m_max + 2) x
its rows, the number of edge searches the per-edge count would make.

* few pairs: expand the pairs in chunks of ``_CHUNK_PAIRS`` and bincount
  them, O(N log N + pairs);
* many pairs: count the b below every interior edge and take differences,
  O(N log N + M N) expected.

The per-edge count searches only bs, through the block's bucket table: the
one that found the windows, or, where the density rule took none but the
pair total picks this branch, one built for the edges.
``_CELLS_PER_PARTNER`` x len(bs) equal cells span bs, cell(x) =
clip((x - bs_0) * inv, 0, ncell - 1) cast to int, and start[c] = the number
of bs in cells below c. cell is monotone non-decreasing (a rounded
difference, a product with a positive inv, a clip and a truncation of values
>= 0 each are), so every b in a lower cell than a key is below the key and
every b in a higher cell is not. A key's count, a window end or an edge's,
is start[cell(key)] plus a short advance over the b of its own cell that
compare below it, the comparison evaluated exactly as written.
Two fallbacks keep it exact and bounded: a block whose partners span zero
time, or so little that inv is not finite, finds its windows and counts
every edge with ``searchsorted``; keys still advancing after
``_ADVANCE_PASSES`` passes (duplicate time tags, crowded cells) finish with
``searchsorted``.
"""

from __future__ import annotations

import math

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

# Cells of a block's bucket table per partner, and the comparison
# passes over all keys after which the keys still advancing fall back to
# searchsorted. On an hbt_wide stream 21 % of the keys pass one partner of
# their own cell, 3 % two and 0.4 % three. 2 cells per partner and 3 passes
# ran within 3 % of the fastest choice there (4 cells, 2 passes) with half
# the table (16 B per partner).
_CELLS_PER_PARTNER = 2
_ADVANCE_PASSES = 3


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

    hist = np.zeros(2 * m_max + 1, dtype=np.int64)
    for r in range(0, a.size, _BLOCK_ROWS):
        _add_block(hist, a[r:r + _BLOCK_ROWS], b, w, m_max)
    return hist


def _add_block(hist, a, b, w, m_max):
    """Add the pairs of the rows a to hist.

    Every local dies on return, so no block's cell table or edge array is
    still alive while the next block builds its own.
    """
    first = np.searchsorted(b, _edge(a[0], -m_max, w), side="left")
    last = np.searchsorted(b, _edge(a[-1], m_max + 1, w), side="left")
    bs = b[first:last]  # the partners of every row of the block
    if bs.size == 0:
        return
    dense = bs.size * w > float(bs[-1]) - float(bs[0])  # > 1 per bin width
    table = _CellTable.build(bs, a.size) if dense else None
    lo, hi = _windows(a, bs, w, m_max, table)
    active = lo < hi
    if not active.all():
        a, lo, hi = a[active], lo[active], hi[active]
    n_pairs = int((hi - lo).sum())
    if n_pairs == 0:
        return
    if n_pairs <= (2 * m_max + 2) * a.size:
        _add_pairs(hist, a, bs, lo, hi, w, m_max)
    else:
        if not dense:
            table = _CellTable.build(bs, a.size)
        _add_edges(hist, a, bs, lo, hi, w, m_max, table)


def _windows(a, bs, w, m_max, table):
    """Each row's window [lo, hi) in bs, between its outer edges.

    One edge array serves both ends and dies on return, before the block's
    edges are counted.
    """
    edge = _edge(a, -m_max, w)
    if table is None:
        lo = np.searchsorted(bs, edge, side="left")
        hi = np.searchsorted(bs, _edge(a, m_max + 1, w, out=edge), side="left")
    else:
        lo = table.positions(edge)
        hi = table.positions(_edge(a, m_max + 1, w, out=edge))
    return lo, hi


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


def _add_edges(hist, a, bs, lo, hi, w, m_max, table):
    """Count the bs below every edge, summed over the rows a, and difference.

    ``table`` is the block's cell table, or None where ``build`` refused
    one; then every edge is counted by binary search.
    """
    below = np.empty(2 * m_max + 2, dtype=np.int64)
    below[0] = lo.sum()
    below[-1] = hi.sum()
    keys = np.empty(_capacity(a.size))[:a.size]
    for k in range(1, 2 * m_max + 1):
        _edge(a, k - m_max, w, out=keys)
        if table is None:
            below[k] = _search_below(bs, keys)
        else:
            below[k] = table.below(keys)
    hist += np.diff(below)


def _search_below(bs, keys):
    """Sum over the keys of the number of bs below each key, by binary search."""
    return int(np.searchsorted(bs, keys, side="left").sum())


def _capacity(n):
    """n rounded up to a multiple of 4096, the size of a per-block array."""
    return -(-n // 4096) * 4096


class _CellTable:
    """Cell table of a block's sorted partners bs, and its work buffers.

    Counting allocates no array per edge beyond those of the few keys left
    for binary search: every per-key array lives in a buffer made once per
    block, and the buffers' sizes are rounded by ``_capacity`` so that the
    next block of about the same size reuses their memory. With fresh arrays
    per edge and pass, or buffers of exact size, glibc's heap fragmented
    over a run of hbt_wide benchmark ops, and the peak RSS rose by up to
    7 MB above the earlier kernel's instead of 1 MB.
    """

    @classmethod
    def build(cls, bs, n_keys):
        """The table of bs for up to n_keys keys at a time, or None.

        None when bs spans zero time, or so little that the cell scale
        overflows.
        """
        n_cells = _CELLS_PER_PARTNER * bs.size
        base = float(bs[0])
        span = float(bs[-1]) - base
        inv = n_cells / span if span > 0 else math.inf
        if not 0.0 < inv < math.inf:
            return None
        return cls(bs, n_keys, n_cells, base, inv)

    def __init__(self, bs, n_keys, n_cells, base, inv):
        self.bs = bs
        self.base = base
        self.inv = inv
        self.top = float(n_cells - 1)
        self.y = np.empty(_capacity(max(n_keys, bs.size)))
        self.cell = np.empty(_capacity(max(n_keys, bs.size)), dtype=np.intp)
        self.pos = np.empty(_capacity(n_keys), dtype=np.intp)
        self.less = np.empty(_capacity(n_keys), dtype=bool)
        cell = self.cells(bs)
        cell += 1
        self.start = np.bincount(cell, minlength=_capacity(n_cells) + 1)
        np.cumsum(self.start, out=self.start)  # bs in the cells below c
        self.bs_inf = np.full(_capacity(bs.size + _ADVANCE_PASSES), np.inf)
        self.bs_inf[:bs.size] = bs

    def cells(self, x):
        """clip((x - base) * inv, 0, top) truncated to int: monotone in x."""
        y, cell = self.y[:x.size], self.cell[:x.size]
        np.subtract(x, self.base, out=y)
        with np.errstate(over="ignore"):  # +-inf is clipped like any x
            np.multiply(y, self.inv, out=y)
        np.clip(y, 0.0, self.top, out=y)
        np.copyto(cell, y, casting="unsafe")
        return cell

    def positions(self, keys):
        """``np.searchsorted(bs, keys, side="left")`` through the table.

        The lookup and comparison passes of ``below``, kept per key: each
        pass moves the keys whose next b compares below them one b on, and
        the keys still moving after the last pass finish by binary search.
        Returns a new array.
        """
        y, less = self.y[:keys.size], self.less[:keys.size]
        pos = np.take(self.start, self.cells(keys), mode="clip")
        for _ in range(_ADVANCE_PASSES):
            np.take(self.bs_inf, pos, out=y, mode="clip")
            np.less(y, keys, out=less)
            if not less.any():
                return pos
            pos += less
        left = np.flatnonzero(less)
        pos[left] = np.searchsorted(self.bs, keys[left], side="left")
        return pos

    def below(self, keys):
        """``_search_below(bs, keys)`` through the table.

        Every b in a lower cell than a key is below it, so a key's count is
        pos = start[cell(key)] plus the number of b from bs[pos] on that
        compare below the key. bs is sorted, so the comparisons with
        bs[pos + j] for j < _ADVANCE_PASSES add up that number; the keys for
        which all of them hold finish by binary search. Indices stay inside
        bs_inf, so mode "clip" never moves one: it only skips the buffered
        bounds check of ``np.take``.
        """
        y, pos, less = self.y[:keys.size], self.pos[:keys.size], self.less[:keys.size]
        np.take(self.start, self.cells(keys), out=pos, mode="clip")
        total = int(pos.sum())
        for j in range(_ADVANCE_PASSES):
            np.take(self.bs_inf[j:], pos, out=y, mode="clip")
            np.less(y, keys, out=less)
            n_less = int(np.count_nonzero(less))
            if not n_less:
                return total
            total += n_less
        left = np.flatnonzero(less)
        return (total + _search_below(self.bs, keys[left])
                - int(pos[left].sum()) - _ADVANCE_PASSES * left.size)
