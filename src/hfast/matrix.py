"""Communication-link reduction.

Reduces a trace's point-to-point records into one sparse link table: a
row per ``(src, dst)`` pair that carries traffic, with its payload
bytes, message count and transfer seconds. Traffic is attributed
send-side; when a trace only records one side of an exchange (as IPM
sometimes does), the recv-derived link fills the gap via a per-pair
max, so volume is never double-counted.

Ultra-scale applications talk to a few partners per rank, so the table
holds O(links) rows where a dense matrix would hold nranks**2 cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfast.obs.profile import profiled
from hfast.records import RECV_CALLS, SEND_CALLS, RecordBatch


def pair_key(src: np.ndarray, dst: np.ndarray, nranks: int) -> np.ndarray:
    """Row-major pair key ``src * n + dst`` (the table's sort order)."""
    return np.asarray(src, dtype=np.int64) * np.int64(max(1, nranks)) + dst


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique keys, group index of every input key).

    A stable sort plus a run-boundary mask: elements of one group keep
    their input order, so a ``bincount`` over the group index adds them
    in the same sequence as a dense scatter would.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    start = np.empty(len(ordered), dtype=bool)
    start[:1] = True
    start[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    return ordered[start], inverse


@dataclass
class LinkTable:
    """Columnar link table, one row per pair carrying bytes or messages.

    Rows are sorted by :func:`pair_key` with no duplicate pair — the
    row-major order ``np.nonzero`` would give over a dense matrix.
    """

    nranks: int
    src: np.ndarray  # int64
    dst: np.ndarray  # int64
    bytes: np.ndarray  # int64 payload bytes
    msgs: np.ndarray  # int64 message count
    time: np.ndarray  # float64 transfer seconds (zeros when untimed)

    @property
    def key(self) -> np.ndarray:
        return pair_key(self.src, self.dst, self.nranks)

    @property
    def total_bytes(self) -> int:
        return int(self.bytes.sum())

    @property
    def total_messages(self) -> int:
        return int(self.msgs.sum())

    def nonzero_links(self) -> int:
        return int(np.count_nonzero(self.bytes))

    def top_peers(self, rank: int, k: int = 5) -> list[tuple[int, int]]:
        """Heaviest (peer, bytes) partners of one rank (send + recv volume).

        Builds the rank's length-nranks volume row and ranks it with
        numpy's default argsort, whose tie order decides which of several
        equally heavy peers is reported.
        """
        volume = np.zeros(self.nranks, dtype=np.int64)
        out = self.src == rank
        volume[self.dst[out]] = self.bytes[out]
        inc = self.dst == rank
        volume[self.src[inc]] += self.bytes[inc]
        order = np.argsort(volume)[::-1]
        return [(int(p), int(volume[p])) for p in order[:k] if volume[p] > 0]


@profiled("matrix_reduce")
def reduce_matrix(batch: RecordBatch, nranks: int) -> LinkTable:
    """Build the link table from a batch's point-to-point records.

    Send records land at ``(rank, peer)``, receive records at
    ``(peer, rank)``; the two sides combine by a per-pair max over the
    union of their pairs. Records with zero size or a self peer move
    nothing and are skipped, and a pair left with neither bytes nor
    messages gets no row.
    """
    b = batch
    active = (b.size > 0) & (b.rank != b.peer)
    moved = (b.size.astype(np.int64) * b.count).astype(np.float64)
    count = b.count.astype(np.float64)
    sides = []
    for mask, flip in (
        (b.call_mask(SEND_CALLS) & active, False),
        (b.call_mask(RECV_CALLS) & active, True),
    ):
        src = b.peer[mask] if flip else b.rank[mask]
        dst = b.rank[mask] if flip else b.peer[mask]
        weights = (moved[mask], count[mask])
        if b.has_times:
            weights += (b.total_time[mask],)
        # Per-pair sums; float64 accumulation is exact for the < 2^53
        # sums seen here.
        keys, inverse = group_keys(pair_key(src, dst, nranks))
        sides.append(
            (keys, [np.bincount(inverse, weights=w, minlength=len(keys)) for w in weights])
        )

    (send_keys, send), (recv_keys, recv) = sides
    keys, inverse = group_keys(np.concatenate((send_keys, recv_keys)))
    at_send, at_recv = inverse[: len(send_keys)], inverse[len(send_keys):]
    by, ms = np.zeros((2, len(keys)), dtype=np.int64)
    tm = np.zeros(len(keys), dtype=np.float64)
    for col, s, r in zip((by, ms, tm), send, recv):  # time only when timed
        col[at_send] = s.astype(col.dtype)
        col[at_recv] = np.maximum(col[at_recv], r.astype(col.dtype))
    n = np.int64(max(1, nranks))
    keep = (by > 0) | (ms > 0)
    keys = keys[keep]
    return LinkTable(
        nranks=nranks, src=keys // n, dst=keys % n,
        bytes=by[keep], msgs=ms[keep], time=tm[keep],
    )
