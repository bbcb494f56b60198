"""Communication-matrix reduction.

Reduces a trace's point-to-point records into dense nranks x nranks
byte- and message-count matrices. Traffic is attributed send-side; when a
trace only records one side of an exchange (as IPM sometimes does), the
recv-derived matrix fills the gap via an elementwise max, so volume is
never double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfast.obs.profile import profiled
from hfast.records import RECV_CALLS, SEND_CALLS, RecordBatch


@dataclass
class CommMatrix:
    nranks: int
    bytes_matrix: np.ndarray  # [src, dst] payload bytes
    msg_matrix: np.ndarray  # [src, dst] message count
    time_matrix: np.ndarray | None = None  # [src, dst] transfer seconds (zeros when untimed)

    def __post_init__(self) -> None:
        if self.time_matrix is None:
            self.time_matrix = np.zeros_like(self.bytes_matrix, dtype=np.float64)

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_matrix.sum())

    @property
    def total_messages(self) -> int:
        return int(self.msg_matrix.sum())

    @property
    def total_comm_time(self) -> float:
        """Sum of per-link point-to-point transfer seconds."""
        return float(self.time_matrix.sum())

    def nonzero_links(self) -> int:
        return int(np.count_nonzero(self.bytes_matrix))

    def top_links(self, k: int = 10) -> list[tuple[int, int, int]]:
        """Heaviest (src, dst, bytes) links, descending."""
        flat = self.bytes_matrix.ravel()
        if not flat.any():
            return []
        k = min(k, int(np.count_nonzero(flat)))
        idx = np.argpartition(flat, -k)[-k:]
        idx = idx[np.argsort(flat[idx])[::-1]]
        n = self.nranks
        return [(int(i // n), int(i % n), int(flat[i])) for i in idx]

    def top_peers(self, rank: int, k: int = 5) -> list[tuple[int, int]]:
        """Heaviest (peer, bytes) partners of one rank (send + recv volume)."""
        volume = self.bytes_matrix[rank, :] + self.bytes_matrix[:, rank]
        order = np.argsort(volume)[::-1]
        return [(int(p), int(volume[p])) for p in order[:k] if volume[p] > 0]


@profiled("matrix_reduce")
def reduce_matrix(batch: RecordBatch, nranks: int) -> CommMatrix:
    """Build the communication matrix from a batch's point-to-point records.

    Send records land at ``[rank, peer]``, receive records at
    ``[peer, rank]``; the two planes combine by elementwise max. Records
    with zero size or a self peer move nothing and are skipped.
    """
    send_bytes = np.zeros((nranks, nranks), dtype=np.int64)
    send_msgs = np.zeros((nranks, nranks), dtype=np.int64)
    send_time = np.zeros((nranks, nranks), dtype=np.float64)
    recv_bytes = np.zeros((nranks, nranks), dtype=np.int64)
    recv_msgs = np.zeros((nranks, nranks), dtype=np.int64)
    recv_time = np.zeros((nranks, nranks), dtype=np.float64)
    b = batch
    active = (b.size > 0) & (b.rank != b.peer)
    moved = b.size.astype(np.int64) * b.count
    for mask, by, ms, tm, flip in (
        (b.call_mask(SEND_CALLS) & active, send_bytes, send_msgs, send_time, False),
        (b.call_mask(RECV_CALLS) & active, recv_bytes, recv_msgs, recv_time, True),
    ):
        src = b.peer[mask] if flip else b.rank[mask]
        dst = b.rank[mask] if flip else b.peer[mask]
        # bincount over flattened (src, dst) is far faster than
        # np.add.at's scattered adds on multi-million-record batches;
        # float64 accumulation is exact for the < 2^53 sums seen here.
        flat = src.astype(np.int64) * nranks + dst
        by += np.bincount(
            flat, weights=moved[mask].astype(np.float64), minlength=nranks * nranks
        ).reshape(nranks, nranks).astype(np.int64)
        ms += np.bincount(
            flat, weights=b.count[mask].astype(np.float64), minlength=nranks * nranks
        ).reshape(nranks, nranks).astype(np.int64)
        if b.has_times:
            tm += np.bincount(
                flat, weights=b.total_time[mask], minlength=nranks * nranks
            ).reshape(nranks, nranks)
    return CommMatrix(
        nranks=nranks,
        bytes_matrix=np.maximum(send_bytes, recv_bytes),
        msg_matrix=np.maximum(send_msgs, recv_msgs),
        time_matrix=np.maximum(send_time, recv_time),
    )
