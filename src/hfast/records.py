"""Trace record model.

A trace holds aggregated per-rank MPI call records, the same shape
IPM emits after reduction: one record per distinct
(rank, call, message size, peer, region) tuple with a repeat count and
timing aggregates.

Records are held columnar, as a :class:`RecordBatch` (struct of arrays):
a 1K–4K-rank all-to-all would otherwise mean tens of millions of Python
objects. The synthesizers build batches directly; a cached document
loads straight into one (:meth:`RecordBatch.from_rows`), so cold and
warm cells run the same vectorized analysis. A batch carries a single
region, and the cache validator rejects documents that mix regions.

Aggregation sorts records into canonical (rank, call, size, peer) order,
so a trace serializes to the same cache document however it was built.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable

import numpy as np

# Point-to-point calls move payload between two distinct ranks and are the
# ones that land in the communication matrix.
PTP_CALLS = frozenset(
    {
        "MPI_Send",
        "MPI_Isend",
        "MPI_Ssend",
        "MPI_Recv",
        "MPI_Irecv",
        "MPI_Sendrecv",
    }
)

SEND_CALLS = frozenset({"MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Sendrecv"})
RECV_CALLS = frozenset({"MPI_Recv", "MPI_Irecv"})

COLLECTIVE_CALLS = frozenset(
    {
        "MPI_Allreduce",
        "MPI_Reduce",
        "MPI_Bcast",
        "MPI_Alltoall",
        "MPI_Alltoallv",
        "MPI_Allgather",
        "MPI_Gather",
        "MPI_Scatter",
        "MPI_Barrier",
    }
)

COMPLETION_CALLS = frozenset({"MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Test"})


class RecordBatch:
    """Columnar (struct-of-arrays) view of aggregated call records.

    ``calls`` is a lexicographically sorted tuple of call names and
    ``call_code`` indexes into it, so sorting by code is sorting by call
    name — the property canonical aggregation relies on. Timing columns
    (``total_time``/``min_time``/``max_time``, float64) are optional:
    batches come out of the synthesizers untimed and gain them when a
    :mod:`hfast.timing` model is applied.
    """

    __slots__ = (
        "rank",
        "call_code",
        "size",
        "peer",
        "count",
        "calls",
        "region",
        "total_time",
        "min_time",
        "max_time",
    )

    def __init__(
        self,
        rank: np.ndarray,
        call_code: np.ndarray,
        size: np.ndarray,
        peer: np.ndarray,
        count: np.ndarray,
        calls: tuple[str, ...],
        region: str = "steady",
    ):
        if tuple(sorted(calls)) != tuple(calls):
            raise ValueError(f"calls table must be sorted, got {calls!r}")
        self.rank = rank
        self.call_code = call_code
        self.size = size
        self.peer = peer
        self.count = count
        self.calls = tuple(calls)
        self.region = region
        self.total_time: np.ndarray | None = None
        self.min_time: np.ndarray | None = None
        self.max_time: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.rank.shape[0])

    @property
    def has_times(self) -> bool:
        return self.total_time is not None

    def set_times(
        self, total: np.ndarray, tmin: np.ndarray, tmax: np.ndarray
    ) -> None:
        """Attach float64 timing columns (one entry per record)."""
        for arr in (total, tmin, tmax):
            if arr.shape != self.rank.shape:
                raise ValueError(
                    f"timing column shape {arr.shape} != batch shape {self.rank.shape}"
                )
        self.total_time = total
        self.min_time = tmin
        self.max_time = tmax

    @classmethod
    def from_rows(cls, rows: list[dict[str, Any]]) -> "RecordBatch":
        """Columnarize the record rows of a validated cache document.

        Rows keep their document order and carry one region (the cache
        validator enforces both the single region and the field types).
        Columns come out int64 (rank/size/peer/count), int16 (call code)
        and float64 (times), timing included.
        """
        n = len(rows)

        def col(key: str, dtype: type) -> np.ndarray:
            return np.fromiter(map(itemgetter(key), rows), dtype=dtype, count=n)

        calls = tuple(sorted(set(map(itemgetter("call"), rows))))
        code_of = {c: i for i, c in enumerate(calls)}
        batch = cls(
            rank=col("rank", np.int64),
            call_code=np.fromiter(
                map(code_of.__getitem__, map(itemgetter("call"), rows)),
                dtype=np.int16,
                count=n,
            ),
            size=col("size", np.int64),
            peer=col("peer", np.int64),
            count=col("count", np.int64),
            calls=calls,
            region=rows[0]["region"] if rows else "steady",
        )
        batch.set_times(
            col("total_time", np.float64),
            col("min_time", np.float64),
            col("max_time", np.float64),
        )
        return batch

    @classmethod
    def from_parts(
        cls,
        parts: Iterable[tuple[str, Any, Any, Any, Any]],
        region: str = "steady",
    ) -> "RecordBatch":
        """Build a batch from (call, rank, size, peer, count) part tuples.

        Each part's rank/size/peer/count may be an array or a scalar;
        scalars broadcast to the part's rank length.
        """
        mats = []
        names: list[str] = []
        for call, rank, size, peer, count in parts:
            rank = np.asarray(rank)
            if rank.size == 0:
                continue
            mats.append(
                (
                    call,
                    rank,
                    np.broadcast_to(np.asarray(size), rank.shape),
                    np.broadcast_to(np.asarray(peer), rank.shape),
                    np.broadcast_to(np.asarray(count), rank.shape),
                )
            )
            if call not in names:
                names.append(call)
        calls = tuple(sorted(names))
        code_of = {c: i for i, c in enumerate(calls)}
        if not mats:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty.astype(np.int16), empty, empty, empty, calls, region)

        def col(i: int) -> np.ndarray:
            # int32 columns halve memory traffic on multi-million-record
            # batches; fall back to int64 only when values demand it.
            arr = np.concatenate([m[i] for m in mats])
            if arr.dtype != np.int32 and int(arr.max(initial=0)) < 2**31:
                arr = arr.astype(np.int32)
            return arr

        return cls(
            rank=col(1),
            call_code=np.concatenate(
                [np.full(m[1].shape, code_of[m[0]], dtype=np.int16) for m in mats]
            ),
            size=col(2),
            peer=col(3),
            count=col(4),
            calls=calls,
            region=region,
        )

    def _sort_order(self) -> np.ndarray:
        """Permutation realizing canonical (rank, call, size, peer) order.

        When the key fields are narrow enough, they pack into one int64
        whose numeric order equals the tuple order — a single-key argsort
        is ~3x cheaper than a 4-key lexsort at tens of millions of rows.
        """
        bits = [
            int(int(c.max(initial=0)).bit_length()) + 1
            for c in (self.rank, self.call_code, self.size, self.peer)
        ]
        if sum(bits) <= 62:
            key = self.rank.astype(np.int64)
            for col, width in (
                (self.call_code, bits[1]),
                (self.size, bits[2]),
                (self.peer, bits[3]),
            ):
                key = (key << width) | col.astype(np.int64)
            return np.argsort(key)
        return np.lexsort((self.peer, self.size, self.call_code, self.rank))

    def aggregate(self) -> "RecordBatch":
        """Merge duplicate keys and sort into canonical record order."""
        if len(self) == 0:
            return self
        order = self._sort_order()
        rank = self.rank[order]
        code = self.call_code[order]
        size = self.size[order]
        peer = self.peer[order]
        count = self.count[order]
        boundary = np.empty(len(self), dtype=bool)
        boundary[0] = True
        boundary[1:] = (
            (rank[1:] != rank[:-1])
            | (code[1:] != code[:-1])
            | (size[1:] != size[:-1])
            | (peer[1:] != peer[:-1])
        )
        if boundary.all():  # no duplicate keys: skip the group-reduce
            out = RecordBatch(rank, code, size, peer, count, self.calls, self.region)
            if self.has_times:
                out.set_times(
                    self.total_time[order], self.min_time[order], self.max_time[order]
                )
            return out
        idx = np.flatnonzero(boundary)
        out = RecordBatch(
            rank=rank[idx],
            call_code=code[idx],
            size=size[idx],
            peer=peer[idx],
            count=np.add.reduceat(count.astype(np.int64), idx),
            calls=self.calls,
            region=self.region,
        )
        if self.has_times:
            out.set_times(
                np.add.reduceat(self.total_time[order], idx),
                np.minimum.reduceat(self.min_time[order], idx),
                np.maximum.reduceat(self.max_time[order], idx),
            )
        return out

    def call_mask(self, names: frozenset[str] | set[str]) -> np.ndarray:
        """Boolean mask of records whose call is in ``names``."""
        wanted = np.array(
            [c in names for c in self.calls], dtype=bool
        )
        if not wanted.any():
            return np.zeros(len(self), dtype=bool)
        return wanted[self.call_code]

    @property
    def call_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for i, call in enumerate(self.calls):
            t = int(self.count[self.call_code == i].sum())
            if t:
                totals[call] = t
        return totals

    def _time_lists(self) -> tuple[list[float], list[float], list[float]]:
        if self.has_times:
            return self.total_time.tolist(), self.min_time.tolist(), self.max_time.tolist()
        zeros = [0.0] * len(self)
        return zeros, zeros, zeros

    def to_dicts(self) -> list[dict[str, Any]]:
        """Record dicts in cache-document field order."""
        region = self.region
        totals, mins, maxs = self._time_lists()
        return [
            {
                "rank": r,
                "call": self.calls[c],
                "size": s,
                "peer": p,
                "region": region,
                "count": n,
                "total_time": tt,
                "min_time": tn,
                "max_time": tx,
            }
            for r, c, s, p, n, tt, tn, tx in zip(
                self.rank.tolist(),
                self.call_code.tolist(),
                self.size.tolist(),
                self.peer.tolist(),
                self.count.tolist(),
                totals,
                mins,
                maxs,
            )
        ]


class Trace:
    """A complete synthetic (or cached) application trace: one batch."""

    def __init__(
        self,
        app: str,
        nranks: int,
        batch: RecordBatch,
        overrides: dict[str, Any] | None = None,
        timing: dict[str, Any] | None = None,
    ):
        self.app = app
        self.nranks = nranks
        self.batch = batch
        self.overrides = dict(overrides or {})
        # Timing-model descriptor ({"model", "seed", "params"}) once a
        # hfast.timing model has been applied; None on untimed traces.
        self.timing = dict(timing) if timing else None

    def ensure_batch(self) -> RecordBatch:
        """The trace's record batch (benchmark layer traces wrap this call by name)."""
        return self.batch

    @property
    def call_totals(self) -> dict[str, int]:
        return self.batch.call_totals

    def to_document(self) -> dict[str, Any]:
        """Serialize to the on-disk repro-cache document (format 3).

        Format 3 adds ``metadata.timing`` (the timing-model descriptor,
        null on untimed traces) on top of the format-2 schema; records
        carry real ``total_time``/``min_time``/``max_time`` values.
        """
        return {
            "format": 3,
            "metadata": {
                "app": self.app,
                "nranks": self.nranks,
                "overrides": dict(self.overrides),
                "timing": dict(self.timing) if self.timing else None,
            },
            "call_totals": self.call_totals,
            "records": self.batch.to_dicts(),
        }

    @classmethod
    def from_document(cls, doc: dict[str, Any]) -> "Trace":
        """Rebuild a trace from a validated format-3 (or format-2) document."""
        meta = doc["metadata"]
        return cls(
            app=str(meta["app"]),
            nranks=int(meta["nranks"]),
            batch=RecordBatch.from_rows(doc["records"]),
            overrides=dict(meta.get("overrides", {})),
            timing=meta.get("timing"),
        )
