"""Reference implementations the production paths are pinned against.

``src/`` keeps one implementation per layer. The slower, obviously
correct copies live here, used only by the differential suites:

- **Records.** :class:`CommRecord`, one Python object per aggregated
  record, with :func:`aggregate` (merge and canonically sort) and
  :func:`records_of`/:func:`batch_of` to convert from and to the
  production :class:`~hfast.records.RecordBatch`.
- **Timing.** :func:`mean_call_time` and :func:`time_record` evaluate a
  :class:`~hfast.timing.TimingModel` one record at a time; they are the
  counterpart of :meth:`~hfast.timing.TimingModel.time_batch` and must
  agree with it bit for bit.
- **Synthesis.** Per-record generators for every app: Python loops
  emitting one :class:`CommRecord` at a time, aggregated and timed record
  by record, columnarized only at the end. :func:`synthesize_reference`
  is the counterpart of :func:`hfast.apps.synthesize`; the two must
  serialize to byte-identical cache documents.
- **Dense matrices.** :class:`DenseMatrix` holds the N x N bytes,
  messages and time planes the analysis core used before the link
  table; :func:`dense_of` and :func:`table_of` convert between the two.
  :func:`reduce_matrix_reference` is the per-record loop counterpart of
  :func:`hfast.matrix.reduce_matrix`, and :func:`analyze_topology_dense`,
  :func:`evaluate_hybrid_dense` and :func:`slice_traffic` are the dense
  counterparts of the topology pass, the static evaluation and the
  temporal slicer.
- **Matching.** A sequential greedy seed, a per-edge swap-candidate
  filter and pure-Python adjacency lists, driving the same improvement
  passes as :func:`hfast.matcher.match_edges`.
  :func:`match_edges_reference` must select exactly the same circuits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable

import numpy as np

from hfast.apps import _factor2, _factor3
from hfast.matcher import (
    DEFAULT_MAX_PASSES,
    _AugmentMemo,
    _augment_pass,
    _MatchState,
    _swap_pass,
    canon_key,
    greedy_seed_vector,
    match_edges,
    sort_edges,
)
from hfast.interconnect import (
    HybridEvaluation,
    InterconnectConfig,
    slice_edge_volumes,
)
from hfast.matrix import LinkTable
from hfast.records import (
    COLLECTIVE_CALLS,
    PTP_CALLS,
    RECV_CALLS,
    SEND_CALLS,
    RecordBatch,
    Trace,
)
from hfast.topology import TopologyStats
from hfast.timing import (
    _CALL_IDS,
    _CALL_OVERHEAD,
    _DEFAULT_OVERHEAD,
    _INV_2_53,
    _STREAM_MAX,
    _STREAM_MIN,
    _UNKNOWN_CALL_ID,
    DEFAULT_TIMING_SEED,
    TimingModel,
    mix64,
)

# -- records ------------------------------------------------------------------


@dataclass
class CommRecord:
    """One aggregated IPM-style call record."""

    rank: int
    call: str
    size: int
    peer: int
    region: str = "steady"
    count: int = 1
    total_time: float = 0.0
    min_time: float = 0.0
    max_time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @property
    def bytes_moved(self) -> int:
        return self.size * self.count

    @property
    def is_ptp(self) -> bool:
        return self.call in PTP_CALLS

    @property
    def is_send(self) -> bool:
        return self.call in SEND_CALLS

    @property
    def is_recv(self) -> bool:
        return self.call in RECV_CALLS


def aggregate(records: Iterable[CommRecord]) -> list[CommRecord]:
    """Merge records sharing (rank, call, size, peer, region), canonically sorted."""
    merged: dict[tuple, CommRecord] = {}
    for r in records:
        key = (r.rank, r.call, r.size, r.peer, r.region)
        cur = merged.get(key)
        if cur is None:
            merged[key] = CommRecord(**r.to_dict())
        else:
            cur.count += r.count
            cur.total_time += r.total_time
            cur.min_time = min(cur.min_time, r.min_time) if cur.count else r.min_time
            cur.max_time = max(cur.max_time, r.max_time)
    return [merged[key] for key in sorted(merged)]


def records_of(batch: RecordBatch) -> list[CommRecord]:
    """One :class:`CommRecord` per batch row, times included."""
    return [CommRecord(**row) for row in batch.to_dicts()]


def batch_of(records: list[CommRecord]) -> RecordBatch:
    """Columnarize single-region records through the cache-load path."""
    return RecordBatch.from_rows([r.to_dict() for r in records])


# -- timing -------------------------------------------------------------------


def _jitter_hash(model: TimingModel, rank: int, peer: int, call: str) -> int:
    key = (
        ((rank & 0xFFFFFFF) << 28)
        ^ ((peer & 0xFFFFF) << 8)
        ^ _CALL_IDS.get(call, _UNKNOWN_CALL_ID)
    )
    return mix64(model._seed_base ^ key)


def mean_call_time(model: TimingModel, call: str, size: int, rank: int, peer: int) -> float:
    """Jittered mean time of one call of ``size`` bytes."""
    p = model.params
    wire = (p.L + p.g) + float(size) * p.G
    stages = model._stages if call in COLLECTIVE_CALLS else 1.0
    base = p.o * _CALL_OVERHEAD.get(call, _DEFAULT_OVERHEAD) + wire * stages
    u = (_jitter_hash(model, rank, peer, call) >> 11) * _INV_2_53
    return base * (1.0 + p.jitter * (2.0 * u - 1.0))


def time_record(model: TimingModel, rec: CommRecord) -> tuple[float, float, float]:
    """(total_time, min_time, max_time) for one aggregated record."""
    mean = mean_call_time(model, rec.call, rec.size, rec.rank, rec.peer)
    total = mean * float(rec.count)
    if rec.count <= 1:
        return total, mean, mean
    h = _jitter_hash(model, rec.rank, rec.peer, rec.call)
    umin = (mix64(h ^ _STREAM_MIN) >> 11) * _INV_2_53
    umax = (mix64(h ^ _STREAM_MAX) >> 11) * _INV_2_53
    jit = model.params.jitter
    return total, mean * (1.0 - 0.5 * jit * umin), mean * (1.0 + 0.5 * jit * umax)


# -- dense matrices -----------------------------------------------------------


@dataclass
class DenseMatrix:
    """Dense N x N planes: ``[src, dst]`` bytes, messages and seconds."""

    nranks: int
    bytes_matrix: np.ndarray
    msg_matrix: np.ndarray
    time_matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.time_matrix is None:
            self.time_matrix = np.zeros_like(self.bytes_matrix, dtype=np.float64)

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_matrix.sum())

    @property
    def total_messages(self) -> int:
        return int(self.msg_matrix.sum())

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


def dense_of(links: LinkTable) -> DenseMatrix:
    """Scatter a link table into dense planes."""
    n = links.nranks
    planes = [
        np.zeros((n, n), dtype=np.int64),
        np.zeros((n, n), dtype=np.int64),
        np.zeros((n, n), dtype=np.float64),
    ]
    for plane, col in zip(planes, (links.bytes, links.msgs, links.time)):
        plane[links.src, links.dst] = col
    return DenseMatrix(n, *planes)


def table_of(bytes_m: np.ndarray, msg_m: np.ndarray | None = None) -> LinkTable:
    """Gather untimed dense planes into a link table: every cell with bytes or messages."""
    bytes_m = np.asarray(bytes_m, dtype=np.int64)
    msg_m = np.zeros_like(bytes_m) if msg_m is None else np.asarray(msg_m, dtype=np.int64)
    src, dst = np.nonzero((bytes_m > 0) | (msg_m > 0))
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    return LinkTable(
        bytes_m.shape[0], src, dst, bytes_m[src, dst], msg_m[src, dst],
        np.zeros(len(src), dtype=np.float64),
    )


def reduce_matrix_reference(records: Iterable[CommRecord], nranks: int) -> DenseMatrix:
    """Per-record counterpart of :func:`hfast.matrix.reduce_matrix`."""
    send_bytes = np.zeros((nranks, nranks), dtype=np.int64)
    send_msgs = np.zeros((nranks, nranks), dtype=np.int64)
    send_time = np.zeros((nranks, nranks), dtype=np.float64)
    recv_bytes = np.zeros((nranks, nranks), dtype=np.int64)
    recv_msgs = np.zeros((nranks, nranks), dtype=np.int64)
    recv_time = np.zeros((nranks, nranks), dtype=np.float64)
    for r in records:
        if not r.is_ptp or r.size <= 0 or r.rank == r.peer:
            continue
        if r.is_send:
            send_bytes[r.rank, r.peer] += r.bytes_moved
            send_msgs[r.rank, r.peer] += r.count
            send_time[r.rank, r.peer] += r.total_time
        elif r.is_recv:
            recv_bytes[r.peer, r.rank] += r.bytes_moved
            recv_msgs[r.peer, r.rank] += r.count
            recv_time[r.peer, r.rank] += r.total_time
    return DenseMatrix(
        nranks=nranks,
        bytes_matrix=np.maximum(send_bytes, recv_bytes),
        msg_matrix=np.maximum(send_msgs, recv_msgs),
        time_matrix=np.maximum(send_time, recv_time),
    )


def analyze_topology_dense(
    dm: DenseMatrix, ks: tuple[int, ...] = (1, 2, 4, 8, 16)
) -> TopologyStats:
    """Dense counterpart of :func:`hfast.topology.analyze_topology`."""
    volume = dm.bytes_matrix + dm.bytes_matrix.T
    np.fill_diagonal(volume, 0)
    degrees = (volume > 0).sum(axis=1)
    hist: dict[int, int] = {}
    for d in degrees:
        hist[int(d)] = hist.get(int(d), 0) + 1
    total = float(volume.sum())
    if total > 0:
        sorted_vol = np.sort(volume, axis=1)[:, ::-1]
        concentration = {k: float(sorted_vol[:, :k].sum()) / total for k in ks}
    else:
        concentration = {k: 0.0 for k in ks}
    return TopologyStats(
        nranks=dm.nranks,
        degrees=degrees,
        max_degree=int(degrees.max()) if dm.nranks else 0,
        avg_degree=float(degrees.mean()) if dm.nranks else 0.0,
        degree_histogram=hist,
        concentration=concentration,
    )


def canonical_edges(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matchable edges of a dense matrix in the matcher's canonical order.

    Strictly-positive off-diagonal entries, weight descending, ties in
    stripe order; ``(src, dst, w)`` columns (int64, int64, float64).
    """
    src, dst = np.nonzero(weights > 0)
    keep = src != dst
    src, dst = src[keep].astype(np.int64), dst[keep].astype(np.int64)
    w = np.asarray(weights, dtype=np.float64)[src, dst]
    order = np.lexsort((canon_key(src, dst, weights.shape[0]), -w))
    return src[order], dst[order], w[order]


def greedy_circuits(weights: np.ndarray, nranks: int, bound: int) -> list[tuple[int, int]]:
    """Canonical-order greedy assignment over a dense matrix."""
    if bound <= 0:
        return []
    src, dst, w = canonical_edges(weights)
    seed = greedy_seed_vector(src, dst, w, nranks, bound)
    return sorted((int(src[ei]), int(dst[ei])) for ei in seed)


def assign_circuits_matching(
    weights: np.ndarray, circuits_per_node: int, max_passes: int = DEFAULT_MAX_PASSES
) -> list[tuple[int, int]]:
    """Degree-constrained max-weight matching over a dense matrix."""
    if circuits_per_node <= 0:
        return []
    src, dst, w = canonical_edges(weights)
    return match_edges(
        src, dst, w, weights.shape[0], circuits_per_node, max_passes=max_passes,
        presorted=True,
    )


def node_finish_times(
    bytes_m: np.ndarray, msg_m: np.ndarray, circuit_mask: np.ndarray, config: InterconnectConfig
) -> tuple[float, float]:
    """(hybrid, packet-only) fabric finish times from dense row sums."""
    circ_bytes_out = np.where(circuit_mask, bytes_m, 0).sum(axis=1)
    pkt_bytes_out = np.where(~circuit_mask, bytes_m, 0).sum(axis=1)
    circ_msgs = np.where(circuit_mask, msg_m, 0).sum(axis=1)
    pkt_msgs = np.where(~circuit_mask, msg_m, 0).sum(axis=1)

    circ_time = circ_bytes_out / config.circuit_bandwidth + circ_msgs * config.circuit_latency
    pkt_time = pkt_bytes_out / config.packet_bandwidth + pkt_msgs * config.packet_latency
    hybrid = float(np.maximum(circ_time, pkt_time).max()) if bytes_m.shape[0] else 0.0

    all_time = (
        bytes_m.sum(axis=1) / config.packet_bandwidth
        + msg_m.sum(axis=1) * config.packet_latency
    )
    packet_only = float(all_time.max()) if bytes_m.shape[0] else 0.0
    return hybrid, packet_only


def evaluate_hybrid_dense(
    dm: DenseMatrix, config: InterconnectConfig | None = None, strategy: str = "greedy"
) -> HybridEvaluation:
    """Dense counterpart of :func:`hfast.interconnect.evaluate_hybrid`."""
    config = config or InterconnectConfig()
    ev = HybridEvaluation(config=config, strategy=strategy)
    total = dm.total_bytes
    if total == 0:
        ev.fully_provisionable = True
        return ev
    if strategy == "matching":
        ev.circuits = assign_circuits_matching(dm.bytes_matrix, config.circuits_per_node)
    else:
        ev.circuits = greedy_circuits(dm.bytes_matrix, dm.nranks, config.circuits_per_node)
    circuit_mask = np.zeros_like(dm.bytes_matrix, dtype=bool)
    for src, dst in ev.circuits:
        circuit_mask[src, dst] = True
    ev.circuit_bytes = int(dm.bytes_matrix[circuit_mask].sum())
    ev.packet_bytes = total - ev.circuit_bytes
    ev.coverage = ev.circuit_bytes / total
    ev.fully_provisionable = len(ev.circuits) == dm.nonzero_links()
    ev.hybrid_time, ev.packet_only_time = node_finish_times(
        dm.bytes_matrix, dm.msg_matrix, circuit_mask, config
    )
    if ev.hybrid_time > 0:
        ev.speedup = ev.packet_only_time / ev.hybrid_time
    return ev


def slice_traffic(
    dm: DenseMatrix, timesteps: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-timestep dense (bytes, msgs) planes from the production slicer.

    Summing the slices reproduces the input planes exactly (message-only
    links included); ``timesteps=1`` returns the input unchanged.
    """
    if timesteps <= 1:
        return [(dm.bytes_matrix.copy(), dm.msg_matrix.copy())]
    n = dm.nranks
    src, dst = np.nonzero((dm.bytes_matrix > 0) | (dm.msg_matrix > 0))
    eb, em = slice_edge_volumes(
        src, dst, dm.bytes_matrix[src, dst], dm.msg_matrix[src, dst], timesteps, seed
    )
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for t in range(timesteps):
        mats = []
        for plane in (eb, em):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[src, dst] = plane[t]
            mats.append(mat)
        out.append((mats[0], mats[1]))
    return out


# -- synthesis ----------------------------------------------------------------


def synthesize_reference(
    app: str,
    nranks: int,
    overrides: dict[str, Any] | None = None,
    timing_seed: int | None = DEFAULT_TIMING_SEED,
) -> Trace:
    """Per-record counterpart of :func:`hfast.apps.synthesize`."""
    overrides = dict(overrides or {})
    records = aggregate(REFERENCE_GENERATORS[app](nranks, overrides))
    timing = None
    if timing_seed is not None:
        model = TimingModel(app, nranks, seed=timing_seed)
        for rec in records:
            rec.total_time, rec.min_time, rec.max_time = time_record(model, rec)
        timing = model.to_dict()
    return Trace(app, nranks, batch_of(records), overrides=overrides, timing=timing)


def ghost_pairs(nranks: int, dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """(rank, neighbour) pairs for a periodic Cartesian grid, both directions."""
    ndim = len(dims)
    strides = [1] * ndim
    for i in range(ndim - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    def coords(r: int) -> list[int]:
        return [(r // strides[i]) % dims[i] for i in range(ndim)]

    def to_rank(c: list[int]) -> int:
        return sum((c[i] % dims[i]) * strides[i] for i in range(ndim))

    pairs = []
    for r in range(nranks):
        c = coords(r)
        for axis in range(ndim):
            if dims[axis] == 1:
                continue
            for step in (-1, 1):
                cc = list(c)
                cc[axis] += step
                peer = to_rank(cc)
                if peer != r:
                    pairs.append((r, peer))
    return pairs


def _gen_cactus(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    steps = int(ov.get("steps", 12))
    ghost_bytes = int(ov.get("ghost_bytes", 294912))
    recs: list[CommRecord] = []
    pairs = ghost_pairs(nranks, _factor3(nranks))
    for r, peer in pairs:
        recs.append(CommRecord(r, "MPI_Isend", ghost_bytes, peer, count=steps))
        recs.append(CommRecord(r, "MPI_Irecv", ghost_bytes, peer, count=steps))
        recs.append(CommRecord(r, "MPI_Wait", 0, r, count=steps))
    for r in range(nranks):
        recs.append(CommRecord(r, "MPI_Waitall", 0, r, count=max(1, steps // 2)))
        if steps >= 6:
            recs.append(CommRecord(r, "MPI_Allreduce", 8, 0, count=max(1, steps // 12)))
    return recs


def _gen_gtc(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    steps = int(ov.get("steps", 10))
    particle_bytes = int(ov.get("particle_bytes", 524288))
    recs: list[CommRecord] = []
    for r in range(nranks):
        up = (r + 1) % nranks
        down = (r - 1) % nranks
        if up != r:
            recs.append(CommRecord(r, "MPI_Isend", particle_bytes, up, count=steps))
            recs.append(CommRecord(r, "MPI_Irecv", particle_bytes, down, count=steps))
            recs.append(CommRecord(r, "MPI_Wait", 0, r, count=2 * steps))
        recs.append(CommRecord(r, "MPI_Allreduce", 4096, 0, count=max(1, steps // 2)))
    return recs


def _gen_lbmhd(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    steps = int(ov.get("steps", 8))
    lattice_bytes = int(ov.get("lattice_bytes", 131072))
    recs: list[CommRecord] = []
    px, py = _factor2(nranks)

    def to_rank(ix: int, iy: int) -> int:
        return (ix % px) * py + (iy % py)

    # The first four offsets are the axis (full-lattice) exchanges; the
    # payload class follows the offset, not the peer's position in the
    # dedup order.
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)]
    for r in range(nranks):
        ix, iy = r // py, r % py
        peers: list[tuple[int, int]] = []
        for j, (dx, dy) in enumerate(offsets):
            peer = to_rank(ix + dx, iy + dy)
            if peer != r and peer not in [p for p, _ in peers]:
                peers.append((peer, j))
        for peer, j in peers:
            size = lattice_bytes if j < 4 else lattice_bytes // 4
            recs.append(CommRecord(r, "MPI_Isend", size, peer, count=steps))
            recs.append(CommRecord(r, "MPI_Irecv", size, peer, count=steps))
        recs.append(CommRecord(r, "MPI_Waitall", 0, r, count=steps))
        recs.append(CommRecord(r, "MPI_Allreduce", 64, 0, count=max(1, steps // 4)))
    return recs


def _gen_paratec(nranks: int, ov: dict[str, Any]) -> list[CommRecord]:
    fft_cycles = int(ov.get("fft_cycles", 3))
    grid_bytes = int(ov.get("grid_bytes", 16384))
    recs: list[CommRecord] = []
    for r in range(nranks):
        for peer in range(nranks):
            if peer == r:
                continue
            recs.append(CommRecord(r, "MPI_Isend", grid_bytes, peer, count=fft_cycles))
            recs.append(CommRecord(r, "MPI_Irecv", grid_bytes, peer, count=fft_cycles))
        recs.append(CommRecord(r, "MPI_Waitall", 0, r, count=2 * fft_cycles))
        recs.append(CommRecord(r, "MPI_Allreduce", 8, 0, count=fft_cycles))
    return recs


REFERENCE_GENERATORS = {
    "cactus": _gen_cactus,
    "gtc": _gen_gtc,
    "lbmhd": _gen_lbmhd,
    "paratec": _gen_paratec,
}


# -- matching -----------------------------------------------------------------


def greedy_seed_scalar(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[int]:
    """Sequential greedy over canonical-ordered edges.

    Accepts each edge in order whenever both endpoints still have
    capacity. Returns accepted edge indexes in canonical order.
    """
    cap_out = [bound] * nranks
    cap_in = [bound] * nranks
    chosen: list[int] = []
    for ei in range(len(w)):
        s, d = int(src[ei]), int(dst[ei])
        if cap_out[s] > 0 and cap_in[d] > 0:
            cap_out[s] -= 1
            cap_in[d] -= 1
            chosen.append(ei)
    return chosen


def swap_candidates_scalar(state: _MatchState) -> list[int]:
    """Edge-by-edge form of the production swap-candidate filter."""
    lb_out: dict[int, float] = {}
    lb_in: dict[int, float] = {}
    for node, edges in state.out_sel.items():
        if len(edges) >= state.bound:
            lb_out[node] = float(state.w[state.min_out(node)])
    for node, edges in state.in_sel.items():
        if len(edges) >= state.bound:
            lb_in[node] = float(state.w[state.min_in(node)])
    cands: list[int] = []
    for ei in range(len(state.w)):
        if ei in state.sel:
            continue
        bound = lb_out.get(int(state.src[ei]), 0.0) + lb_in.get(int(state.dst[ei]), 0.0)
        if float(state.w[ei]) > bound:
            cands.append(ei)
    return cands


def adjacency_scalar(
    src: np.ndarray, dst: np.ndarray, nranks: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Per-node incident edge-index lists, built one edge at a time."""
    out_adj: list[list[int]] = [[] for _ in range(nranks)]
    in_adj: list[list[int]] = [[] for _ in range(nranks)]
    for ei in range(len(src)):
        out_adj[int(src[ei])].append(ei)
        in_adj[int(dst[ei])].append(ei)
    return out_adj, in_adj


def match_edges_reference(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    nranks: int,
    bound: int,
    max_passes: int = DEFAULT_MAX_PASSES,
    presorted: bool = False,
) -> list[tuple[int, int]]:
    """Reference counterpart of :func:`hfast.matcher.match_edges`."""
    if not presorted:
        src, dst, w = sort_edges(src, dst, w, nranks)
    if bound <= 0 or len(w) == 0:
        return []
    state = _MatchState(src, dst, w, bound, nranks)
    for ei in greedy_seed_scalar(src, dst, w, nranks, bound):
        state.add(ei)
    out_adj, in_adj = adjacency_scalar(src, dst, nranks)
    memo = _AugmentMemo([int(s) * max(1, nranks) + int(d) for s, d in zip(src, dst)])
    for _ in range(max_passes):
        improved = _swap_pass(state, swap_candidates_scalar(state))
        improved |= _augment_pass(state, out_adj, in_adj, memo)
        if not improved:
            break
    return sorted((int(src[ei]), int(dst[ei])) for ei in state.sel)


def greedy_circuits_reference(
    weights: np.ndarray, nranks: int, bound: int
) -> list[tuple[int, int]]:
    """Reference counterpart of :func:`hfast.matcher.greedy_circuits`."""
    if bound <= 0:
        return []
    src, dst, w = canonical_edges(weights)
    seed = greedy_seed_scalar(src, dst, w, nranks, bound)
    return sorted((int(src[ei]), int(dst[ei])) for ei in seed)
