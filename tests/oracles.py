"""Reference implementations the production paths are pinned against.

``src/`` keeps one implementation per layer. The slower, obviously
correct copies live here, used only by the differential suites:

- **Synthesis.** Per-record generators for every app: Python loops
  emitting one :class:`~hfast.records.CommRecord` at a time, aggregated
  and timed through the record-list path. :func:`synthesize_reference`
  is the counterpart of :func:`hfast.apps.synthesize`; the two must
  serialize to byte-identical cache documents.
- **Matching.** A sequential greedy seed, a per-edge swap-candidate
  filter and pure-Python adjacency lists, driving the same improvement
  passes as :func:`hfast.matcher.match_edges`.
  :func:`match_edges_reference` must select exactly the same circuits.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from hfast.apps import _factor2, _factor3
from hfast.matcher import (
    DEFAULT_MAX_PASSES,
    _AugmentMemo,
    _augment_pass,
    _MatchState,
    _swap_pass,
    canonical_edges,
    sort_edges,
)
from hfast.records import CommRecord, Trace, aggregate
from hfast.timing import DEFAULT_TIMING_SEED, apply_timing

# -- synthesis ----------------------------------------------------------------

def synthesize_reference(
    app: str,
    nranks: int,
    overrides: dict[str, Any] | None = None,
    timing_seed: int | None = DEFAULT_TIMING_SEED,
) -> Trace:
    """Per-record counterpart of :func:`hfast.apps.synthesize`."""
    overrides = dict(overrides or {})
    records = REFERENCE_GENERATORS[app](nranks, overrides)
    trace = Trace(app=app, nranks=nranks, records=aggregate(records), overrides=overrides)
    if timing_seed is not None:
        apply_timing(trace, seed=timing_seed)
    return trace


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
