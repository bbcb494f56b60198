"""Degree-constrained max-weight matching over columnar edge arrays.

The temporal evaluator re-matches every timestep, so the matcher works
on a structure-of-arrays edge list (``src``/``dst``/``w`` columns), not
on a dense weight matrix, and keeps pure-Python loops off the per-edge
paths wherever it can.

The greedy seed runs as b-Suitor-style rounds (accept every edge that
is within the remaining capacity at *both* endpoints among surviving
edges, drop edges touching saturated nodes, repeat), which produces
exactly the sequential greedy result under the canonical total order.
Improvement candidates are computed with vectorized lower-bound filters
so the sequential apply loop only touches edges that can actually
improve the matching.

Edges are processed in one canonical order — descending weight, ties in
*stripe* order ``((dst - src) mod n, src, dst)``. The stripe tie-break
is a Latin-square round-robin: on tie-heavy traffic (a uniform
all-to-all) each stripe is a perfect permutation, so greedy saturates
every endpoint evenly instead of stranding capacity the way
pair-lexicographic order does. ``tests/oracles.py`` holds a pure-Python
reference matcher (sequential greedy seed, per-edge candidate filter,
list adjacency); ``tests/test_matcher_properties.py`` and
``tests/test_matcher_differential.py`` pin this module against it.

Self-loops are never matched (a circuit from a node to itself is
physically meaningless — loopback traffic stays on the packet fabric),
zero- and negative-weight edges are never matched, and a degree bound of
zero yields an empty matching.
"""

from __future__ import annotations

import numpy as np

DEFAULT_MAX_PASSES = 8


def canon_key(src: np.ndarray, dst: np.ndarray, nranks: int) -> np.ndarray:
    """Scalar tie-break key encoding ``((dst - src) mod n, src, dst)``.

    Fits int64 up to ~2M ranks (n**3 < 2**63); self-loops are excluded
    before this is ever computed, so the stripe component is in [1, n-1].
    """
    n = np.int64(max(1, nranks))
    stripe = (dst - src) % n
    return stripe * n * n + src * n + dst


def sort_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonically order raw edge columns, dropping unmatchable edges."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    keep = (w > 0) & (src != dst)
    src, dst, w = src[keep], dst[keep], w[keep]
    order = np.lexsort((canon_key(src, dst, nranks), -w))
    return src[order], dst[order], w[order]


# -- greedy seed --------------------------------------------------------------


def _group_rank(values: np.ndarray) -> np.ndarray:
    """0-based occurrence rank of each element within its value group.

    ``values`` is visited in array order; the i-th occurrence of a value
    gets rank i. Vectorized via a stable sort and run-length offsets.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    run_start = np.empty(len(values), dtype=bool)
    if len(values):
        run_start[0] = True
        run_start[1:] = sorted_vals[1:] != sorted_vals[:-1]
    idx = np.arange(len(values), dtype=np.int64)
    start_of_run = np.maximum.accumulate(np.where(run_start, idx, 0))
    ranks_sorted = idx - start_of_run
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def greedy_seed_vector(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, nranks: int, bound: int
) -> list[int]:
    """Greedy seed as b-Suitor-style rounds.

    Returns accepted edge indexes in canonical order. Each round accepts
    every surviving edge whose rank among surviving edges at *both*
    endpoints fits the remaining capacity there — a superset-free subset
    of what the sequential scan accepts — then discards edges touching
    saturated endpoints. Under a strict total order this converges to
    exactly the sequential greedy matching (Khan et al., the b-Suitor
    equivalence); the property suite pins the equality against the
    sequential scan in ``tests/oracles.py`` anyway.
    """
    if bound <= 0 or len(w) == 0:
        return []
    cap_out = np.full(nranks, bound, dtype=np.int64)
    cap_in = np.full(nranks, bound, dtype=np.int64)
    alive = np.arange(len(w), dtype=np.int64)
    chosen: list[np.ndarray] = []
    while alive.size:
        s, d = src[alive], dst[alive]
        acc = (_group_rank(s) < cap_out[s]) & (_group_rank(d) < cap_in[d])
        took = alive[acc]
        if not took.size:  # cannot happen (first edge always accepted)
            break
        chosen.append(took)
        cap_out -= np.bincount(src[took], minlength=nranks)
        cap_in -= np.bincount(dst[took], minlength=nranks)
        rest = alive[~acc]
        rest = rest[(cap_out[src[rest]] > 0) & (cap_in[dst[rest]] > 0)]
        alive = rest
    if not chosen:
        return []
    return np.sort(np.concatenate(chosen)).tolist()


# -- shared match state + improvement passes ----------------------------------


class _MatchState:
    """Edge-index-keyed selection state for the improvement passes.

    Edges are referenced by their canonical index, so the per-node
    bookkeeping is sets of ints and weight lookups are array reads.
    """

    __slots__ = ("src", "dst", "w", "bound", "sel", "out_sel", "in_sel", "versions")

    def __init__(
        self, src: np.ndarray, dst: np.ndarray, w: np.ndarray, bound: int, nranks: int = 0
    ):
        self.src, self.dst, self.w = src, dst, w
        self.bound = bound
        self.sel: set[int] = set()
        self.out_sel: dict[int, set[int]] = {}
        self.in_sel: dict[int, set[int]] = {}
        # Monotonic per-node change counters: bumped on every add/remove
        # touching the node, so a stamp over a neighbourhood detects "any
        # selection change here since I last looked" with one sum.
        self.versions: list[int] = [0] * nranks

    def add(self, ei: int) -> None:
        self.sel.add(ei)
        s, d = int(self.src[ei]), int(self.dst[ei])
        self.out_sel.setdefault(s, set()).add(ei)
        self.in_sel.setdefault(d, set()).add(ei)
        self.versions[s] += 1
        self.versions[d] += 1

    def remove(self, ei: int) -> None:
        self.sel.discard(ei)
        s, d = int(self.src[ei]), int(self.dst[ei])
        self.out_sel[s].discard(ei)
        self.in_sel[d].discard(ei)
        self.versions[s] += 1
        self.versions[d] += 1

    def out_degree(self, node: int) -> int:
        return len(self.out_sel.get(node, ()))

    def in_degree(self, node: int) -> int:
        return len(self.in_sel.get(node, ()))

    def min_out(self, node: int) -> int:
        """Lightest selected egress edge at ``node`` (ties: lowest dst)."""
        return min(self.out_sel[node], key=lambda ei: (self.w[ei], self.dst[ei]))

    def min_in(self, node: int) -> int:
        """Lightest selected ingress edge at ``node`` (ties: lowest src)."""
        return min(self.in_sel[node], key=lambda ei: (self.w[ei], self.src[ei]))


def _swap_candidates(state: _MatchState, nranks: int) -> list[int]:
    """Canonically-ordered edges worth visiting in a 1-for-k swap pass.

    An unselected edge can only displace blockers if its weight beats the
    sum of the lightest selected edge at each saturated endpoint (an
    unsaturated endpoint charges nothing). The filter is one array
    expression over a snapshot of the state at pass start, and it is
    exact there: skipped edges cannot improve the matching unless an
    earlier swap in the same pass changes the state — and any such
    late-blooming candidate is picked up by the next pass (``improved``
    stays True).
    """
    lb_out = np.zeros(nranks, dtype=np.float64)
    lb_in = np.zeros(nranks, dtype=np.float64)
    for node, edges in state.out_sel.items():
        if len(edges) >= state.bound:
            lb_out[node] = state.w[state.min_out(node)]
    for node, edges in state.in_sel.items():
        if len(edges) >= state.bound:
            lb_in[node] = state.w[state.min_in(node)]
    mask = state.w > lb_out[state.src] + lb_in[state.dst]
    if state.sel:
        mask[list(state.sel)] = False
    return np.flatnonzero(mask).tolist()


def _swap_pass(state: _MatchState, candidates: list[int]) -> bool:
    """1-for-k swaps: evict the lightest blockers when one edge pays for them.

    Sequential apply loop: eligibility is re-checked against the live
    state, so the moves depend only on the candidate list's order.
    """
    improved = False
    bound = state.bound
    for ei in candidates:
        if ei in state.sel:
            continue
        s, d = int(state.src[ei]), int(state.dst[ei])
        victims: list[int] = []
        if state.out_degree(s) >= bound:
            victims.append(state.min_out(s))
        if state.in_degree(d) >= bound:
            victims.append(state.min_in(d))
        if float(state.w[ei]) > sum(float(state.w[v]) for v in victims):
            for v in victims:
                state.remove(v)
            state.add(ei)
            improved = True
    return improved


class _AugmentMemo:
    """Per-match cache for the augment pass.

    ``cands``/``nbrs`` are static for a given edge universe (adjacency
    never changes within one match), so they are built lazily on an
    edge's first attempt and reused for every later pass. ``stamps``
    records, per edge, the neighbourhood version-sum at its last *failed*
    attempt: an attempt's outcome depends only on the selection state of
    edges incident to its endpoints and the degrees of their far nodes,
    all of which bump a version in ``nbrs`` when they change — so an
    unchanged sum proves the retry would fail identically and is skipped.
    """

    __slots__ = ("cands", "nbrs", "stamps", "order_key")

    def __init__(self, order_key: list[int] | None = None):
        self.cands: dict[int, list[int]] = {}
        self.nbrs: dict[int, list[int]] = {}
        self.stamps: dict[int, int] = {}
        #: (src, dst)-pair key per edge: the augment visit order.
        self.order_key = order_key or []


def _augment_pass(
    state: _MatchState,
    out_adj: list[np.ndarray],
    in_adj: list[np.ndarray],
    memo: _AugmentMemo,
) -> bool:
    """2-for-1 augments: drop one circuit when the freed endpoints can host
    a heavier *set* of replacements.

    Candidates are the edges incident to the dropped circuit's endpoints,
    visited in ascending canonical order — heaviest-first with the
    canonical tie-break for free. The scan simulates the replacement set
    against local degree deltas and commits only on improvement, so a
    failed attempt (the overwhelmingly common case) mutates nothing; the
    version stamps in ``memo`` then let later passes skip attempts whose
    neighbourhood has not changed since the failure.
    """
    improved = False
    bound = state.bound
    src, dst, w = state.src, state.dst, state.w
    versions = state.versions
    for ei in sorted(state.sel, key=memo.order_key.__getitem__):
        s, d = int(src[ei]), int(dst[ei])
        cands = memo.cands.get(ei)
        if cands is None:
            out_list = out_adj[s]
            in_list = in_adj[d]
            merged = set(map(int, out_list))
            merged.update(map(int, in_list))
            merged.discard(ei)
            memo.cands[ei] = cands = sorted(merged)
            nbr = {s, d}
            nbr.update(int(dst[c]) for c in out_list)
            nbr.update(int(src[c]) for c in in_list)
            memo.nbrs[ei] = sorted(nbr)
        vsum = 0
        for node in memo.nbrs[ei]:
            vsum += versions[node]
        if memo.stamps.get(ei) == vsum:
            continue
        wt = float(w[ei])
        sel = state.sel
        # Degrees as if ei were removed; candidate picks accumulate in
        # local deltas so nothing touches the real state until commit.
        s_out = state.out_degree(s) - 1
        d_in = state.in_degree(d) - 1
        out_delta: dict[int, int] = {}
        in_delta: dict[int, int] = {}
        picked: list[int] = []
        gained = 0.0
        for cand in cands:
            if cand in sel or cand in picked:
                continue
            if s_out >= bound and d_in >= bound:
                break
            cs, cd = int(src[cand]), int(dst[cand])
            out_ok = (
                s_out < bound
                if cs == s
                else state.out_degree(cs) + out_delta.get(cs, 0) < bound
            )
            in_ok = (
                d_in < bound
                if cd == d
                else state.in_degree(cd) + in_delta.get(cd, 0) < bound
            )
            if out_ok and in_ok:
                if cs == s:
                    s_out += 1
                else:
                    out_delta[cs] = out_delta.get(cs, 0) + 1
                if cd == d:
                    d_in += 1
                else:
                    in_delta[cd] = in_delta.get(cd, 0) + 1
                picked.append(cand)
                gained += float(w[cand])
        if gained > wt:
            state.remove(ei)
            for cand in picked:
                state.add(cand)
            improved = True
        else:
            memo.stamps[ei] = vsum
    return improved


def _adjacency(
    src: np.ndarray, dst: np.ndarray, nranks: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """CSR-style per-node incident edge-index lists, built with two sorts."""
    out_adj: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * nranks
    in_adj: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * nranks
    idx = np.arange(len(src), dtype=np.int64)
    for values, target in ((src, out_adj), (dst, in_adj)):
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
        )
        ends = np.append(bounds[1:], len(values))
        for b0, b1 in zip(bounds.tolist(), ends.tolist()):
            target[int(sorted_vals[b0])] = idx[order[b0:b1]]
    return out_adj, in_adj


def match_edges(
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    nranks: int,
    bound: int,
    max_passes: int = DEFAULT_MAX_PASSES,
    presorted: bool = False,
) -> list[tuple[int, int]]:
    """Degree-constrained max-weight matching over edge columns.

    Seeds with the canonical-order greedy solution, then alternates
    1-for-k swap and 2-for-1 augment passes until a pass changes nothing
    (at most ``max_passes``). Returns the selected circuits as a
    ``(src, dst)``-sorted list of tuples — the exact shape the
    interconnect evaluators consume. ``presorted=True`` skips the
    canonical sort for columns that are already in canonical order.
    """
    if not presorted:
        src, dst, w = sort_edges(src, dst, w, nranks)
    if bound <= 0 or len(w) == 0:
        return []
    state = _MatchState(src, dst, w, bound, nranks)
    for ei in greedy_seed_vector(src, dst, w, nranks, bound):
        state.add(ei)
    out_adj, in_adj = _adjacency(src, dst, nranks)
    memo = _AugmentMemo((src * np.int64(max(1, nranks)) + dst).tolist())
    for _ in range(max_passes):
        improved = _swap_pass(state, _swap_candidates(state, nranks))
        improved |= _augment_pass(state, out_adj, in_adj, memo)
        if not improved:
            break
    return sorted((int(src[ei]), int(dst[ei])) for ei in state.sel)

