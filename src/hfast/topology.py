"""Topology-degree analysis (the paper's central measurement).

The SC'05 study's key observation: most ultra-scale applications talk to a
small, fixed set of partners, so a hybrid interconnect can provision
circuits for the heavy links and fall back to a cheap packet network for
the rest. These reductions quantify that: per-rank degree, the degree
distribution, and the traffic fraction concentrated on each rank's top-k
partners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hfast.matrix import LinkTable, group_keys, pair_key
from hfast.obs.profile import profiled


@dataclass
class TopologyStats:
    nranks: int
    degrees: np.ndarray  # per-rank partner count (union of send/recv)
    max_degree: int
    avg_degree: float
    degree_histogram: dict[int, int]
    concentration: dict[int, float]  # k -> fraction of bytes on top-k partners/rank

    def to_dict(self) -> dict:
        return {
            "nranks": self.nranks,
            "max_degree": self.max_degree,
            "avg_degree": round(self.avg_degree, 3),
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "concentration": {str(k): round(v, 4) for k, v in sorted(self.concentration.items())},
        }


@profiled("topology_degree")
def analyze_topology(links: LinkTable, ks: tuple[int, ...] = (1, 2, 4, 8, 16)) -> TopologyStats:
    n = links.nranks
    # Partner volume seen by each rank, regardless of direction: one
    # entry per undirected pair, summed over both directions.
    off = (links.src != links.dst) & (links.bytes > 0)
    lo = np.minimum(links.src, links.dst)[off]
    hi = np.maximum(links.src, links.dst)[off]
    pairs, inverse = group_keys(pair_key(lo, hi, n))
    pair_volume = np.bincount(
        inverse, weights=links.bytes[off].astype(np.float64), minlength=len(pairs)
    ).astype(np.int64)
    m = np.int64(max(1, n))
    ranks = np.concatenate((pairs // m, pairs % m))
    volume = np.concatenate((pair_volume, pair_volume))
    degrees = np.bincount(ranks, minlength=n)

    hist = {d: int(c) for d, c in enumerate(np.bincount(degrees)) if c}

    total = float(volume.sum())
    concentration: dict[int, float] = {}
    if total > 0:
        # Each rank's partners heaviest first; a partner's position within
        # its rank's segment says whether it is among that rank's top k.
        order = np.lexsort((-volume, ranks))
        seg_start = np.cumsum(degrees) - degrees
        position = np.arange(len(order)) - seg_start[ranks[order]]
        ordered = volume[order]
        for k in ks:
            concentration[k] = float(ordered[position < k].sum()) / total
    else:
        concentration = {k: 0.0 for k in ks}

    return TopologyStats(
        nranks=n,
        degrees=degrees,
        max_degree=int(degrees.max()) if n else 0,
        avg_degree=float(degrees.mean()) if n else 0.0,
        degree_histogram=hist,
        concentration=concentration,
    )
