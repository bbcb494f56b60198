"""Differential suite: the link-table analysis core vs its dense oracle.

Every layer that reads the :class:`~hfast.matrix.LinkTable` — reduce,
topology, static evaluation and the summary's ``top_peers`` — must give
exactly the answers the dense N x N planes in ``oracles.py`` give:
equal integers, float-equal times and fractions, and the same reported
peer when several peers tie for a rank's heaviest volume.
"""

import numpy as np
import pytest

from hfast.apps import synthesize
from hfast.cache import ReproCache
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import reduce_matrix
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app
from hfast.topology import analyze_topology
from oracles import (
    DenseMatrix,
    analyze_topology_dense,
    batch_of,
    dense_of,
    evaluate_hybrid_dense,
    records_of,
    reduce_matrix_reference,
    table_of,
)

APPS = ("cactus", "gtc", "lbmhd", "paratec")
CASES = [(app, n) for app in APPS for n in (8, 16, 64)] + [("cactus", 512), ("lbmhd", 512)]
TIED_CASES = [("cactus", 512), ("lbmhd", 512)]

_CELLS: dict = {}


def cell(app: str, nranks: int):
    """(link table, dense oracle matrix) of one synthesized cell, memoized."""
    if (app, nranks) not in _CELLS:
        batch = synthesize(app, nranks).batch
        _CELLS[app, nranks] = (
            reduce_matrix(batch, nranks),
            reduce_matrix_reference(records_of(batch), nranks),
        )
    return _CELLS[app, nranks]


def dense_summary_peers(dm: DenseMatrix) -> list[dict]:
    """The summary's ``top_peers`` computed on the dense oracle."""
    degrees = analyze_topology_dense(dm).degrees
    out = []
    for rank, _deg in sorted(enumerate(degrees), key=lambda kv: -int(kv[1]))[:5]:
        peers = dm.top_peers(rank, k=1)
        if peers:
            out.append({"rank": rank, "peer": peers[0][0], "bytes": peers[0][1]})
    return out


def assert_same_topology(links, dm, ks=(1, 2, 4, 8, 16)):
    got, want = analyze_topology(links, ks), analyze_topology_dense(dm, ks)
    assert np.array_equal(got.degrees, want.degrees)
    assert got.degrees.dtype == want.degrees.dtype
    assert got.degree_histogram == want.degree_histogram
    assert got.concentration == want.concentration
    assert got.to_dict() == want.to_dict()


def assert_same_static(links, dm, config, strategy):
    got = evaluate_hybrid(links, config, strategy=strategy)
    want = evaluate_hybrid_dense(dm, config, strategy=strategy)
    assert got.circuits == want.circuits
    assert got.circuit_bytes == want.circuit_bytes
    assert got.packet_bytes == want.packet_bytes
    assert got.fully_provisionable == want.fully_provisionable
    assert got.hybrid_time == want.hybrid_time
    assert got.packet_only_time == want.packet_only_time
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("app,nranks", CASES)
def test_reduce_matches_dense_oracle(app, nranks):
    links, dm = cell(app, nranks)
    key = links.key
    assert np.all(key[1:] > key[:-1]), "rows must be strictly pair-key sorted"
    assert np.all((links.bytes > 0) | (links.msgs > 0))
    got = dense_of(links)
    assert np.array_equal(got.bytes_matrix, dm.bytes_matrix)
    assert np.array_equal(got.msg_matrix, dm.msg_matrix)
    assert np.array_equal(got.time_matrix, dm.time_matrix)
    assert links.total_bytes == dm.total_bytes
    assert links.total_messages == dm.total_messages
    assert links.nonzero_links() == dm.nonzero_links()


@pytest.mark.parametrize("app,nranks", CASES)
def test_topology_matches_dense_oracle(app, nranks):
    links, dm = cell(app, nranks)
    assert_same_topology(links, dm, ks=(1, 2, 3, 4, 8, 16, nranks))


@pytest.mark.parametrize("strategy", ["greedy", "matching"])
@pytest.mark.parametrize("app,nranks", CASES)
def test_static_eval_matches_dense_oracle(app, nranks, strategy):
    links, dm = cell(app, nranks)
    for budget in (1, 4):
        assert_same_static(links, dm, InterconnectConfig(circuits_per_node=budget), strategy)


@pytest.mark.parametrize("app,nranks", CASES)
def test_summary_top_peers_match_dense_oracle(app, nranks, tmp_path):
    _, dm = cell(app, nranks)
    cache = ReproCache(tmp_path, readonly=True)
    summary = analyze_app(app, nranks, cache, Observability.disabled(), store=False)
    assert summary["top_peers"] == dense_summary_peers(dm)


@pytest.mark.parametrize("app,nranks", TIED_CASES)
def test_top_peers_with_tied_maximum_match_dense_oracle(app, nranks):
    """Every reported rank has several equally heavy peers, so the tie
    order of the volume-row argsort decides the answer."""
    links, dm = cell(app, nranks)
    degrees = analyze_topology(links).degrees
    ranks = np.argsort(-degrees, kind="stable")[:5].tolist()
    assert len(ranks) == 5
    for rank in ranks:
        volume = dm.bytes_matrix[rank, :] + dm.bytes_matrix[:, rank]
        assert np.count_nonzero(volume == volume.max()) > 1, f"rank {rank} has no tie"
        assert links.top_peers(rank) == dm.top_peers(rank)
        assert links.top_peers(rank, k=1) == dm.top_peers(rank, k=1)


def test_empty_batch():
    links = reduce_matrix(batch_of([]), 4)
    dm = reduce_matrix_reference([], 4)
    assert links.src.size == 0 and links.total_bytes == 0
    assert np.array_equal(dense_of(links).bytes_matrix, dm.bytes_matrix)
    assert_same_topology(links, dm)
    for strategy in ("greedy", "matching"):
        assert_same_static(links, dm, InterconnectConfig(), strategy)
    assert links.top_peers(0) == dm.top_peers(0) == []


def test_message_only_link():
    """A link with messages and no bytes is a row of the table: it owes
    packet latency but is nobody's topology partner."""
    n = 5
    bytes_m = np.zeros((n, n), dtype=np.int64)
    msg_m = np.zeros((n, n), dtype=np.int64)
    bytes_m[0, 1], msg_m[0, 1] = 1000, 2
    bytes_m[1, 0], msg_m[1, 0] = 400, 1
    msg_m[2, 3] = 50_000  # message-only
    links = table_of(bytes_m, msg_m)
    dm = DenseMatrix(n, bytes_m, msg_m)
    assert (2, 3) in set(zip(links.src.tolist(), links.dst.tolist()))
    assert links.nonzero_links() == dm.nonzero_links() == 2
    assert_same_topology(links, dm)
    assert analyze_topology(links).degrees.tolist() == [1, 1, 0, 0, 0]
    for strategy in ("greedy", "matching"):
        assert_same_static(links, dm, InterconnectConfig(circuits_per_node=1), strategy)
    # The message-only link's latency is the slowest node's packet time.
    ev = evaluate_hybrid(links, InterconnectConfig())
    assert ev.packet_only_time == 50_000 * InterconnectConfig().packet_latency
    temporal = evaluate_temporal(links, InterconnectConfig(timesteps=3))
    assert temporal.packet_only_time >= ev.packet_only_time


def test_random_matrices_with_self_loops_match_dense_oracle():
    """Off-pipeline tables may carry self-loop rows: they count toward
    packet traffic and link totals, never toward circuits or degree."""
    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(2, 20))
        bytes_m = rng.integers(0, 40, size=(n, n)) * (rng.random((n, n)) < 0.4)
        msg_m = (bytes_m > 0) * rng.integers(1, 4, size=(n, n))
        msg_m[rng.random((n, n)) < 0.05] += 3  # a few message-only links
        links = table_of(bytes_m, msg_m)
        dm = DenseMatrix(n, np.asarray(bytes_m, np.int64), np.asarray(msg_m, np.int64))
        assert_same_topology(links, dm)
        for strategy in ("greedy", "matching"):
            config = InterconnectConfig(circuits_per_node=int(rng.integers(0, 4)))
            assert_same_static(links, dm, config, strategy)
        for rank in range(n):
            assert links.top_peers(rank) == dm.top_peers(rank), f"trial {trial}"
