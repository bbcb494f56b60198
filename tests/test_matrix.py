import numpy as np

from hfast.matrix import reduce_matrix
from oracles import CommRecord, batch_of, dense_of


def test_send_side_attribution():
    recs = [CommRecord(0, "MPI_Isend", 100, 1, count=2)]
    links = reduce_matrix(batch_of(recs), 2)
    assert (links.src.tolist(), links.dst.tolist()) == ([0], [1])
    assert links.bytes.tolist() == [200]
    assert links.msgs.tolist() == [2]


def test_recv_records_fill_missing_sends_without_double_count():
    # Both sides of the same exchange recorded: volume counted once.
    recs = [
        CommRecord(0, "MPI_Isend", 100, 1, count=2),
        CommRecord(1, "MPI_Irecv", 100, 0, count=2),
        # Recv-only exchange: still lands in the matrix as (2 -> 1).
        CommRecord(1, "MPI_Irecv", 50, 2, count=1),
    ]
    links = reduce_matrix(batch_of(recs), 3)
    assert list(zip(links.src.tolist(), links.dst.tolist(), links.bytes.tolist())) == [
        (0, 1, 200),
        (2, 1, 50),
    ]
    assert links.total_bytes == 250


def test_non_ptp_and_self_records_ignored():
    recs = [
        CommRecord(0, "MPI_Allreduce", 8, 0, count=5),
        CommRecord(0, "MPI_Wait", 0, 0, count=5),
        CommRecord(1, "MPI_Isend", 64, 1, count=5),  # self-send
    ]
    links = reduce_matrix(batch_of(recs), 2)
    assert links.src.size == 0
    assert links.total_bytes == 0
    assert links.total_messages == 0


def test_top_links_and_peers():
    recs = [
        CommRecord(0, "MPI_Isend", 1000, 1),
        CommRecord(0, "MPI_Isend", 10, 2),
        CommRecord(2, "MPI_Isend", 500, 0),
    ]
    links = reduce_matrix(batch_of(recs), 3)
    assert dense_of(links).top_links(2) == [(0, 1, 1000), (2, 0, 500)]
    # rank 0's heaviest partner by total (send+recv) volume is rank 1
    assert links.top_peers(0, k=1) == [(1, 1000)]
    assert links.top_peers(0) == [(1, 1000), (2, 510)]


def test_matrix_dtype_and_shape():
    links = reduce_matrix(batch_of([]), 4)
    for col in (links.src, links.dst, links.bytes, links.msgs):
        assert col.shape == (0,) and col.dtype == np.int64
    assert links.time.dtype == np.float64
    assert links.total_bytes == 0
    assert links.top_peers(0) == []
    assert dense_of(links).bytes_matrix.shape == (4, 4)
    assert dense_of(links).top_links() == []
