"""Property-based invariant tests for the trace synthesizers.

Seeded stdlib ``random`` drives (nranks, overrides) sampling — no new
dependencies — and every sampled case must uphold the structural
invariants the paper's analysis relies on:

- the production generators and the per-record reference generators in
  ``oracles.py`` serialize to byte-identical cache documents (timing
  fields included);
- every byte sent is received (send/recv matrix agreement);
- symmetric apps (cactus, lbmhd, paratec) produce symmetric matrices;
- topology degree never exceeds nranks - 1;
- top-k traffic concentration is monotone in k and reaches 1.0;
- synthesized LogGP times are strictly positive and monotone
  nondecreasing in message size at a fixed (rank, peer, call).
"""

import json
import random

import numpy as np
import pytest

from hfast.apps import available_apps, synthesize
from hfast.cache import validate_document
from hfast.matrix import reduce_matrix
from hfast.records import Trace
from hfast.topology import analyze_topology
from oracles import dense_of, records_of, reduce_matrix_reference, synthesize_reference

SYMMETRIC_APPS = ("cactus", "lbmhd", "paratec")  # gtc shifts particles one way

OVERRIDE_KNOBS = {
    "cactus": ("steps", "ghost_bytes"),
    "gtc": ("steps", "particle_bytes"),
    "lbmhd": ("steps", "lattice_bytes"),
    "paratec": ("fft_cycles", "grid_bytes"),
}


def sample_cases(app: str, n_cases: int = 8) -> list[tuple[int, dict]]:
    rng = random.Random(f"hfast-{app}")
    cases = []
    for _ in range(n_cases):
        nranks = rng.choice([1, 2, 3, 4, 5, 8, 12, 16, 24, 27, 32, 48, 64])
        overrides = {}
        steps_key, bytes_key = OVERRIDE_KNOBS[app]
        if rng.random() < 0.6:
            overrides[steps_key] = rng.randint(1, 20)
        if rng.random() < 0.4:
            overrides[bytes_key] = rng.choice([64, 4096, 65536, 300000])
        cases.append((nranks, overrides))
    return cases


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_vector_scalar_documents_identical(app):
    for nranks, overrides in sample_cases(app):
        vec = synthesize(app, nranks, dict(overrides))
        sca = synthesize_reference(app, nranks, dict(overrides))
        assert json.dumps(vec.to_document()) == json.dumps(sca.to_document()), (
            f"reference divergence for {app} p{nranks} {overrides}"
        )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_byte_and_message_conservation(app):
    """Send-derived and recv-derived matrices agree pairwise."""
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        sends, recvs = {}, {}
        for r in records_of(trace.batch):
            if r.size <= 0:
                continue
            if r.is_send:
                sends[(r.rank, r.peer)] = sends.get((r.rank, r.peer), 0) + r.bytes_moved
            elif r.is_recv:
                recvs[(r.peer, r.rank)] = recvs.get((r.peer, r.rank), 0) + r.bytes_moved
        assert sends == recvs, f"conservation violated for {app} p{nranks} {overrides}"
        # Call counts balance too: one receive posted per send.
        totals = trace.call_totals
        assert totals.get("MPI_Isend", 0) == totals.get("MPI_Irecv", 0)


@pytest.mark.parametrize("app", SYMMETRIC_APPS)
def test_symmetric_apps_yield_symmetric_matrices(app):
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        dm = dense_of(reduce_matrix(trace.batch, nranks))
        assert np.array_equal(dm.bytes_matrix, dm.bytes_matrix.T), (
            f"asymmetric matrix for {app} p{nranks} {overrides}"
        )
        assert np.array_equal(dm.msg_matrix, dm.msg_matrix.T)


def assert_equal_planes(a, b, label):
    assert np.array_equal(a.bytes_matrix, b.bytes_matrix), f"bytes plane diverges for {label}"
    assert np.array_equal(a.msg_matrix, b.msg_matrix), f"msg plane diverges for {label}"
    assert np.array_equal(a.time_matrix, b.time_matrix), f"time plane diverges for {label}"


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_record_list_and_batch_reduce_to_equal_planes(app):
    """Production reduce_matrix over a batch equals the per-record reference loop."""
    for nranks, overrides in sample_cases(app, n_cases=4):
        trace = synthesize(app, nranks, dict(overrides))
        assert_equal_planes(
            dense_of(reduce_matrix(trace.batch, nranks)),
            reduce_matrix_reference(records_of(trace.batch), nranks),
            f"{app} p{nranks} {overrides}",
        )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_synthesized_and_roundtripped_batches_reduce_to_equal_planes(app):
    """A batch loaded back from its cache document reduces bit-identically.

    Warm cells reduce the int64 columns ``RecordBatch.from_rows`` builds;
    cold cells reduce the synthesizer's narrower ones.
    """
    for nranks, overrides in sample_cases(app, n_cases=4):
        trace = synthesize(app, nranks, dict(overrides))
        doc = json.loads(json.dumps(trace.to_document()))
        validate_document(doc)
        loaded = Trace.from_document(doc)
        assert_equal_planes(
            dense_of(reduce_matrix(trace.batch, nranks)),
            dense_of(reduce_matrix(loaded.batch, nranks)),
            f"{app} p{nranks} {overrides}",
        )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_topology_degree_bounded(app):
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        topo = analyze_topology(reduce_matrix(trace.batch, nranks))
        assert topo.max_degree <= max(0, nranks - 1), (
            f"degree {topo.max_degree} exceeds bound for {app} p{nranks}"
        )
        assert all(0 <= d <= nranks - 1 for d in topo.degrees.tolist()) or nranks == 1


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_concentration_monotone_and_complete(app):
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        links = reduce_matrix(trace.batch, nranks)
        # Include a k that covers every possible partner so the fractions
        # must account for all traffic.
        ks = (1, 2, 4, 8, 16, max(1, nranks))
        conc = analyze_topology(links, ks=ks).concentration
        values = [conc[k] for k in ks]
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), (
            f"concentration not monotone for {app} p{nranks}: {values}"
        )
        if links.total_bytes > 0:
            assert values[-1] == pytest.approx(1.0), (
                f"top-{ks[-1]} concentration should capture all traffic"
            )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_times_positive_and_bounded(app):
    """Every sampled case synthesizes strictly positive, finite times."""
    for nranks, overrides in sample_cases(app):
        trace = synthesize(app, nranks, dict(overrides))
        b = trace.ensure_batch()
        assert b.has_times, f"untimed batch for {app} p{nranks}"
        for col in (b.total_time, b.min_time, b.max_time):
            assert np.all(np.isfinite(col)) and np.all(col > 0.0), (
                f"non-positive time for {app} p{nranks} {overrides}"
            )
        assert np.all(b.min_time <= b.max_time)


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_times_monotone_in_size_per_stream(app):
    """Within one (rank, peer, call) stream, mean time tracks message size."""
    for nranks, overrides in sample_cases(app, n_cases=4):
        trace = synthesize(app, nranks, dict(overrides))
        streams: dict[tuple, list[tuple[int, float]]] = {}
        for r in records_of(trace.batch):
            if r.count > 0:
                streams.setdefault((r.rank, r.peer, r.call), []).append(
                    (r.size, r.total_time / r.count)
                )
        for key, pairs in streams.items():
            pairs.sort()
            means = [m for _, m in pairs]
            assert means == sorted(means), (
                f"time not monotone in size for {app} p{nranks} stream {key}"
            )


@pytest.mark.parametrize("app", ["cactus", "gtc", "lbmhd", "paratec"])
def test_backend_timing_identity(app):
    """Production and reference generators get bit-identical timing columns."""
    for nranks, overrides in sample_cases(app, n_cases=4):
        vec = synthesize(app, nranks, dict(overrides)).ensure_batch()
        sca = synthesize_reference(app, nranks, dict(overrides)).ensure_batch()
        assert np.array_equal(vec.total_time, sca.total_time)
        assert np.array_equal(vec.min_time, sca.min_time)
        assert np.array_equal(vec.max_time, sca.max_time)


def test_sampling_is_deterministic():
    """The property suite must not flake: same seed, same cases."""
    for app in available_apps():
        assert sample_cases(app) == sample_cases(app)
