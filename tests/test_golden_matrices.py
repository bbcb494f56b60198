"""Golden communication-matrix fixtures.

Tiny-scale (8/16-rank) matrices for every app are committed under
``tests/golden/``; these tests pin the paper-facing numbers so a
synthesizer refactor (vectorization, dtype changes, regrouping) cannot
silently change them. Regenerate intentionally with::

    PYTHONPATH=src python scripts/gen_golden.py

The full ``analyze_app`` summary of each golden cell is pinned too, by
sha256 digest: it holds every paper-facing answer (coverage, speedup,
reconfigurations, %comm) and the interconnect config echo.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hfast.apps import available_apps, synthesize
from hfast.cache import ReproCache, validate_document
from hfast.matrix import reduce_matrix
from hfast.obs.profile import Observability
from hfast.pipeline import analyze_app
from hfast.records import Trace
from hfast.timing import apply_timing
from hfast.topology import analyze_topology
from oracles import dense_of, records_of, reduce_matrix_reference, synthesize_reference

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = [(app, n) for app in ("cactus", "gtc", "lbmhd", "paratec") for n in (8, 16)]


def load_fixture(app: str, nranks: int) -> dict:
    path = GOLDEN_DIR / f"{app}_p{nranks}.json"
    assert path.exists(), f"missing golden fixture {path}; run scripts/gen_golden.py"
    return json.loads(path.read_text())


def test_fixture_set_is_complete():
    assert {(a, n) for a, n in CASES} <= {
        (f["app"], f["nranks"])
        for f in (json.loads(p.read_text()) for p in GOLDEN_DIR.glob("*.json"))
    }
    assert set(available_apps()) == {"cactus", "gtc", "lbmhd", "paratec"}


@pytest.mark.parametrize("app,nranks", CASES)
def test_matrix_matches_golden(app, nranks):
    golden = load_fixture(app, nranks)
    trace = synthesize(app, nranks)
    links = reduce_matrix(trace.batch, nranks)
    dm = dense_of(links)
    assert dm.bytes_matrix.tolist() == golden["bytes_matrix"]
    assert dm.msg_matrix.tolist() == golden["msg_matrix"]
    assert links.total_bytes == golden["total_bytes"]
    assert links.total_messages == golden["total_messages"]
    assert trace.call_totals == golden["call_totals"]
    assert analyze_topology(links).max_degree == golden["max_degree"]


@pytest.mark.parametrize("app,nranks", CASES)
def test_scalar_backend_matches_golden(app, nranks):
    """The per-record reference generator and reduce loop must agree with the
    committed numbers."""
    golden = load_fixture(app, nranks)
    trace = synthesize_reference(app, nranks)
    cm = reduce_matrix_reference(records_of(trace.batch), nranks)
    assert cm.bytes_matrix.tolist() == golden["bytes_matrix"]
    assert cm.total_bytes == golden["total_bytes"]
    assert trace.call_totals == golden["call_totals"]


# sha256 of json.dumps(analyze_app(...), sort_keys=True) at the default
# config and timing seed. Cold (synthesized) and warm (loaded back from
# the cache document) cells must both match.
SUMMARY_DIGESTS = {
    "cactus_p8": "d68a7b7021892573e853ed54b1f28b3ba1bda5e6d649ac266ad211c33883af6b",
    "cactus_p16": "55c87d75291c8a4b604f13cd2b79cc0d728168c8a7d833157ed6260917b07412",
    "gtc_p8": "9857e78c13e9cad9b80d0c5a146396ac6933f36b22adb959e95389cc1850daff",
    "gtc_p16": "89544fb398fb362d5e32237a286c84ee1f5cdbb1fafa987571479d64f6df8fa9",
    "lbmhd_p8": "442592e40ef2b1c8a9606a0fc3bca56733392d2fe8642f57142728d02f4983d3",
    "lbmhd_p16": "979b5bc1eac53b327f68798890355e4b8ef1730190ab5332b77be2bf2c8ddb65",
    "paratec_p8": "8d699456aadd65bb7dec60da7758c949c91f11e159591628c3e3f7e1438a6863",
    "paratec_p16": "2b4272160586794489825e08c183ccb2f773bd88dfec766236b5525da89bc702",
}


@pytest.mark.parametrize("app,nranks", CASES)
def test_summary_digest_pinned(app, nranks, tmp_path):
    def digest(summary: dict) -> str:
        return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()

    cache = ReproCache(tmp_path / "cold", readonly=True)
    summary = analyze_app(app, nranks, cache, Observability.disabled(), store=False)
    assert summary["interconnect"]["config"]["matcher"] == "vector"
    assert digest(summary) == SUMMARY_DIGESTS[f"{app}_p{nranks}"]

    # warm: store the cell, then answer it again from the loaded document
    cache = ReproCache(tmp_path / "warm")
    analyze_app(app, nranks, cache, Observability.disabled(), store=True)
    warm = analyze_app(app, nranks, cache, Observability.disabled(), store=True)
    assert (cache.stats.stores, cache.stats.hits) == (1, 1)
    assert digest(warm) == SUMMARY_DIGESTS[f"{app}_p{nranks}"]


@pytest.mark.parametrize("app,nranks", CASES)
def test_timing_matches_golden(app, nranks):
    """The LogGP model at the pinned seed reproduces the committed comm time."""
    golden = load_fixture(app, nranks)
    trace = synthesize(app, nranks, timing_seed=golden["timing_seed"])
    batch = trace.ensure_batch()
    assert batch.has_times
    assert float(np.sum(batch.total_time)) == golden["comm_time_s"]
    assert golden["comm_time_s"] > 0.0
    assert 0.0 < golden["pct_comm"] < 100.0


@pytest.mark.parametrize("app,nranks", CASES)
def test_format2_shim_roundtrips_to_format3(app, nranks):
    """A legacy format-2 document re-times to the exact format-3 bytes.

    Downgrading a format-3 document (strip the timing descriptor, zero the
    per-record times) and loading it through the read shim must reproduce
    the original format-3 serialization byte for byte — the guarantee that
    keeps the committed format-2 seed corpus equivalent to fresh caches.
    """
    trace = synthesize(app, nranks)
    doc3 = trace.to_document()
    validate_document(doc3)
    assert doc3["format"] == 3

    legacy = json.loads(json.dumps(doc3))
    legacy["format"] = 2
    del legacy["metadata"]["timing"]
    for rec in legacy["records"]:
        rec["total_time"] = rec["min_time"] = rec["max_time"] = 0.0
    validate_document(legacy)

    loaded = Trace.from_document(legacy)
    assert loaded.timing is None
    apply_timing(loaded, seed=doc3["metadata"]["timing"]["seed"])
    assert json.dumps(loaded.to_document(), sort_keys=True) == json.dumps(
        doc3, sort_keys=True
    )
