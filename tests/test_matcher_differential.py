"""Differential identity: the production matcher vs the reference matcher.

The repo's byte-identity discipline applied to the matcher: the
production columnar matcher (:mod:`hfast.matcher`) and the pure-Python
reference in ``oracles.py`` must produce identical circuit assignments
and identical evaluator outputs on every golden fixture, every
synthesized app, and seeded random matrices. The evaluators are run
once as shipped and once with the reference matcher and greedy baseline
patched into :mod:`hfast.interconnect`.
"""

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from hfast import interconnect
from hfast.apps import synthesize
from hfast.interconnect import InterconnectConfig, evaluate_hybrid, evaluate_temporal
from hfast.matrix import LinkTable, reduce_matrix
from oracles import greedy_seed_scalar, match_edges_reference, table_of

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = [(app, n) for app in ("cactus", "gtc", "lbmhd", "paratec") for n in (8, 16)]
APPS = ("cactus", "gtc", "lbmhd", "paratec")
IMPLEMENTATIONS = ("production", "reference")


@contextlib.contextmanager
def implementation(name):
    """Run the evaluators on the production or the reference matcher."""
    with pytest.MonkeyPatch.context() as mp:
        if name == "reference":
            mp.setattr(interconnect, "match_edges", match_edges_reference)
            mp.setattr(interconnect, "greedy_seed_vector", greedy_seed_scalar)
        yield


def golden_matrix(app: str, nranks: int) -> LinkTable:
    fixture = json.loads((GOLDEN_DIR / f"{app}_p{nranks}.json").read_text())
    return table_of(fixture["bytes_matrix"], fixture["msg_matrix"])


def hybrid_docs(cm, budget=4):
    docs = []
    for name in IMPLEMENTATIONS:
        with implementation(name):
            ev = evaluate_hybrid(
                cm, InterconnectConfig(circuits_per_node=budget), strategy="matching"
            )
        docs.append(json.dumps(ev.to_dict(), sort_keys=True))
    return docs


def temporal_docs(cm, timesteps=4, reconfig_cost=1e-3):
    docs = []
    for name in IMPLEMENTATIONS:
        with implementation(name):
            ev = evaluate_temporal(
                cm, InterconnectConfig(timesteps=timesteps, reconfig_cost=reconfig_cost)
            )
        docs.append(json.dumps(ev.to_dict(), sort_keys=True))
    return docs


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
@pytest.mark.parametrize("budget", [1, 2, 4])
def test_assignment_identity_on_goldens(app, nranks, budget):
    cm = golden_matrix(app, nranks)
    outs = []
    for name in IMPLEMENTATIONS:
        with implementation(name):
            config = InterconnectConfig(circuits_per_node=budget)
            outs.append(evaluate_hybrid(cm, config, strategy="matching").circuits)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_hybrid_evaluation_identity_on_goldens(app, nranks):
    prod, ref = hybrid_docs(golden_matrix(app, nranks))
    assert prod == ref


@pytest.mark.parametrize("app,nranks", GOLDEN_CASES)
def test_temporal_evaluation_identity_on_goldens(app, nranks):
    prod, ref = temporal_docs(golden_matrix(app, nranks))
    assert prod == ref


@pytest.mark.parametrize("app", APPS)
def test_identity_on_synthesized_apps(app):
    """Beyond the goldens: freshly synthesized traces at a scale the
    fixtures don't pin."""
    cm = reduce_matrix(synthesize(app, 32).batch, 32)
    prod, ref = hybrid_docs(cm)
    assert prod == ref
    prod, ref = temporal_docs(cm)
    assert prod == ref


def test_identity_on_seeded_random_matrices():
    rng = np.random.default_rng(41)
    for trial in range(15):
        n = int(rng.integers(3, 24))
        density = float(rng.uniform(0.1, 1.0))
        max_w = int(rng.integers(2, 60))
        bytes_m = (
            rng.integers(0, max_w, size=(n, n)) * (rng.random((n, n)) < density)
        ).astype(np.int64)
        msg_m = (bytes_m > 0).astype(np.int64) * rng.integers(1, 5, size=(n, n))
        cm = table_of(bytes_m, msg_m)
        T = int(rng.integers(1, 6))
        cost = float(rng.choice([0.0, 1e-4, 1e-3]))
        budget = int(rng.integers(1, 5))
        prod, ref = temporal_docs(cm, timesteps=T, reconfig_cost=cost)
        assert prod == ref, f"trial {trial}"
        prod, ref = hybrid_docs(cm, budget=budget)
        assert prod == ref, f"trial {trial}"


def test_identity_on_tie_heavy_matrices():
    """Uniform weights maximize tie-breaking pressure — the regime where
    order equivalence is most fragile."""
    for n in (5, 8, 13):
        w = np.full((n, n), 7, dtype=np.int64)
        np.fill_diagonal(w, 0)
        cm = table_of(w, (w > 0).astype(np.int64))
        prod, ref = hybrid_docs(cm)
        assert prod == ref
        prod, ref = temporal_docs(cm)
        assert prod == ref


def test_temporal_reduces_to_static_matching_for_all_backends():
    """T=1 + zero reconfig cost must reproduce the static matching
    evaluation exactly, on the production and the reference matcher."""
    config = InterconnectConfig(timesteps=1, reconfig_cost=0.0)
    for app, nranks in GOLDEN_CASES:
        cm = golden_matrix(app, nranks)
        for name in IMPLEMENTATIONS:
            with implementation(name):
                temporal = evaluate_temporal(cm, config)
                static = evaluate_hybrid(cm, config, strategy="matching")
            assert temporal.circuit_bytes == static.circuit_bytes
            assert temporal.hybrid_time == static.hybrid_time
            assert temporal.packet_only_time == static.packet_only_time


def test_pipeline_results_identical_across_backends(tmp_path):
    """End-to-end: full pipeline summaries are identical on the
    production and the reference matcher."""
    from hfast.pipeline import run_pipeline

    docs = []
    for name in IMPLEMENTATIONS:
        with implementation(name):
            out = run_pipeline(
                apps=["gtc", "cactus"],
                scales={"gtc": [16], "cactus": [16]},
                cache_dir=str(tmp_path / "cache"),
                store=False,
                bench_dir=None,
            )
        docs.append(json.dumps(out["results"], sort_keys=True))
    assert docs[0] == docs[1]
