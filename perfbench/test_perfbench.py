"""Tests of the benchmark itself: self-time arithmetic, seeds, tracing invariance.

Run from the checkout root with kryrank importable:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

from kryrank import dirk, experiments, krylov, linalg, lowrank
from kryrank.config import validate_config
from layers import PER_LAYER, Patches, Tracer, self_times
from run import run_rep
from workloads import JITTER, WORKLOADS, make_config, planned_ops, write_config

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 9.5, 9.75, 0],
        ["other", 11.0, 12.0, -1],
    ]
    own = self_times(spans)
    assert own == {"root": 2.75, "a": 2.25, "leaf": 1.0, "b": 4.0, "other": 1.0}
    assert sum(own.values()) == 10.0 + 1.0


def test_tracer_spans_callees_and_restores_bindings():
    tracer = Tracer()
    patches = Patches()
    original = {m: m.mgs_qr for m in (linalg, lowrank, krylov)}
    tracer.install(patches)
    try:
        assert krylov.mgs_qr is not original[krylov]
        rng = np.random.default_rng(0)
        f = lowrank.LowRankFactors(
            rng.standard_normal((20, 3)), np.eye(3), rng.standard_normal((20, 3))
        )
        lowrank.truncate(f, 0.0)
    finally:
        patches.restore()
    assert all(m.mgs_qr is fn for m, fn in original.items())
    assert experiments.dirk_step is dirk.dirk_step
    # lowrank.truncate is not itself rebound in lowrank, so only its callees
    # (two QRs and one SVD through lowrank's bindings) are spans, all roots
    names = [s[0] for s in tracer.spans]
    assert names == ["linalg.mgs_qr", "linalg.mgs_qr", "linalg.reduced_svd"]
    assert all(s[3] == -1 and s[2] >= s[1] for s in tracer.spans)


def test_seed_zero_reproduces_the_default_configs():
    for name in WORKLOADS:
        doc = make_config(name, 0)
        plain = {k: v for k, v in doc.items() if k not in ("diffusion", "species")}
        assert validate_config(doc) == validate_config(plain)
    heat = make_config("heat-dirk2-n512", 0)
    assert heat["grid"]["n"] == 512 and heat["time"]["lambda"] == [400.0]
    assert planned_ops(heat, "run") == 66
    assert planned_ops(make_config("lbfp-be-n8000", 0), "run") == 50
    assert planned_ops(make_config("heat-compare-n256", 0), "compare") == 1


def test_seeds_jitter_within_the_stated_amount():
    for name in WORKLOADS:
        assert make_config(name, 7) == make_config(name, 7)
        assert make_config(name, 7) != make_config(name, 8)
    base = make_config("lbfp-be-n8000", 0)["species"]
    for seed in range(1, 20):
        heat = make_config("heat-compare-n256", seed)
        assert all(abs(d / 0.5 - 1.0) <= JITTER for d in heat["diffusion"])
        for sp, sp0 in zip(make_config("lbfp-be-n8000", seed)["species"], base):
            assert abs(sp["temperature"] / sp0["temperature"] - 1.0) <= JITTER
            for d, d0 in zip(sp["drift"], sp0["drift"]):
                assert abs(d / d0 - 1.0) <= JITTER


def _small(name):
    doc = make_config(name, 3)
    if doc["kind"] == "heat-convergence":
        doc["grid"] = {"n": 48}
        doc["time"] = {"t_final": 0.002, "lambda": [1.0]}
    else:
        doc["grid"] = {"n": 64}
        doc["time"] = {"t_final": 0.3, "dt": 0.1}
    return doc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_counter_or_output(tmp_path, name):
    doc = _small(name)
    path = tmp_path / "cfg.yaml"
    write_config(doc, path)
    plain = run_rep(WORKLOADS[name], doc, path, tmp_path / "plain", traced=False)
    traced = run_rep(WORKLOADS[name], doc, path, tmp_path / "traced", traced=True)
    # the small grids miss the n=512/n=256 error bounds; only sameness matters
    assert plain.code == traced.code == 0 and plain.samples
    assert plain.hashes and plain.hashes == traced.hashes
    assert plain.checks == traced.checks and plain.failed == traced.failed
    assert plain.steps == traced.steps
    layers = traced.layers
    assert set(layers) == {name for name, _, _ in PER_LAYER}
    assert 0.0 <= layers["trace.unattributed_share"] < 0.5
    if doc["kind"] == "heat-convergence":
        assert layers["krylov.rounds"] == sum(r for r, _ in plain.steps)
        assert layers["dirk.dirk_step.calls"] == len(plain.steps)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
