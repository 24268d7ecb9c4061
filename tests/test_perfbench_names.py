"""The traced benchmark reaches the package by name: every ``LAYERS`` entry
of ``perfbench/spans.py`` must resolve against ``hamforge`` and
``perfbench/workloads.py`` must import, or a traced run breaks although the
package's own tests pass."""

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = _load("spans")
    for module, attr, _observe in spans.LAYERS:
        _owner, _key, original = spans._resolve(
            importlib.import_module(f"hamforge.{module}"), attr)
        assert callable(original), (module, attr)


def test_workloads_import_and_their_calls_bind():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"census", "tutte", "lemmas", "sampled"}
    from hamforge import corpus, indset, replay, tutte, verification

    calls = [
        (corpus.random_triangulation, (14, 1, corpus.CorpusFilter(min_connectivity=4)), {}),
        (indset.ham_family_from_edge_families, (None, None), {"cap": 64}),
        (replay.theorem1_family, (None,), {"budget": 10}),
        (replay.lemma_2edge_family, (None, None, None), {"budget": 10}),
        (tutte.ham_cycle_through_triangle_edges, (None, None, None, None), {}),
    ]
    for func, args, kwargs in calls:
        inspect.signature(func).bind(*args, **kwargs)
    for name in workloads.LEMMA_SUITES + ("conjecture", "tutte"):
        assert name in verification.SUITE_RUNNERS
