"""Self time on synthetic spans, and the stand-ins installed into hamforge."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import spans  # noqa: E402


def _tracer():
    now = [0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def work(ns):
        now[0] += ns
    return tracer, work


def test_recursive_spans_count_each_level_once():
    tracer, work = _tracer()

    def special_set():
        work(5)

    def theorem1_family(depth):
        work(10)
        if depth:
            traced_family(depth - 1)
        traced_set()
        work(1)

    traced_set = tracer.wrap("indset.special_set", special_set)
    traced_family = tracer.wrap("replay.theorem1_family", theorem1_family)
    traced_family(2)

    selfs = spans.self_by_name(tracer)
    assert selfs == {"indset.special_set": 15, "replay.theorem1_family": 33}
    assert tracer.calls == [3, 3]
    # the three levels nest: each family span is the parent of the next
    family = [s for s in range(len(tracer.start)) if tracer.names[tracer.name[s]].startswith("replay")]
    assert [tracer.parent[s] for s in family] == [-1, family[0], family[1]]
    assert tracer.end[family[0]] - tracer.start[family[0]] == 48


def test_mutual_recursion_and_nesting():
    tracer, work = _tracer()

    def uv(depth):
        work(2)
        if depth:
            traced_uw(depth - 1)
        work(3)

    def uw(depth):
        work(7)
        if depth:
            traced_uv(depth - 1)

    traced_uv = tracer.wrap("tutte.two_ham_paths_uv", uv)
    traced_uw = tracer.wrap("tutte.two_ham_paths_uw", uw)
    traced_uv(3)            # uv -> uw -> uv -> uw
    assert spans.self_by_name(tracer) == {"tutte.two_ham_paths_uv": 10,
                                          "tutte.two_ham_paths_uw": 14}


def test_children_are_covered_once_and_clipped_to_the_parent():
    tracer, _work = _tracer()
    idx = tracer.intern("parent")
    kid = tracer.intern("child")
    for name, start, end, parent in ((idx, 0, 100, -1), (kid, 10, 40, 0),
                                     (kid, 30, 60, 0), (kid, 90, 120, 0)):
        tracer.name.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
    assert tracer.self_times() == [40, 30, 30, 30]


def test_generator_spans_cover_only_its_resumptions():
    tracer, work = _tracer()

    def count_ham_paths():
        work(4)

    def suite():
        for i in range(2):
            work(1)
            traced_inner()
            yield i
        work(2)

    traced_inner = tracer.wrap("ham_enum.count_ham_paths", count_ham_paths)
    traced_suite = tracer.wrap("verification.suite_tutte", suite)
    out = []
    for row in traced_suite():
        work(100)           # the consumer's time is nobody's span
        out.append(row)
    assert out == [0, 1]
    assert spans.self_by_name(tracer) == {"ham_enum.count_ham_paths": 8,
                                          "verification.suite_tutte": 4}
    assert tracer.calls[tracer.names.index("verification.suite_tutte")] == 1


def test_tail_index_keeps_ten_samples_beyond():
    assert spans.tail_index(921) == 910
    assert spans.tail_index(11) == 0
    assert spans.tail_index(5) == 4


def test_install_rebinds_every_importer_and_uninstall_restores():
    import hamforge
    from hamforge import plane_graph, verification
    from hamforge.corpus import double_wheel

    originals = (verification.graph_id, verification.canonical_code,
                 hamforge.canonical_code, verification.SUITE_RUNNERS["tutte"],
                 plane_graph.PlaneGraph.__init__)
    g = double_wheel(8)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert verification.canonical_code is hamforge.canonical_code is \
            plane_graph.canonical_code is not originals[1]
        assert verification.SUITE_RUNNERS["tutte"] is verification.suite_tutte
        verification.graph_id(g)
    finally:
        spans.uninstall(undo)
    assert (verification.graph_id, verification.canonical_code,
            hamforge.canonical_code, verification.SUITE_RUNNERS["tutte"],
            plane_graph.PlaneGraph.__init__) == originals
    names = [tracer.names[tracer.name[s]] for s in range(len(tracer.start))]
    assert names[:2] == ["verification.graph_id", "plane_graph.canonical_code"]
    assert tracer.parent[1] == 0
    metrics = spans.layer_metrics(tracer)
    assert {name for name, _unit, _better in spans.metric_specs()} - set(metrics) \
        == {"trace.overhead_s"}
