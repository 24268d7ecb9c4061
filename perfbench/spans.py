"""Spans around calls into hamforge's public functions, recorded from outside
the package, and the per-layer metrics derived from them.

A span is one contiguous interval spent inside a traced function: a plain
call gives one span, a generator gives one span per resumption.  Each span
keeps its name, start, end, the span that was open when it began (its
parent) and the id of the op (report row) being produced.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from array import array

# (module, attribute, observe).  ``attribute`` is a function, a class (its
# constructor) or ``Class.method``.  ``observe`` maps a call's result to a
# number summed per function.
LAYERS = (
    ("corpus", "split_vertex", None),
    ("corpus", "enumerate_triangulations", None),
    ("corpus", "random_triangulation", None),
    ("corpus", "flip_edge", None),
    ("corpus", "flippable_edges", None),
    ("corpus", "CorpusFilter.matches", None),
    ("plane_graph", "plane_graph_from_faces", None),
    ("plane_graph", "PlaneGraph", None),
    ("plane_graph", "canonical_code", None),
    ("plane_graph", "is_k_connected", None),
    ("plane_graph", "bridges", None),
    ("plane_graph", "PlaneGraph.delete_vertices", None),
    # calls that found no path
    ("ham_enum", "enumerate_ham_paths", lambda found: int(not found)),
    # cycles counted
    ("ham_enum", "count_ham_cycles", lambda count: count),
    ("ham_enum", "count_ham_paths", None),
    ("ham_enum", "enumerate_ham_cycles_raw", None),
    ("structures", "separating_cycles", None),
    ("structures", "enumerate_cycles", None),
    ("structures", "find_diamonds", None),
    ("indset", "special_set", None),
    ("indset", "four_color", None),
    ("indset", "ham_family_from_edge_families", None),
    # certificates from the lexicographic fallback (no Hamiltonian path)
    ("tutte", "tutte_path", lambda cert: int(not cert.is_hamiltonian)),
    ("tutte", "verify_tutte", None),
    ("tutte", "two_ham_paths_uw", None),
    ("tutte", "two_ham_paths_uv", None),
    ("tutte", "ham_cycle_through_triangle_edges", None),
    ("tutte", "diamond_region_paths", None),
    ("replay", "theorem1_family", None),
    ("replay", "lemma_2edge_family", None),
    ("replay", "nested_chain", None),
    ("replay", "theorem2_tree", None),
    ("verification", "square_boundary_regions", None),
    ("verification", "graph_id", None),
    ("verification", "suite_conjecture", None),
    ("verification", "suite_tutte", None),
    ("verification", "suite_lemma_uwpath", None),
    ("verification", "suite_lemma_uvpath", None),
    ("verification", "suite_lemma_4edges", None),
    ("verification", "suite_lemma_2edge", None),
    ("verification", "suite_theorem1", None),
    ("verification", "suite_theorem2", None),
    ("verification", "suite_lemma_diamond4", None),
)

# metrics derived from more than one function: name -> (unit, better)
DERIVED = {
    "corpus.distinct_per_split": ("ratio", "higher"),
    "corpus.random_triangulation.failed": ("count", "lower"),
    "corpus.random_accept_ratio": ("ratio", "higher"),
    "ham_enum.enumerate_ham_paths.empty_ratio": ("ratio", "lower"),
    "ham_enum.cycles_per_s": ("1/s", "higher"),
    "tutte.tutte_path.p50_ms": ("ms", "lower"),
    "tutte.tutte_path.tail_ms": ("ms", "lower"),
    "tutte.tutte_path.fallback_ratio": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, attr, _observe in LAYERS:
        out.append((f"{module}.{attr}.calls", "count", "lower"))
        out.append((f"{module}.{attr}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in DERIVED.items())
    return out


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile that still has
    at least ten samples beyond it (the maximum when there are fewer)."""
    return n - 11 if n > 10 else n - 1


class Tracer:
    """In-memory span store.  ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.observed: list[float] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = 0

    def intern(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.raised.append(0)
        self.observed.append(0)
        return len(self.names) - 1

    def enter(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def leave(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """A stand-in for ``fn`` that records its spans under ``name``."""
        idx = self.intern(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[idx] += 1
                return self._segments(idx, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[idx] += 1
            sid = self.enter(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[idx] += 1
                raise
            finally:
                self.leave(sid)
            if observe is not None:
                self.observed[idx] += observe(result)
            return result
        return traced

    def _segments(self, idx: int, gen):
        while True:
            sid = self.enter(idx)
            try:
                item = next(gen)
            except StopIteration:
                return
            except Exception:
                self.raised[idx] += 1
                raise
            finally:
                self.leave(sid)
            yield item

    def self_times(self) -> list[int]:
        """Per span: its duration minus the part of it covered by its
        children.  Spans must be in start order, as ``enter`` records them."""
        start, end, parent = self.start, self.end, self.parent
        covered = [0] * len(start)
        reach = list(start)        # end of the children's union so far
        for sid in range(len(start)):
            p = parent[sid]
            if p < 0:
                continue
            lo = max(start[sid], reach[p])
            hi = min(end[sid], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        return [end[s] - start[s] - covered[s] for s in range(len(start))]

    def write(self, path) -> None:
        """Spans as gzipped TSV: name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{names[self.name[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.parent[sid]}\t{self.op[sid]}\n")


def _resolve(module, attr):
    """(owner, attribute name, original) for one LAYERS entry."""
    head, _, method = attr.partition(".")
    obj = getattr(module, head)
    if method:
        return obj, method, obj.__dict__[method]
    if inspect.isclass(obj):
        return obj, "__init__", obj.__dict__["__init__"]
    return None, head, obj


def install(tracer: Tracer, package: str = "hamforge"):
    """Rebind every LAYERS entry to a traced stand-in: methods on their class,
    functions in each ``package`` module namespace (and module-level dict)
    that holds them.  Returns the undo list for :func:`uninstall`."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo = []
    for module_name, attr, observe in LAYERS:
        module = sys.modules[f"{package}.{module_name}"]
        owner, key, original = _resolve(module, attr)
        wrapper = tracer.wrap(f"{module_name}.{attr}", original, observe)
        if owner is not None:
            setattr(owner, key, wrapper)
            undo.append(functools.partial(setattr, owner, key, original))
            continue
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapper)
                    undo.append(functools.partial(setattr, m, name, original))
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is original:
                            value[k] = wrapper
                            undo.append(functools.partial(value.__setitem__, k, original))
    return undo


def uninstall(undo) -> None:
    for restore in reversed(undo):
        restore()


def self_by_name(tracer: Tracer) -> dict[str, int]:
    """Self time in nanoseconds summed per traced name."""
    total = [0] * len(tracer.names)
    for sid, t in enumerate(tracer.self_times()):
        total[tracer.name[sid]] += t
    return dict(zip(tracer.names, total))


def layer_metrics(tracer: Tracer, kept_graphs: int = 0) -> dict[str, float]:
    """Every metric of :func:`metric_specs` except ``trace.overhead_s``.

    ``kept_graphs`` is the number of distinct triangulations the exhaustive
    generator kept during the traced pass (the numerator of
    ``corpus.distinct_per_split``)."""
    index = {name: i for i, name in enumerate(tracer.names)}
    self_ns = self_by_name(tracer)
    out = {}
    for module, attr, _observe in LAYERS:
        i = index[f"{module}.{attr}"]
        out[f"{module}.{attr}.calls"] = tracer.calls[i]
        out[f"{module}.{attr}.self_s"] = self_ns[f"{module}.{attr}"] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def durations(name):
        i = index[name]
        return sorted(tracer.end[s] - tracer.start[s]
                      for s in range(len(tracer.start)) if tracer.name[s] == i)

    i_split = index["corpus.split_vertex"]
    out["corpus.distinct_per_split"] = ratio(kept_graphs, tracer.calls[i_split])
    i_rand = index["corpus.random_triangulation"]
    i_match = index["corpus.CorpusFilter.matches"]
    out["corpus.random_triangulation.failed"] = tracer.raised[i_rand]
    proposals = sum(1 for s in range(len(tracer.start))
                    if tracer.name[s] == i_match and tracer.parent[s] >= 0
                    and tracer.name[tracer.parent[s]] == i_rand)
    out["corpus.random_accept_ratio"] = ratio(
        tracer.calls[i_rand] - tracer.raised[i_rand], proposals)
    i_paths = index["ham_enum.enumerate_ham_paths"]
    out["ham_enum.enumerate_ham_paths.empty_ratio"] = ratio(
        tracer.observed[i_paths], tracer.calls[i_paths])
    count = durations("ham_enum.count_ham_cycles")
    i_count = index["ham_enum.count_ham_cycles"]
    out["ham_enum.cycles_per_s"] = ratio(tracer.observed[i_count], sum(count) / 1e9)
    tp = durations("tutte.tutte_path")
    out["tutte.tutte_path.p50_ms"] = statistics.median(tp) / 1e6 if tp else 0.0
    out["tutte.tutte_path.tail_ms"] = tp[tail_index(len(tp))] / 1e6 if tp else 0.0
    i_tp = index["tutte.tutte_path"]
    out["tutte.tutte_path.fallback_ratio"] = ratio(tracer.observed[i_tp], tracer.calls[i_tp])
    return out
