"""The benchmark's workloads: what each sets up, the report rows its timed
pass streams, and the gates that make a wrong answer fail the run.

Each workload is one closed-loop caller: the pass pulls report rows one at
a time, and nothing runs concurrently.  The seed reaches the library only
through the inputs built here.  Library functions are reached through their
modules at call time, so a traced run sees the traced stand-ins.  ``tiny``
shrinks every input for the smoke
test; its expected figures are those of the same code at the small sizes.
"""

from __future__ import annotations

import hashlib
import random

from hamforge import corpus, ham_enum, indset, replay, tutte, verification
from hamforge.errors import FilterUnsatisfiableTimeout, HamforgeError, SearchTimeout
from hamforge.plane_graph import Cycle, canonical_code, edge_key
from hamforge.verification import RunReport

# triangulations on n vertices up to isomorphism (OEIS A000109)
A000109 = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249}

LEMMA_SUITES = ("lemma-uwpath", "lemma-uvpath", "lemma-4edges", "lemma-2edge",
                "theorem1", "theorem2", "lemma-diamond4")


class Workload:
    """Base: ``corpus_n`` is the largest exhaustive corpus level built in
    set-up, so the timed pass only reads it."""

    corpus_n = 0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        for n in range(4, self.corpus_n + 1):
            for _g in corpus.enumerate_triangulations(n):
                pass

    def sources(self):
        """(label, callable returning an iterator of RunReport) per source."""
        raise NotImplementedError

    def gates(self, rows, errors) -> dict[str, bool]:
        raise NotImplementedError

    def kept_graphs(self) -> int:
        """Distinct triangulations the exhaustive generator kept in the pass."""
        return 0

    def extra(self) -> dict:
        return {}


def _suite(name, **kwargs):
    # looked up at call time, so a traced stand-in is the one that runs
    return lambda: verification.SUITE_RUNNERS[name](**kwargs)


def _all_ok(rows, errors):
    return not errors and all(r["ok"] for r in rows)


class Census(Workload):
    """``conjecture`` at its defaults (n <= 11), run cold: the pass pays for
    exhaustive generation, as every ``hamforge verify conjecture`` does."""

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n_max = 8 if tiny else 11
        self.expected_rows = 4 if tiny else 43

    def sources(self):
        kwargs = {"n_max": self.n_max} if self.tiny else {}
        return [("conjecture", _suite("conjecture", **kwargs))]

    def _level_sizes(self):
        return {n: sum(1 for _g in corpus.enumerate_triangulations(n))
                for n in range(4, self.n_max + 1)}

    def gates(self, rows, errors):
        want = {n: A000109[n] for n in range(4, self.n_max + 1)}
        return {"rows": len(rows) == self.expected_rows,
                "all_ok": _all_ok(rows, errors),
                "a000109": self._level_sizes() == want}

    def kept_graphs(self):
        # every level above K4 was built by splitting during the pass
        return sum(size for n, size in self._level_sizes().items() if n > 4)


class Tutte(Workload):
    """``tutte`` at its defaults (n <= 10) on a corpus built in set-up: all
    Tutte-path search, no generation."""

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.corpus_n = 7 if tiny else 10
        self.expected_rows, self.expected_triples = (
            (23, 1978) if tiny else (921, 103_089))

    def sources(self):
        kwargs = {"n_max": self.corpus_n} if self.tiny else {}
        return [("tutte", _suite("tutte", **kwargs))]

    def gates(self, rows, errors):
        return {"rows": len(rows) == self.expected_rows,
                "triples": sum(r["payload"]["triples"] for r in rows)
                == self.expected_triples,
                "all_ok": _all_ok(rows, errors)}


class Lemmas(Workload):
    """The region, structure and replay suites at their defaults on the
    n <= 11 corpus built in set-up; the seed goes to the suites' ``seed``."""

    FULL_ROWS = {"lemma-uwpath": 772, "lemma-uvpath": 776, "lemma-4edges": 18,
                 "lemma-2edge": 6, "theorem1": 10, "theorem2": 2,
                 "lemma-diamond4": 2}
    TINY_ROWS = {"lemma-uwpath": 36, "lemma-uvpath": 40, "lemma-4edges": 2,
                 "lemma-2edge": 4, "theorem1": 4, "theorem2": 2,
                 "lemma-diamond4": 2}

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.corpus_n = 8 if tiny else 11
        self.expected_rows = self.TINY_ROWS if tiny else self.FULL_ROWS

    def sources(self):
        small = {"lemma-uwpath": 7, "lemma-uvpath": 7, "lemma-4edges": 7,
                 "lemma-2edge": 9, "theorem1": 9}
        out = []
        for name in LEMMA_SUITES:
            kwargs = {"seed": self.seed}
            if self.tiny and name in small:
                kwargs["n_max"] = small[name]
            out.append((name, _suite(name, **kwargs)))
        return out

    def gates(self, rows, errors):
        counts = {name: 0 for name in LEMMA_SUITES}
        for r in rows:
            counts[r["suite"]] += 1
        return {"rows": counts == self.expected_rows,
                "all_ok": _all_ok(rows, errors)}


# failures that report a search giving up, not a wrong answer
OPERATIONAL = {FilterUnsatisfiableTimeout.__name__, SearchTimeout.__name__}


class Sampled(Workload):
    """A fixed number of seeded random 4-connected triangulations, n cycling
    over 14..17, each checked five ways against exact counts.  Generation
    (flips plus rejection) is in the pass and charged to each instance's
    first row."""

    REPLAY_CAP = 10 ** 5
    FAMILY_CAP = 64
    TRIPLES = 3

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        sizes = (8, 9) if tiny else (14, 15, 16, 17)
        attempts = 2 if tiny else 4
        rng = random.Random(seed)
        self.attempts = [(sizes[i % len(sizes)], rng.getrandbits(32), rng.getrandbits(32))
                         for i in range(attempts)]
        self.graphs = []

    def sources(self):
        return [("sampled", self._rows)]

    def _rows(self):
        for n, gen_seed, pick_seed in self.attempts:
            yield from self._instance(n, gen_seed, pick_seed)

    def _instance(self, n, gen_seed, pick_seed):
        try:
            g = corpus.random_triangulation(
                n, gen_seed, corpus.CorpusFilter(min_connectivity=4))
        except HamforgeError as exc:
            yield RunReport("sampled", f"n{n}-seed{gen_seed}", "generate", False,
                            {"n": n, "seed": gen_seed, "error": type(exc).__name__})
            return
        self.graphs.append(g)
        gid = verification.graph_id(g)
        rng = random.Random(pick_seed)
        faces = list(g.faces)
        found = {}

        def exact_count():
            found["count"] = count = ham_enum.count_ham_cycles(g)
            bound = 2 * (n - 2) * (n - 4)
            return count >= bound, {"n": n, "count": count, "bound": bound}

        def edge_pair_counts():
            pairs = []
            for fi in rng.sample(range(len(faces)), 2):
                a, b, c = faces[fi]
                e, f = edge_key(a, b), edge_key(a, c)
                pairs.append((e, f, ham_enum.count_ham_cycles(g, required_edges=[e, f])))
            found["pairs"] = pairs
            return (all(1 <= k <= found["count"] for _e, _f, k in pairs),
                    {"counts": [k for _e, _f, k in pairs]})

        def special_set_family():
            branch = indset.special_set(g)
            if not isinstance(branch, indset.IndSetCert):
                return True, {"branch": type(branch).__name__}
            fam = indset.ham_family_from_edge_families(g, branch, cap=self.FAMILY_CAP)
            ok = (len(fam) <= found["count"]
                  and all(ham_enum.is_ham_cycle(g, c) for c in fam.cycles))
            return ok, {"branch": "IndSetCert", "set_size": len(branch),
                        "family": len(fam)}

        def replay_families():
            t1 = replay.theorem1_family(g, budget=self.REPLAY_CAP)
            e, f, through = found["pairs"][0]
            l2 = replay.lemma_2edge_family(g, e, f, budget=self.REPLAY_CAP)
            ok = (1 <= len(t1) <= found["count"]
                  and all(ham_enum.is_ham_cycle(g, c) for c in t1.cycles)
                  and 1 <= len(l2) <= through
                  and all(e in c and f in c and ham_enum.is_ham_cycle(g, c) for c in l2.cycles))
            return ok, {"theorem1": len(t1), "lemma_2edge": len(l2)}

        def triangle_triples():
            ok = True
            for _ in range(self.TRIPLES):
                t, t1, t2 = (faces[i] for i in rng.sample(range(len(faces)), 3))
                cyc, e1, e2 = tutte.ham_cycle_through_triangle_edges(
                    g, Cycle(t), Cycle(t1), Cycle(t2))
                need = {edge_key(t[0], t[1]), edge_key(t[0], t[2]), e1, e2}
                ok &= (len(need) == 4 and need <= cyc and ham_enum.is_ham_cycle(g, cyc)
                       and 1 <= ham_enum.count_ham_cycles(g, required_edges=need)
                       <= found["count"])
            return ok, {"triples": self.TRIPLES}

        for op, check in (("exact_count", exact_count),
                          ("edge_pair_counts", edge_pair_counts),
                          ("special_set_family", special_set_family),
                          ("replay_families", replay_families),
                          ("triangle_triples", triangle_triples)):
            try:
                ok, payload = check()
            except HamforgeError as exc:
                ok, payload = False, {"error": type(exc).__name__}
            yield RunReport("sampled", gid, op, ok, payload)
            if not ok:
                return

    def gates(self, rows, errors):
        # operational give-ups are counted by fail_ratio; anything else that
        # failed is a wrong answer
        return {"no_wrong_answer": not errors and all(
            r["ok"] or r["payload"].get("error") in OPERATIONAL for r in rows)}

    def extra(self):
        digest = hashlib.sha256()
        for g in self.graphs:
            digest.update(repr(canonical_code(g)).encode() + b"\n")
        return {"instances": len(self.graphs), "instance_digest": digest.hexdigest()}


WORKLOADS = {"census": Census, "tutte": Tutte, "lemmas": Lemmas, "sampled": Sampled}
