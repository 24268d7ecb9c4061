"""Structural objects: separating cycles, diamonds, saturation, common
neighborhoods.

The two diamond patterns are fixed here as adjacency lists and treated as
normative; ``find_diamonds`` matches them as subgraphs (extra edges of the
host graph are allowed) and reports the vertex-role assignment so downstream
code never re-derives roles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SNotIndependent
from .plane_graph import (
    Cycle,
    PlaneGraph,
    _connected_after_removal,
    canonical_cycle,
    edge_key,
)

# Diamond-4-cycle: outer 4-cycle (y, v, w, x) plus a center adjacent to
# y, v, x but not w.  Crucial vertices: center and y (the two degree-3
# vertices not adjacent to the degree-2 vertex w; equivalently the two
# vertices lying in two triangles).
DIAMOND4_ROLES = ("center", "y", "v", "w", "x")
DIAMOND4_EDGES = (("y", "v"), ("v", "w"), ("w", "x"), ("x", "y"),
                  ("center", "y"), ("center", "v"), ("center", "x"))

# Diamond-6-cycle: three 4-vertex diamonds (K4 minus an edge) glued in a
# ring at three hub vertices a, b, c; each diamond is a pair (s_i, t_i)
# joined by an edge with both ends adjacent to the two hubs of its slot.
# The six degree-3 vertices s_i, t_i are the crucial ones.
DIAMOND6_ROLES = ("a", "b", "c", "s1", "t1", "s2", "t2", "s3", "t3")
DIAMOND6_SLOT_HUBS = {1: ("b", "c"), 2: ("a", "c"), 3: ("a", "b")}
DIAMOND6_EDGES = tuple(
    [("s1", "t1"), ("s2", "t2"), ("s3", "t3")]
    + [(p + str(i), h) for i in (1, 2, 3) for p in ("s", "t")
       for h in DIAMOND6_SLOT_HUBS[i]]
)


def pattern_edges(edges, assignment) -> frozenset:
    return frozenset(edge_key(assignment[a], assignment[b]) for a, b in edges)


@dataclass(frozen=True)
class DiamondCert:
    """A matched diamond with its concrete vertex-role assignment."""

    kind: str                      # "diamond4" | "diamond6"
    roles: tuple[tuple[str, int], ...]
    crucial: tuple[int, ...]
    outer_cycle: Cycle | None      # diamond4 only

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for _r, v in self.roles)

    def role(self, name: str) -> int:
        for r, v in self.roles:
            if r == name:
                return v
        raise KeyError(name)

    def edges(self) -> frozenset:
        mapping = dict(self.roles)
        pat = DIAMOND4_EDGES if self.kind == "diamond4" else DIAMOND6_EDGES
        return pattern_edges(pat, mapping)

    def separating_cycle(self) -> Cycle:
        """For diamond4: the 4-cycle through the center (center, v, w, x)."""
        if self.kind != "diamond4":
            raise ValueError("only diamond4 carries a center 4-cycle")
        m = dict(self.roles)
        return Cycle((m["center"], m["v"], m["w"], m["x"]))


def _diamond4_cert(center, y, v, w, x) -> DiamondCert:
    return DiamondCert(
        kind="diamond4",
        roles=(("center", center), ("y", y), ("v", v), ("w", w), ("x", x)),
        crucial=(center, y),
        outer_cycle=Cycle((y, v, w, x)),
    )


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def enumerate_cycles(g: PlaneGraph, length: int) -> list[Cycle]:
    """All cycles of the given length, each once, deterministic order."""
    found = set()
    out = []

    def extend(path):
        last = path[-1]
        if len(path) == length:
            if path[0] in g.adj[last]:
                key = canonical_cycle(path)
                if key not in found:
                    found.add(key)
                    out.append(Cycle(tuple(path)))
            return
        for w in sorted(g.adj[last]):
            if w <= path[0] or w in path:
                continue
            extend(path + [w])

    for v in range(g.n):
        extend([v])
    return out


def separating_cycles(g: PlaneGraph, length: int) -> list[Cycle]:
    """All cycles of this length whose vertex deletion disconnects the graph."""
    if length not in (3, 4, 5):
        raise ValueError("separating-cycle search supports lengths 3, 4, 5")
    out = []
    for c in enumerate_cycles(g, length):
        if g.n > length and not _connected_after_removal(g, set(c.vertices)):
            out.append(c)
    return out


def has_separating_triangle(g: PlaneGraph) -> bool:
    """Whether ``separating_cycles(g, 3)`` is non-empty, stopping at the
    first separating triangle."""
    return g.n > 3 and any(not _connected_after_removal(g, set(t))
                           for t in g.triangles())


# ---------------------------------------------------------------------------
# diamonds
# ---------------------------------------------------------------------------

def find_diamonds(g: PlaneGraph, kind: str) -> list[DiamondCert]:
    """All subgraphs matching the pattern, deduplicated by edge set."""
    if kind == "diamond4":
        return _find_diamond4(g)
    if kind == "diamond6":
        return _find_diamond6(g)
    raise ValueError(f"unknown diamond kind {kind!r}")


def _find_diamond4(g: PlaneGraph) -> list[DiamondCert]:
    certs = {}
    for cyc in enumerate_cycles(g, 4):
        vs = cyc.vertices
        for p in range(4):
            w = vs[p]
            y, v, x = vs[(p + 2) % 4], vs[(p + 1) % 4], vs[(p + 3) % 4]
            for center in sorted((g.adj[y] & g.adj[v] & g.adj[x]) - set(vs)):
                cert = _diamond4_cert(center, y, v, w, x)
                certs.setdefault(cert.edges(), cert)
    return [certs[k] for k in sorted(certs)]


def _find_diamond6(g: PlaneGraph) -> list[DiamondCert]:
    # units[(h1,h2)] = edges st with both ends adjacent to both hubs
    units: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s, t in sorted(g.edge_set):
        commons = sorted(g.adj[s] & g.adj[t])
        for h1, h2 in itertools.combinations(commons, 2):
            units.setdefault((h1, h2), []).append((s, t))
    certs = {}
    hubs = sorted({h for pair in units for h in pair})
    for a, b, c in itertools.combinations(hubs, 3):
        slot1 = units.get((b, c), ())   # s1,t1 adjacent to b and c
        slot2 = units.get((a, c), ())
        slot3 = units.get((a, b), ())
        if not (slot1 and slot2 and slot3):
            continue
        for (s1, t1), (s2, t2), (s3, t3) in itertools.product(slot1, slot2, slot3):
            six = (s1, t1, s2, t2, s3, t3)
            if len(set(six)) != 6 or set(six) & {a, b, c}:
                continue
            roles = (("a", a), ("b", b), ("c", c), ("s1", s1), ("t1", t1),
                     ("s2", s2), ("t2", t2), ("s3", s3), ("t3", t3))
            cert = DiamondCert(kind="diamond6", roles=roles, crucial=six,
                               outer_cycle=None)
            certs.setdefault(cert.edges(), cert)
    return [certs[k] for k in sorted(certs)]


# ---------------------------------------------------------------------------
# saturation and common neighborhoods
# ---------------------------------------------------------------------------

def check_independent(g: PlaneGraph, s) -> None:
    s = sorted(s)
    for u, v in itertools.combinations(s, 2):
        if g.has_edge(u, v):
            raise SNotIndependent(f"{u} and {v} are adjacent")


def saturates(g: PlaneGraph, s, obj) -> bool:
    """Whether independent set s saturates a 4/5-cycle (two vertices on it)
    or a diamond-6-cycle (three crucial vertices in s)."""
    check_independent(g, s)
    s = set(s)
    if isinstance(obj, Cycle):
        if len(obj) not in (4, 5):
            raise ValueError("saturation is defined for 4- and 5-cycles")
        return len(s & set(obj.vertices)) == 2
    if isinstance(obj, DiamondCert):
        if obj.kind != "diamond6":
            raise ValueError("saturation is defined for diamond-6-cycles")
        return len(s & set(obj.crucial)) >= 3
    raise TypeError(f"cannot saturate {type(obj).__name__}")


@dataclass(frozen=True)
class PairCert:
    """A vertex pair with its verified common neighborhood."""

    v: int
    x: int
    common: tuple[int, ...]

    def __post_init__(self):
        if self.v == self.x:
            raise ValueError("pair vertices must differ")

    def size(self) -> int:
        return len(self.common)


def max_common_neighborhood_pair(g: PlaneGraph) -> PairCert | None:
    """Non-adjacent pair maximizing |N(v) & N(x)|; ties broken by smallest
    (v, x); None when every pair is adjacent."""
    best = None
    for v in range(g.n):
        for x in range(v + 1, g.n):
            if g.has_edge(v, x):
                continue
            common = tuple(sorted(g.adj[v] & g.adj[x]))
            if best is None or len(common) > len(best.common):
                best = PairCert(v, x, common)
    return best
