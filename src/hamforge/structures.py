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
    mask_bits,
    vertex_mask,
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
    masks = g.nbr_masks

    def extend(path):
        last = path[-1]
        if len(path) == length:
            if masks[last] >> path[0] & 1:
                key = canonical_cycle(path)
                if key not in found:
                    found.add(key)
                    out.append(Cycle(tuple(path)))
            return
        for w in sorted(g.rotation[last]):
            if w <= path[0] or w in path:
                continue
            extend(path + [w])

    try:
        for v in range(g.n):
            extend([v])
    finally:
        del extend  # the closure refers to itself: break the cycle
    return out


def separating_cycles(g: PlaneGraph, length: int) -> list[Cycle]:
    """All cycles of this length whose vertex deletion disconnects the graph."""
    if length not in (3, 4, 5):
        raise ValueError("separating-cycle search supports lengths 3, 4, 5")
    out = []
    for c in enumerate_cycles(g, length):
        if g.n > length and not _connected_after_removal(g, vertex_mask(c.vertices)):
            out.append(c)
    return out


def has_separating_triangle(g: PlaneGraph, triangles=None) -> bool:
    """Whether ``separating_cycles(g, 3)`` is non-empty.  ``triangles``,
    when the caller holds it, is ``g.triangles()``.

    Two shapes are answered by a count of the 3-cycles that bound no face;
    any other graph is searched, stopping at the first separating triangle.

    - A triangulation with n >= 4: a 3-cycle separates exactly when it
      bounds no face.
    - A square region: connected, the outer face on 4 distinct vertices
      (a 4-cycle C), every other face a triangle.  Distinct triangular
      faces bound distinct 3-cycles, so g has a non-facial 3-cycle exactly
      when ``len(g.triangles()) != len(g.faces) - 1``, and that is exactly
      when g has a separating triangle.  A non-facial 3-cycle has a vertex
      inside (an empty inside would be a face), while C keeps a vertex
      outside it, so it separates.  If every 3-cycle is facial, C has no
      chord once n > 4: a chord cuts C into two 3-cycles, and the side
      holding the other vertices is not a face.  With no chord a facial
      triangle T holds at most two vertices of C, consecutive ones, so
      C - T is connected; a component of g - T away from C - T would be
      enclosed by a cycle on T's vertices, i.e. lie inside T, which is a
      face.  So g - T is connected.  (With n = 4, g is K4 - e and nothing
      separates.)  The rule needs the 4-cycle: with an outer 5-cycle a
      chord can cut off a lone vertex behind a facial triangle.
    """
    if g.n <= 3:
        return False
    if triangles is None:
        triangles = g.triangles()
    if g.is_triangulation:
        return len(triangles) != len(g.faces)
    if _is_square_region(g):
        return len(triangles) != len(g.faces) - 1
    return any(not _connected_after_removal(g, vertex_mask(t)) for t in triangles)


def is_four_connected_triangulation(g: PlaneGraph) -> bool:
    """Whether g is a 4-connected triangulation: by the classical criterion,
    a triangulation with n >= 5 and no separating triangle."""
    return g.is_triangulation and g.n >= 5 and not has_separating_triangle(g)


def _is_square_region(g: PlaneGraph) -> bool:
    out = g.outer_face_index
    return (g.connected and len(set(g.faces[out])) == len(g.faces[out]) == 4
            and all(len(f) == 3 for i, f in enumerate(g.faces) if i != out))


def link_region_has_separating_triangle(g: PlaneGraph, v: int, triangles) -> bool:
    """``has_separating_triangle`` of the square region g - v bounded by the
    link of v, read off the triangulation g without building the region.
    ``triangles`` is ``g.triangles()``: one listing serves every degree-4
    vertex of g.

    The region's 3-cycles are those of g avoiding v and its triangular
    faces are those of g avoiding v, so it has a separating triangle
    exactly when the first outnumber the second.
    """
    if not g.is_triangulation or g.n < 5 or g.degrees[v] != 4:
        raise ValueError("link regions are cut from degree-4 vertices of "
                         "triangulations with n >= 5")
    avoiding = sum(1 for t in triangles if v not in t)
    return avoiding > len(g.faces) - 4


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
    masks = g.nbr_masks
    for cyc in enumerate_cycles(g, 4):
        vs = cyc.vertices
        off_cycle = ~vertex_mask(vs)
        for p in range(4):
            w = vs[p]
            y, v, x = vs[(p + 2) % 4], vs[(p + 1) % 4], vs[(p + 3) % 4]
            for center in mask_bits(masks[y] & masks[v] & masks[x] & off_cycle):
                cert = _diamond4_cert(center, y, v, w, x)
                certs.setdefault(cert.edges(), cert)
    return [certs[k] for k in sorted(certs)]


def _find_diamond6(g: PlaneGraph) -> list[DiamondCert]:
    # units[(h1,h2)] = edges st with both ends adjacent to both hubs
    units: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s, t in sorted(g.edge_set):
        commons = mask_bits(g.nbr_masks[s] & g.nbr_masks[t])
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
            common = tuple(mask_bits(g.nbr_masks[v] & g.nbr_masks[x]))
            if best is None or len(common) > len(best.common):
                best = PairCert(v, x, common)
    return best
