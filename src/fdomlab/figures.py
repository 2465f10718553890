"""Catalog of reference colourings for the exceptional graphs and the
special cases of the 5/2 construction.

Tables fall into two groups:
  * one-vertex-deficient (5:2) colourings of the exceptional members used
    when gluing at a cut vertex: the marked vertex sees >= 4 of the 5
    colours (>= 3 on the 4-cycle), everyone else sees all 5; members 5..8
    contain a spanning 7-cycle, whose table transfers;
  * (5:2) or (10:4) dominating colourings of the specific graphs that the
    construction's reductions can bottom out on.

Only tables a rule can select are kept.  A graph that reaches the
edge-deletion tables has 4, 5 or 7 vertices, and the table it gets depends
only on its isomorphism class, so the connected non-exceptional graphs on
at most 7 vertices show which of those tables are needed.

Every table is validated on import, so a bad entry fails the build here
and never propagates into a construction.  Entries marked "searched"
below were produced by exhaustive backtracking over (5:2) assignments;
the rest are fixed reference data.
"""

from __future__ import annotations

from typing import Optional

from .badfamily import bad_family_members
from .distributions import FractionalColouring
from .graphs import Graph

_K23, _C7, _TWO_C4 = (list(bad_family_members()[i].edges()) for i in (2, 3, 4))


def _phi(p: int, q: int, *sets) -> FractionalColouring:
    return FractionalColouring(p, q, tuple(frozenset(s) for s in sets))


class CatalogEntry:
    def __init__(self, name: str, graph: Graph, phi: FractionalColouring,
                 quasi_vertex: Optional[int] = None, quasi_span: int = 0):
        self.name = name
        self.graph = graph
        self.phi = phi
        self.quasi_vertex = quasi_vertex
        self.quasi_span = quasi_span
        self._validate()

    def _validate(self) -> None:
        g, phi = self.graph, self.phi
        if len(phi.assignment) != g.n:
            raise ValueError(f"{self.name}: table size mismatch")
        for v in range(g.n):
            span = phi.spans(g, v)
            if v == self.quasi_vertex:
                if span < self.quasi_span:
                    raise ValueError(f"{self.name}: marked vertex sees {span}")
            elif span != phi.p:
                raise ValueError(f"{self.name}: vertex {v} sees {span} < {phi.p}")


_ENTRIES: dict[str, CatalogEntry] = {}


def _add(name: str, edges, n: int, phi: FractionalColouring,
         quasi_vertex: Optional[int] = None, quasi_span: int = 0) -> None:
    _ENTRIES[name] = CatalogEntry(name, Graph(n, edges), phi, quasi_vertex, quasi_span)


# -- one-vertex-deficient (5:2) colourings ------------------------------
# marked vertex listed in the name; the 4-cycle's marked vertex only
# reaches 3 of 5 colours, all other tables reach 4.

_add("fig4a-C4-quasi", [(0, 1), (1, 2), (2, 3), (3, 0)], 4,
     _phi(5, 2, {1, 2}, {1, 3}, {4, 5}, {2, 3}), quasi_vertex=0, quasi_span=3)
_add("fig4b-K23-quasi-deg3", _K23, 5, _phi(5, 2,
     {1, 4}, {2, 4}, {1, 2}, {3, 5}, {1, 3}), quasi_vertex=1, quasi_span=4)
_add("fig4c-K23-quasi-deg2", _K23, 5, _phi(5, 2,
     {1, 4}, {2, 4}, {1, 2}, {3, 5}, {3, 5}), quasi_vertex=4, quasi_span=4)
_add("fig4d-C7-quasi", _C7, 7, _phi(5, 2,
     {1, 2}, {1, 3}, {4, 5}, {2, 3}, {1, 4}, {3, 5}, {2, 4}), quasi_vertex=0, quasi_span=4)
_add("fig4e-2C4-quasi-hub", _TWO_C4, 7, _phi(5, 2,
     {1, 4}, {2, 3}, {1, 5}, {4, 5}, {3, 4}, {1, 2}, {3, 5}), quasi_vertex=3, quasi_span=4)
# searched
_add("fig4f-2C4-quasi-far", _TWO_C4, 7, _phi(5, 2,
     {1, 3}, {4, 5}, {2, 3}, {1, 2}, {1, 4}, {3, 5}, {4, 5}), quasi_vertex=5, quasi_span=4)
# searched
_add("2C4-quasi-near", _TWO_C4, 7, _phi(5, 2,
     {1, 3}, {4, 5}, {2, 4}, {1, 2}, {1, 5}, {3, 4}, {2, 5}), quasi_vertex=2, quasi_span=4)

# -- (5:2) dominating colourings of exceptional-member-plus-edge graphs --

_add("fig5a-diamond", [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4,
     _phi(5, 2, {1, 2}, {1, 5}, {3, 4}, {1, 5}))
_add("fig5c-K23-plus-hub", _K23 + [(1, 3)], 5,
     _phi(5, 2, {1, 5}, {1, 2}, {1, 5}, {3, 4}, {1, 5}))
# searched
_add("fig5d-C7-plus-chord", _C7 + [(1, 3)], 7,
     _phi(5, 2, {1, 4}, {1, 2}, {4, 5}, {1, 3}, {1, 4}, {2, 5}, {3, 5}))
_add("fig5f-2C4-plus-far", _TWO_C4 + [(1, 5)], 7,
     _phi(5, 2, {3, 4}, {1, 2}, {3, 4}, {5, 1}, {2, 3}, {4, 5}, {2, 3}))

# -- special graphs reachable by the reductions -------------------------

_add("fig6a-K24", [(0, v) for v in range(2, 6)] + [(1, v) for v in range(2, 6)], 6,
     _phi(10, 4, {3, 4, 5, 6}, {7, 8, 9, 10}, {1, 2, 3, 7}, {1, 2, 4, 8},
          {1, 2, 5, 9}, {1, 2, 6, 10}))
_add("fig6b-theta225", _C7 + [(7, 1), (7, 6)], 8,
     _phi(5, 2, {1, 5}, {1, 3}, {3, 4}, {2, 5}, {1, 4}, {3, 5}, {2, 4}, {2, 5}))
_add("fig6c-theta334", _C7 + [(2, 7), (7, 8), (8, 5)], 9,
     _phi(5, 2, {3, 5}, {1, 4}, {2, 3}, {4, 5}, {1, 2}, {3, 4}, {1, 2},
          {2, 4}, {1, 5}))
_add("fig6d-C7-plus-5path",
     [(0, 1), (0, 10), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 10),
      (6, 7), (7, 8), (8, 9), (9, 0)], 11,
     _phi(5, 2, {1, 2}, {3, 5}, {3, 4}, {1, 2}, {4, 5}, {2, 3}, {1, 4},
          {1, 5}, {2, 3}, {4, 5}, {4, 5}))
_add("fig6e-theta344",
     [(0, 1), (0, 8), (1, 2), (2, 3), (3, 4), (4, 5), (4, 9), (5, 6),
      (6, 7), (7, 0), (8, 9)], 10,
     _phi(5, 2, {1, 2}, {3, 4}, {1, 5}, {2, 4}, {1, 3}, {2, 5}, {1, 4},
          {3, 5}, {3, 4}, {2, 5}))


def exceptional_colouring(key: str) -> CatalogEntry:
    if key not in _ENTRIES:
        raise KeyError(f"unknown catalog key {key!r}")
    return _ENTRIES[key]


def catalog_keys() -> list[str]:
    return sorted(_ENTRIES)


# marked-vertex tables by exceptional member, one per orbit of marked vertex
QUASI_BY_MEMBER: dict[int, list[str]] = {
    1: ["fig4a-C4-quasi"],
    2: ["fig4b-K23-quasi-deg3", "fig4c-K23-quasi-deg2"],
    4: ["fig4e-2C4-quasi-hub", "fig4f-2C4-quasi-far", "2C4-quasi-near"],
    **{member: ["fig4d-C7-quasi"] for member in (3, 5, 6, 7, 8)},
}

# dominating tables applicable when deleting an edge lands in the family
EDGE_CASE_KEYS = ["fig5a-diamond", "fig5c-K23-plus-hub", "fig5d-C7-plus-chord",
                  "fig5f-2C4-plus-far"]
