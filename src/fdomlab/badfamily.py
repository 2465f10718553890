"""The eight exceptional graphs with fractional domatic number below 5/2,
and the isomorphism check against them.

Members (index, reference edge list):
  1  C4
  2  K_{2,3}
  3  C7
  4  two C4's sharing a vertex
  5  C7 plus a chord joining vertices at distance 3 (a C4 and a C5 glued
     on an edge)
  6  two C4's sharing a vertex, plus an edge joining the two 4-cycles
  7  C7 plus two crossing chords at distance 2
  8  the graph of 7 plus the distance-3 chord of 5

Members 4..8 are transcribed from the reference drawings: vertices 0..6,
7-cycle 0-1-...-6-0 where present (member 4 uses the path 0..6 plus the
gluing edges), chords as listed.
"""

from __future__ import annotations

from typing import Optional

from .graphs import Graph
from .iso import is_isomorphic, vertex_signature


def _c(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


_MEMBERS: dict[int, Graph] = {
    1: Graph(4, _c(4)),
    2: Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 1)]),
    3: Graph(7, _c(7)),
    4: Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (3, 6)]),
    5: Graph(7, _c(7) + [(2, 5)]),
    6: Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (3, 6), (2, 4)]),
    7: Graph(7, _c(7) + [(1, 5), (2, 6)]),
    8: Graph(7, _c(7) + [(1, 5), (2, 6), (2, 5)]),
}


def _key(g: Graph) -> tuple:
    return (g.n, g.m, tuple(sorted(vertex_signature(g.nbr_mask))))


_SIZES = {(ref.n, ref.m) for ref in _MEMBERS.values()}
_BY_KEY = {_key(ref): idx for idx, ref in _MEMBERS.items()}  # the 8 keys differ


def bad_family_members() -> dict[int, Graph]:
    return dict(_MEMBERS)


def bad_family_check(g: Graph) -> Optional[int]:
    """The index of the exceptional-family member isomorphic to g, or None.

    The isomorphism test runs only on a member whose invariant key
    (n, m, sorted vertex signatures) equals g's, and the key is computed
    only when some member has g's vertex and edge counts.
    """
    if (g.n, g.m) not in _SIZES:
        return None
    idx = _BY_KEY.get(_key(g))
    if idx is not None and is_isomorphic(g, _MEMBERS[idx]):
        return idx
    return None
