"""Exact computation and certification of the fractional domatic number.

The primal LP packs dominating sets with per-vertex load at most 1; its
dual asks for nonnegative vertex weights giving every dominating set
weight at least 1 (a fractional bottleneck).  Column generation solves it
with one row per orbit of Aut(G), which is exact: averaging a packing over
the group keeps it feasible (Boedi, Herr & Joswig, Math. Program. 2013).
A domatically full graph (delta+1 disjoint dominating sets; Cockayne &
Hedetniemi, Networks 1977) needs no LP: fdom_exact proves fdom = delta+1
with the partition's classes and a closed neighbourhood at weight 1.
Every result carries both certificates and they are verified, in exact
rationals, before being returned: the primal (columns and group
generators) by direct constraint checking, the dual by an independent
branch-and-bound over dominating sets.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional, Sequence

from .domset import (CapExceeded, complete_to_dominating, coverage, domatic_partition,
                     dominating_colouring, domination_number,
                     enumerate_minimal_dominating_sets, is_dominating,
                     min_weight_dominating_set, min_weight_hitting_set)
from .distributions import FractionalColouring
from .graphs import (Graph, fraction_from_pair, fraction_to_pair, iter_mask, json_field,
                     json_list, mask_of, mask_to_list, scale_to_integers, vertex_list)
from .iso import automorphism_generators, orbit_index
from .simplex import IntegerLP
from .structure import Hammock


class CertificateError(ValueError):
    pass


@dataclass
class PrimalCertificate:
    """Columns (dominating-set bitmask, weight) and automorphisms generating
    a group Gamma (none for the trivial group).  Each orbit O of Gamma
    carries load sum_j x_j |S_j & O| <= |O|, so averaging every column over
    Gamma gives per-vertex load <= 1; the objective is the total weight."""

    columns: list[tuple[int, Fraction]]
    objective: Fraction
    generators: list[tuple[int, ...]] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "type": "orbit-primal" if self.generators else "primal",
            "value": fraction_to_pair(self.objective),
            "columns": [{"set": mask_to_list(s), "x": fraction_to_pair(x)}
                        for s, x in self.columns],
        }
        if self.generators:
            out["generators"] = [list(p) for p in self.generators]
        return out


@dataclass
class DualCertificate:
    """Nonnegative vertex weights and their stated total (by default their
    total); valid iff the value is the total and every dominating set has
    weight >= 1, certifying fdom <= value."""

    weights: list[Fraction]
    value: Optional[Fraction] = None

    def __post_init__(self):
        if self.value is None:
            self.value = self.total

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def to_json(self) -> dict:
        return {
            "type": "dual",
            "value": fraction_to_pair(self.value),
            "weights": [fraction_to_pair(w) for w in self.weights],
        }


@dataclass
class FdomResult:
    value: Fraction
    primal: PrimalCertificate
    dual: DualCertificate


def certificate_from_json(obj: dict) -> PrimalCertificate | DualCertificate:
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind in ("primal", "orbit-primal"):
        cols = [(mask_of(vertex_list(json_list(c, "set"))),
                 fraction_from_pair(json_field(c, "x"))) for c in json_list(obj, "columns")]
        gens = ([tuple(vertex_list(p)) for p in json_list(obj, "generators")]
                if kind == "orbit-primal" else [])
        return PrimalCertificate(cols, fraction_from_pair(json_field(obj, "value")), gens)
    if kind == "dual":
        return DualCertificate([fraction_from_pair(w) for w in json_list(obj, "weights")],
                               fraction_from_pair(json_field(obj, "value")))
    raise CertificateError("unknown certificate type")


def automorphism_orbits(g: Graph, generators: Sequence[tuple[int, ...]]) -> list[int]:
    """A representative of each vertex's orbit under generators, from a
    union-find of its own; ValueError unless every generator is a
    permutation of 0..n-1 and an automorphism of g."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for p in generators:
        if sorted(p) != list(range(g.n)):
            raise ValueError(f"generator {list(p)} is not a permutation of 0..{g.n - 1}")
        if any(not g.has_edge(p[u], p[v]) for u, v in g.edges()):
            raise ValueError(f"generator {list(p)} is not an automorphism")
        for v in range(g.n):
            root[find(v)] = find(p[v])
    return [find(v) for v in range(g.n)]


def verify_primal(g: Graph, cert: PrimalCertificate) -> tuple[bool, str]:
    """Check the generators (automorphism_orbits), domination of every
    column, nonnegativity, each orbit's load <= its size (per-vertex loads
    <= 1 with no generators) and the objective arithmetic.
    Returns (ok, reason)."""
    try:
        orbit = automorphism_orbits(g, cert.generators)
    except ValueError as e:
        return False, str(e)
    size = Counter(orbit)
    total = Fraction(0)
    loads = [Fraction(0)] * g.n
    for s, x in cert.columns:
        if s >> g.n:
            return False, f"column {mask_to_list(s)} has a vertex out of range for n={g.n}"
        if x < 0:
            return False, f"negative weight on column {mask_to_list(s)}"
        if not is_dominating(g, s):
            return False, f"column {mask_to_list(s)} is not dominating"
        total += x
        for v in mask_to_list(s):
            loads[orbit[v]] += x
    for v, load in enumerate(loads):
        if load > size[v]:
            where = "vertex" if size[v] == 1 else "the orbit of vertex"
            return False, f"load {load} > {size[v]} at {where} {v}"
    if total != cert.objective:
        return False, f"objective mismatch: {total} != {cert.objective}"
    return True, "ok"


def verify_dual(g: Graph, cert: DualCertificate) -> tuple[bool, str]:
    """(ok, reason).  The lightest dominating set is searched for on the
    weights' numerators over their common denominator den: >= den is >= 1."""
    if len(cert.weights) != g.n:
        return False, f"certificate has {len(cert.weights)} weights for n={g.n}"
    for v, w in enumerate(cert.weights):
        if w < 0:
            return False, f"negative weight {w} at vertex {v}"
    if cert.total != cert.value:
        return False, f"value mismatch: {cert.total} != {cert.value}"
    ints, den = scale_to_integers(cert.weights)
    _, low = min_weight_hitting_set(g.closed_mask, g.closed_mask, ints)
    if low < den:
        return False, f"a dominating set has weight {Fraction(low, den)} < 1"
    return True, "ok"


def _certified(g: Graph, primal: PrimalCertificate, dual: DualCertificate) -> FdomResult:
    """The result both certificates prove, once each verifies and their
    values agree; RuntimeError otherwise."""
    ok, why = verify_primal(g, primal)
    if not ok:
        raise RuntimeError(f"primal verification failed: {why}")
    ok, why = verify_dual(g, dual)
    if not ok:
        raise RuntimeError(f"dual verification failed: {why}")
    if primal.objective != dual.value:
        raise RuntimeError(f"certificates disagree: {primal.objective} != {dual.value}")
    return FdomResult(primal.objective, primal, dual)


def _result_from_master(g: Graph, master: IntegerLP, columns: list[int],
                        gens: Sequence[tuple[int, ...]] = ()) -> FdomResult:
    value = master.value()
    primal = PrimalCertificate(
        [(s, x) for s, x in zip(columns, master.primal()) if x > 0], value, list(gens))
    ys = master.duals()  # per vertex y_{O(v)}; verify_dual checks the duality
    return _certified(g, primal, DualCertificate([ys[i] for i in orbit_index(g.n, gens)], value))


PARTITION_NODES = 64  # colouring-search nodes per vertex fdom_exact spends on a partition


def fdom_exact(g: Graph, cap: int = 20) -> FdomResult:
    """fdom of a graph with at most cap vertices (CapExceeded beyond).

    A partition into delta+1 dominating sets, searched for within
    PARTITION_NODES * n nodes, proves fdom = delta+1: its classes at
    weight 1 are the primal, neighbourhood_certificate(g) the dual.
    Otherwise, or when the search spends its budget, the LP runs over
    every minimal dominating set.  Columns can be restricted to minimal
    sets: any dominating set contains a minimal one, and shifting mass
    down to the subset never violates a load constraint.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if g.n > cap:
        raise CapExceeded(f"minimal dominating set enumeration capped at {cap} vertices")
    k = g.min_degree() + 1
    try:
        part = domatic_partition(g, k, PARTITION_NODES * g.n)
    except CapExceeded:
        part = None
    if part is not None:
        return _certified(g, PrimalCertificate([(s, Fraction(1)) for s in part], Fraction(k)),
                          neighbourhood_certificate(g))
    master = IntegerLP([1] * g.n)
    columns = list(enumerate_minimal_dominating_sets(g, cap=cap))
    for col in columns:
        master.add_column([(v, 1) for v in mask_to_list(col)], 1)
    master.reoptimize()
    return _result_from_master(g, master, columns)


def _greedy_domatic_columns(g: Graph) -> list[int]:
    """A quick family of dominating sets covering every vertex at least once
    (greedy domatic partition), used to warm start column generation."""
    full = (1 << g.n) - 1
    remaining = full
    cols = []
    while remaining and coverage(g, remaining) == full:
        s, covered = 0, 0
        for v in sorted(mask_to_list(remaining), key=lambda x: -g.degree(x)):
            if g.closed_mask[v] & ~covered:
                s |= 1 << v
                covered |= g.closed_mask[v]
        cols.append(complete_to_dominating(g, s))
        remaining &= ~cols[-1]
    if remaining:
        cols.append(complete_to_dominating(g, remaining))
    return cols


COLGEN_ROUNDS = 10_000  # rounds one colgen call may run


def colgen(row: Sequence[int], sense: int, pool: Sequence[int],
           price: Callable[[list[int]], tuple[int, int]], name: str,
           bound: Fraction) -> tuple[IntegerLP, list[int]]:
    """Column generation over vertex-set columns of cost 1: the packing LP
    max sum(x), Ax <= b for sense = 1 (fdom, over dominating sets), the
    covering LP min sum(x), Ax >= b for sense = -1 (chi_f, over independent
    sets), held as max -sum(x), -Ax <= -b.  Vertex v lies in row row[v],
    whose b is its number of vertices; a set S has coefficient |S & row|
    (chi_f has one row per vertex, fdom one per orbit).  The master starts
    from the distinct sets of pool (feasible for the covering LP);
    price(pts) returns the lightest set (sense 1) or the heaviest (sense
    -1) and its weight under integer vertex weights pts.  With master duals
    y / D, vertex v weighs y_{row[v]}, and a priced weight w with
    sense * (w - D) >= 0 proves y / D dual feasible, hence optimality.

    Duals are smoothed (Wentges 1997, alpha = 1/2).  A priced point pts with
    weight w > 0 bounds the value by sum(pts) / w, from above for sense 1
    and from below for sense -1; the stability centre is the point with the
    tightest bound so far (pts is per vertex: sum(pts) is sum_i b_i y_i, not
    the row sum).  Each round first prices halfway between the
    centre, rescaled to D, and y; that set enters if it prices out at y
    (sense * (y(S) - D) < 0), else the round falls back to exact pricing at
    y.  Each round adds one column.  Returns the optimal master and its
    columns in order; after COLGEN_ROUNDS rounds raises CapExceeded with
    "name in [lower, upper]", the master's value against the tighter of the
    centre's bound and the prior bound."""
    sizes = Counter(row)
    master = IntegerLP([sense * sizes[i] for i in range(len(sizes))])
    columns: list[int] = []

    def add(col: int) -> None:
        columns.append(col)
        counts = Counter(row[v] for v in iter_mask(col))
        master.add_column([(i, sense * k) for i, k in counts.items()], sense)

    for col in pool:
        if col not in columns:
            add(col)
    centre: Optional[tuple[list[int], int]] = None  # (pts, w) of the tightest bound

    def price_at(pts: list[int]) -> tuple[int, int]:
        nonlocal centre
        col, w = price(pts)
        if w > 0 and (centre is None
                      or sense * (sum(pts) * centre[1] - sum(centre[0]) * w) < 0):
            centre = pts, w
        return col, w

    for _ in range(COLGEN_ROUNDS):
        master.reoptimize()
        ys, D = master.scaled_duals(), master.D
        y = [ys[i] for i in row]
        new_col = None
        if centre is not None:
            yc, wc = centre
            pts = [(a * D // wc + b) // 2 for a, b in zip(yc, y)]
            k = math.gcd(*pts) or 1
            col, _ = price_at([p // k for p in pts])
            if sense * (sum(y[v] for v in iter_mask(col)) - D) < 0 and col not in columns:
                new_col = col
        if new_col is None:
            new_col, w = price_at(y)
            if sense * (w - D) >= 0:
                return master, columns
            if new_col in columns:
                raise RuntimeError("priced a column already in the pool")
        add(new_col)
    if centre is not None:
        bound = min(bound, Fraction(sum(centre[0]), centre[1]), key=lambda b: sense * b)
    value = sense * master.value()
    lower, upper = (value, bound) if sense > 0 else (bound, value)
    raise CapExceeded(
        f"column generation did not converge in {COLGEN_ROUNDS} iterations; "
        f"{name} in [{lower}, {upper}]")


def fdom_colgen(g: Graph) -> FdomResult:
    """fdom by colgen over the orbits of automorphism_generators(g), seeded
    with a greedy domatic partition and the closed neighbourhoods completed
    to dominating sets, priced by a minimum-weight dominating set under the
    orbit-constant weights; a closed neighbourhood bounds fdom <= delta + 1.
    The primal certificate carries the generators, the dual is per vertex."""
    if g.n == 0:
        raise ValueError("empty graph")
    gens = automorphism_generators(g)
    pool = [complete_to_dominating(g, col)
            for col in _greedy_domatic_columns(g) + list(g.closed_mask)]
    master, columns = colgen(orbit_index(g.n, gens), 1, pool,
                             lambda y: min_weight_dominating_set(g, y),
                             "fdom", Fraction(g.min_degree() + 1))
    return _result_from_master(g, master, columns, gens)


# -- closed-form certificates -----------------------------------------


def neighbourhood_certificate(g: Graph, v: Optional[int] = None) -> DualCertificate:
    """Weight 1 on a closed neighbourhood (of a minimum-degree vertex by
    default): every dominating set meets it, so fdom <= deg(v)+1."""
    if g.n == 0:
        raise CertificateError("empty graph")
    if v is None:
        v = min(range(g.n), key=g.degree)
    elif not 0 <= v < g.n:
        raise CertificateError(f"vertex {v} out of range for n={g.n}")
    w = [Fraction(0)] * g.n
    for u in mask_to_list(g.closed_mask[v]):
        w[u] = Fraction(1)
    return DualCertificate(w)


def uniform_certificate(g: Graph) -> DualCertificate:
    """Weight 1/gamma everywhere: every dominating set has >= gamma
    vertices, so fdom <= n/gamma."""
    if g.n == 0:
        raise CertificateError("empty graph")
    gamma, _ = domination_number(g)
    return DualCertificate([Fraction(1, gamma)] * g.n)


def hammock_certificate(g: Graph, hammock: Hammock) -> DualCertificate:
    """Weight 1/2 on the five vertices of a hammock's C5: total 5/2."""
    w = [Fraction(0)] * g.n
    for v in hammock.cycle_vertices():
        w[v] = Fraction(1, 2)
    return DualCertificate(w)


def girth6_certificate(n: int) -> DualCertificate:
    """The closed-form bottleneck for the girth-6 family member G_n:
    1/(2n) on the 2n hubs, 1/(n(2n-1)) elsewhere; total (5n-2)/(2n-1)."""
    if n < 2:
        raise CertificateError("girth-6 family needs n >= 2")
    hubs = 2 * n
    rest = n * (n - 1) + 2 * n * n
    w = [Fraction(1, 2 * n)] * hubs + [Fraction(1, n * (2 * n - 1))] * rest
    return DualCertificate(w)


def kmn_dual_certificate(m: int, n: int) -> DualCertificate:
    """K_{m,n} (m >= n >= 2): 1/m on the m-side, 1-1/m on the n-side;
    total 1 + n(1-1/m)."""
    if not (m >= n >= 2):
        raise CertificateError("requires m >= n >= 2")
    return DualCertificate([Fraction(1, m)] * m + [1 - Fraction(1, m)] * n)


def kmn_primal_certificate(m: int, n: int) -> PrimalCertificate:
    """K_{m,n} pairs {a,b} at weight 1/m plus the whole m-side at 1-n/m."""
    if not (m >= n >= 2):
        raise CertificateError("requires m >= n >= 2")
    cols = [(mask_of([a, m + b]), Fraction(1, m)) for a in range(m) for b in range(n)]
    if m > n:
        cols.append((mask_of(range(m)), 1 - Fraction(n, m)))
    obj = sum(x for _, x in cols)
    return PrimalCertificate(cols, obj)


def hnd_certificate(n: int, d: int) -> DualCertificate:
    """The incidence-graph bottleneck: w_A = 1/m with
    m = round((ln d - 2 ln ln d) * q) and q = n/d - 1, w_B = 1/C(n-m, d).

    The rounding is heuristic, so the certificate must be re-verified by
    the caller (`family-cert --kind hnd` does so through verify_dual); it
    is never trusted as-is.
    """
    if not (1 <= d < n) or n % d:
        raise CertificateError("requires d | n and 1 <= d < n")
    # d | n and d < n give q >= 1; ln d - 2 ln ln d < d - 1/2 for d >= 2,
    # so m <= q*d = n - d
    q = n // d - 1
    m_real = (math.log(d) - 2 * math.log(math.log(d))) * q if d > 1 else 0.0
    m = max(1, round(m_real))
    wa = Fraction(1, m)
    wb = Fraction(1, math.comb(n - m, d))
    return DualCertificate([wa] * n + [wb] * math.comb(n, d))


def closed_form_certificate(kind: str, **kw):
    """Dispatch: neighbourhood(g[, v]) | uniform(g) | hammock(g, hammock) |
    girth6(n) | kmn_dual(m, n) | kmn_primal(m, n) | hnd(n, d)."""
    table = {
        "neighbourhood": neighbourhood_certificate,
        "uniform": uniform_certificate,
        "hammock": hammock_certificate,
        "girth6": girth6_certificate,
        "kmn_dual": kmn_dual_certificate,
        "kmn_primal": kmn_primal_certificate,
        "hnd": hnd_certificate,
    }
    if kind not in table:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    return table[kind](**kw)


# -- the probabilistic lower-bound sampler -----------------------------


SAMPLE_CHUNK = 1024  # trials counted at once; bounds the sampler's memory


@dataclass
class SampleReport:
    trials: int
    frequencies: list[Fraction]
    max_frequency: Fraction
    analytic_bound: Fraction
    all_dominating: bool


def sample_lnbound(g: Graph, p: Fraction, trials: int, seed: int = 0) -> SampleReport:
    """Monte Carlo check of the random-set bound: include each vertex with
    probability p, then add every vertex not dominated by the sample.
    Membership frequency compares against p + (1-p)^(delta+1), and
    all_dominating checks that every completed set dominates.

    Randomness comes from random.Random(seed) (Mersenne Twister), fixed
    across platforms.  With p = num/den in lowest terms, each vertex's draw
    is r = getrandbits(den.bit_length()), redrawn while r >= den, and the
    vertex is in when r < num, trial by trial and vertex by vertex.  That
    is CPython's own uniform draw below den, word for word, with no float
    and no Python frame per draw: one getrandbits call returns the words of
    many draws, a table on their top bytes sorts nearly all of them, and up
    to SAMPLE_CHUNK trials are counted at once on trial columns (an int per
    vertex, a bit per trial), on which all_dominating is checked too.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    if not (0 <= p <= 1):
        raise ValueError("p must be in [0,1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")  # Random(-s) is Random(s)
    getrandbits = random.Random(seed).getrandbits
    num, den, n = p.numerator, p.denominator, g.n
    k = den.bit_length()
    w = -(-k // 32)  # 32-bit words per draw, the lowest drawn first
    lane, low, shift = 4 * w, 32 * w - 32, 32 * w - k
    # a draw's key is its top min(k, 8) bits, so r is in [key << e, key + 1 << e):
    # code 1 is in, 0 out, 2 redrawn, 3 undecided (num or den inside)
    e, in_top = max(k - 8, 0), min(32 - shift, 8)  # key bits in the top word
    codes = bytes(2 if t << e >= den else 3 if t + 1 << e > den else 1 if t + 1 << e <= num
                  else 0 if t << e >= num else 3 for t in range(256))
    high = bytes(b >> 8 - in_top << min(k, 8) - in_top for b in range(256))
    rest = bytes(b >> in_top for b in range(256))  # the key's bits in the next word
    split = w > 1 and in_top < 8
    if not split:
        codes = high.translate(codes)
    closed = [mask_to_list(m) for m in g.closed_mask]
    counts = [0] * n
    all_dom = True
    drawn = b""  # accepted draws in stream order, 1 in and 0 out
    for start in range(0, trials, SAMPLE_CHUNK):
        t = min(SAMPLE_CHUNK, trials - start)
        while len(drawn) < t * n:
            # about enough draws to fill the chunk; the surplus opens the next
            lanes = ((t * n - len(drawn)) << k) // den + 64
            raw = getrandbits(32 * w * lanes).to_bytes(lane * lanes, "little")
            key = raw[lane - 1::lane]
            if split:
                key = (int.from_bytes(key.translate(high), "little") + int.from_bytes(
                    raw[lane - 5::lane].translate(rest), "little")).to_bytes(lanes, "little")
            got = bytearray(key.translate(codes))
            i = got.find(3)
            while i >= 0:
                r = int.from_bytes(raw[i * lane:(i + 1) * lane], "little")
                r = (r >> low >> shift << low) | (r & ((1 << low) - 1))
                got[i] = 2 if r >= den else r < num
                i = got.find(3, i + 1)
            drawn += got.translate(None, b"\x02")
        block, drawn = drawn[:t * n], drawn[t * n:]
        # trial columns: bit 8j of a vertex's int is its draw in trial j
        ones = int.from_bytes(b"\x01" * t, "little")
        picked = [int.from_bytes(block[v::n], "little") for v in range(n)]
        missed = [ones ^ reduce(int.__or__, [picked[u] for u in c]) for c in closed]
        all_dom &= all(reduce(int.__or__, [picked[u] | missed[u] for u in c]) == ones
                       for c in closed)
        counts = [c + a.bit_count() + b.bit_count() for c, a, b in zip(counts, picked, missed)]
    freqs = [Fraction(c, trials) for c in counts]
    delta = g.min_degree()
    bound = p + (1 - p) ** (delta + 1)
    return SampleReport(trials, freqs, max(freqs), bound, all_dom)


# -- dominating (p:q)-colouring search ---------------------------------


def pq_colouring_exists(g: Graph, p: int, q: int) -> Optional[FractionalColouring]:
    """A dominating (p:q)-colouring (every closed neighbourhood spans all p
    colours), or None; the search is domset.dominating_colouring."""
    colour = dominating_colouring(g, p, q)
    if colour is None:
        return None
    return FractionalColouring(
        p, q, tuple(frozenset(c + 1 for c in iter_mask(m)) for m in colour))
