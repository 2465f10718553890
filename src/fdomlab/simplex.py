"""The exact LP kernel: a fraction-free revised simplex for

    maximise c.x   subject to   Ax <= b,  x >= 0

over integer data.  The invariant: the basis inverse is held as the
integer matrix M = D * B^-1, where D = |det B| > 0 (Edmonds/Bareiss
integer-preserving pivoting, as in Avis's lrs).  The basic values
beta = M b and the scaled duals y = D * c_B B^-1 are integers as well, so
no Fraction is built and no gcd is taken inside the pivot loop.

M is stored by columns: Mc[k] = sum_i M[i][k] * 2^(i*mw), one signed lane
of mw bits per row.  The entering column alpha = D * B^-1 a_q is
sum_i a_qi * Mc[i] in the same form, decoded once for the ratio test.
Pivoting on alpha_r replaces each column by

    Mc[k] = (alpha_r * Mc[k] - M[r][k] * A) // D,   A = alpha - D * 2^(r*mw),

one big-integer update per column.  Lane i of the numerator is
alpha_r * M[i][k] - alpha_i * M[r][k], which is D times the new entry by
Sylvester's identity, and lane r is D * M[r][k], which keeps row r; so the
whole numerator is D times the new packed column and the division is
exact, whatever the lanes hold in between.  Then D becomes alpha_r, which
the ratio test keeps positive; the one pivot on a negative entry (driving
a phase-1 artificial out at zero) negates M, beta, y and D together.

Row r of M is read with one shift and mask per column, through a bias of
2^(mw-1) in every lane.  By Hadamard's inequality the entries of M, of
alpha and of the M after the pivot are at most P * |a_q|, where P is the
product of the basic columns' 2-norms (every basic column is a nonzero
integer vector, of norm at least 1).  mw is the least multiple of 64 bits
whose signed lanes hold that bound: _column re-lays M at a wider mw before
a column that would exceed it enters, so the width only ever grows.
beta and y stay lists.  The pivot updates y with the entering reduced
cost, so y is set from the costs only where c_B changes: at the start and
at the end of phase 1.

Columns can be appended and the LP re-optimised from the current basis,
which is how column generation warm-starts.  Rows with b_i < 0 are
negated internally and start on a phase-1 artificial.  Pivoting uses
Dantzig's rule on the integer reduced costs and switches to Bland's rule
after a run of degenerate pivots, which guarantees termination; ratio
ties go to the smaller basic column index.

Pricing prices every column in one pass of big-integer arithmetic.  Each
row is packed into one integer whose lane j (a field of `width` bits)
holds column j's entry, so that

    T = sum_i y_i * packed_i - D * C + bias * ONES,   bias = 2^(width-1),

holds D times column j's reduced cost plus the bias in lane j, where C
packs the costs.  The width is the least multiple of 64 bits for which
max|y| * (largest column 1-norm) + D * max|cost| < bias; that bound keeps
every lane of T in [0, 2^width), so no lane borrows from its neighbour.
A lane's top bit is clear exactly when its reduced cost is negative:
Bland's rule takes the lowest such lane, Dantzig's rule the first lane
of least value.  Both pick the column a per-column scan would.

simplex_exact solves a rational LP on the kernel and checks the primal and
dual solutions for feasibility and equal objectives before returning them.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .graphs import scale_to_integers


BLAND_AFTER = 40  # degenerate pivots in a row before Bland's rule takes over
WORD = 64  # lane widths are multiples of this many bits


class LPError(ValueError):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


@dataclass
class SimplexResult:
    value: Fraction
    x: list[Fraction]
    y: list[Fraction]  # dual values, one per constraint


class IntegerLP:
    """max c.x s.t. Ax <= b, x >= 0 with integer b, A and c, solved by a
    warm-startable fraction-free revised simplex.

    Internally row i is multiplied by sign[i] so that its right-hand side
    is nonnegative.  Column i < m is the slack of row i; the phase-1
    artificials of the negated rows follow, then the columns passed to
    add_column, in order.  The all-slack-or-artificial starting basis is
    the identity, so D = 1 and M = I.
    """

    def __init__(self, b: Sequence[int]):
        m = len(b)
        self.m = m
        self.sign = [-1 if bi < 0 else 1 for bi in b]
        # column j: (rows, coefficients, cost) in the internal row signs
        self.cols: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [
            ((i,), (s,), 0) for i, s in enumerate(self.sign)]
        self.basis = list(range(m))
        self.artificials: list[int] = []
        for i in range(m):
            if self.sign[i] < 0:
                self.basis[i] = len(self.cols)
                self.artificials.append(len(self.cols))
                self.cols.append(((i,), (1,), 0))
        self.first = len(self.cols)
        self.norm = 1  # the largest column 1-norm
        # packed[i] = sum of cols[j]'s row-i entry << (j * width), over the
        # first npacked columns; _pack brings it up to date
        self.width = WORD
        self.packed = [0] * m
        self.npacked = 0
        self.D = 1
        # Mc[k] = sum of M[i][k] << (i * mw): column k of M, one signed lane
        # per row; alpha holds the last entering column in the same form
        self.mw = WORD
        self.det2 = 1  # the product of the basic columns' squared 2-norms
        self.bias = _bias(WORD, m)
        self.Mc = [1 << (k * WORD) for k in range(m)]
        self.alpha = 0
        self.beta = [abs(bi) for bi in b]
        self.y = [0] * m

    def add_column(self, entries: Iterable[tuple[int, int]], cost: int) -> None:
        """Append the column with nonzero entries (row, coefficient) and
        objective coefficient cost; it enters nonbasic at zero."""
        entries = [(i, a * self.sign[i]) for i, a in entries if a]
        self.cols.append((tuple(i for i, _ in entries), tuple(a for _, a in entries), cost))
        self.norm = max(self.norm, sum(abs(a) for _, a in entries))

    def reoptimize(self) -> None:
        """Optimise from the current basis.  Raises LPInfeasible when phase 1
        leaves an artificial positive, LPUnbounded when no row limits the
        entering column."""
        costs = [cost for _, _, cost in self.cols]
        if self.artificials:
            self._phase1()
            self.y = self._duals_for(costs)
        self._run(costs)

    def _phase1(self) -> None:
        arts = set(self.artificials)
        costs = [-1 if j in arts else 0 for j in range(len(self.cols))]
        self.y = self._duals_for(costs)
        self._run(costs)
        if any(self.beta[r] for r in range(self.m) if self.basis[r] in arts):
            raise LPInfeasible("no feasible point")
        # drive the artificials left at zero out of the basis, each on the
        # first slack with a nonzero entry in its row (M is invertible, so
        # one exists); beta[r] = 0 keeps every basic value nonnegative
        for r in range(self.m):
            if self.basis[r] in arts:
                j = next(i for i, v in enumerate(self._row(r)) if v)
                self._pivot(r, j, self._column(j), self.sign[j] * self.y[j])
        # empty the artificial columns: their reduced cost is 0 from now on,
        # so none can enter again
        for j in arts:
            (i,), (a,), _ = self.cols[j]
            self.packed[i] -= a << (j * self.width)
            self.cols[j] = ((), (), 0)
        self.artificials = []

    def _lanes(self, c: int) -> list[int]:
        """The m signed lanes of a packed column, lowest row first."""
        half = 1 << (self.mw - 1)
        return [v - half for v in _unpack(c + self.bias, self.mw, self.m)]

    def _row(self, r: int) -> list[int]:
        """Row r of M: lane r of every packed column."""
        shift, mask, half = r * self.mw, (1 << self.mw) - 1, 1 << (self.mw - 1)
        bias = self.bias
        return [((c + bias) >> shift & mask) - half for c in self.Mc]

    def _column(self, j: int) -> list[int]:
        """D * B^-1 a_j, lane by lane; it stays packed in alpha for the pivot.
        First widens the lanes, if need be, to hold alpha and the M that
        pivoting a_j in gives."""
        rows, vals, _ = self.cols[j]
        bits = (self.det2 * sum(a * a for a in vals)).bit_length()
        if bits > 2 * self.mw - 2:  # re-lay M at the least width with bits <= 2 mw - 2
            cols = [self._lanes(c) for c in self.Mc]
            self.mw = WORD * ((bits + 1) // (2 * WORD) + 1)
            self.bias = _bias(self.mw, self.m)
            self.Mc = [_pack_lanes(col, self.mw) for col in cols]
        Mc = self.Mc
        self.alpha = sum([a * Mc[i] for i, a in zip(rows, vals)])
        return self._lanes(self.alpha)

    def _duals_for(self, costs: list[int]) -> list[int]:
        """y = c_B M for these costs, one decoded column of M at a time."""
        c_B = [costs[j] for j in self.basis]
        return [sum([c * v for c, v in zip(c_B, self._lanes(col))]) for col in self.Mc]

    def _pack(self, width: int) -> None:
        """Pack the columns added since the last call into the rows, or
        repack every column when the lane width changes."""
        if width != self.width:
            self.width, self.packed, self.npacked = width, [0] * self.m, 0
        start = self.npacked
        block = [[0] * (len(self.cols) - start) for _ in range(self.m)]
        for j, (rows, vals, _) in enumerate(self.cols[start:]):
            for i, a in zip(rows, vals):
                block[i][j] = a
        self.packed = [p + (_pack_lanes(row, width) << (start * width))
                       for p, row in zip(self.packed, block)]
        self.npacked = len(self.cols)

    def _run(self, costs: list[int]) -> None:
        max_cost = max(map(abs, costs), default=0)
        self._pack(self.width)
        lanes_for = 0  # the width that C and high were packed at
        degenerate_run = 0
        while True:
            y, D = self.y, self.D
            bound = max(map(abs, y), default=0) * self.norm + D * max_cost
            if bound.bit_length() >= self.width:  # bound >= bias: widen the lanes
                self._pack(WORD * (bound.bit_length() // WORD + 1))
            width = self.width
            if lanes_for != width:
                bias = 1 << (width - 1)
                C = _pack_lanes(costs, width)
                high = _bias(width, len(costs))
                lanes_for = width
            T = sum([yi * p for yi, p in zip(y, self.packed) if yi]) - D * C + high
            negative = high & ~T  # the top bit of each lane with a negative reduced cost
            if not negative:
                return
            if degenerate_run >= BLAND_AFTER:
                q = ((negative & -negative).bit_length() - 1) // width
                dq = ((T >> (q * width)) & ((1 << width) - 1)) - bias
            else:
                lanes = _unpack(T, width, len(costs))
                least = min(lanes)
                q, dq = lanes.index(least), least - bias
            alpha = self._column(q)
            beta, basis = self.beta, self.basis
            r = -1
            for i in range(self.m):
                if alpha[i] > 0:
                    if r < 0:
                        r = i
                        continue
                    lhs, rhs = beta[i] * alpha[r], beta[r] * alpha[i]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r = i
            if r < 0:
                raise LPUnbounded("objective unbounded above")
            degenerate_run = degenerate_run + 1 if beta[r] == 0 else 0
            self._pivot(r, q, alpha, dq)

    def _pivot(self, r: int, q: int, alpha: list[int], dq: int) -> None:
        """Column q enters at row r; alpha = D * B^-1 a_q as _column left it
        (and packed in self.alpha), dq its scaled reduced cost."""
        D, ar = self.D, alpha[r]
        A = self.alpha - (D << (r * self.mw))  # lane r at alpha_r - D keeps row r
        Mr = self._row(r)
        self.Mc = [(ar * c - w * A) // D for c, w in zip(self.Mc, Mr)]
        beta, br = self.beta, self.beta[r]
        for i in range(self.m):
            if i != r:
                beta[i] = (ar * beta[i] - alpha[i] * br) // D
        self.y = [(ar * v - dq * w) // D for v, w in zip(self.y, Mr)]
        self.det2 = (self.det2 // sum(a * a for a in self.cols[self.basis[r]][1])
                     * sum(a * a for a in self.cols[q][1]))
        self.basis[r] = q
        self.D = ar
        if ar < 0:  # only when phase 1 drives out an artificial at zero
            self.Mc = [-c for c in self.Mc]
            self.beta = [-v for v in beta]
            self.y = [-v for v in self.y]
            self.D = -ar

    def value(self) -> Fraction:
        return Fraction(sum(self.cols[j][2] * bv for j, bv in zip(self.basis, self.beta)),
                        self.D)

    def primal(self) -> list[Fraction]:
        """Values of the added columns, in the order they were added."""
        x = [Fraction(0)] * (len(self.cols) - self.first)
        for j, bv in zip(self.basis, self.beta):
            if j >= self.first:
                x[j - self.first] = Fraction(bv, self.D)
        return x

    def scaled_duals(self) -> list[int]:
        """D times the dual of each row (the reduced cost of its slack)."""
        return [s * v for s, v in zip(self.sign, self.y)]

    def duals(self) -> list[Fraction]:
        return [Fraction(v, self.D) for v in self.scaled_duals()]


def _pack_lanes(values: list[int], width: int) -> int:
    """sum(v << (j * width) for j, v in enumerate(values)), built by halves
    so that it takes O(len * log len) word operations, not O(len^2)."""
    if len(values) <= 16:
        return sum([v << (j * width) for j, v in enumerate(values) if v])
    h = len(values) // 2
    return _pack_lanes(values[:h], width) + (_pack_lanes(values[h:], width) << (h * width))


def _bias(width: int, count: int) -> int:
    """2^(width-1) in each of count lanes: it lifts signed lanes of width
    bits into [0, 2^width), where no lane borrows from the next."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")


def _unpack(T: int, width: int, count: int) -> Sequence[int]:
    """The count unsigned lanes of width bits of T >= 0, lowest first.
    A lane of k words joins its k 64-bit words, highest first."""
    words = array("Q", T.to_bytes(width // 8 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    k = width // WORD
    if k == 1:
        return words
    lanes = words[k - 1::k].tolist()
    for i in range(k - 2, -1, -1):
        lanes = [hi << WORD | lo for hi, lo in zip(lanes, words[i::k])]
    return lanes


def simplex_exact(c: Sequence[Fraction | int], rows: Sequence[Sequence[Fraction | int]],
                  b: Sequence[Fraction | int]) -> SimplexResult:
    """Solve max c.x s.t. rows.x <= b, x >= 0 exactly.

    Raises LPInfeasible / LPUnbounded; otherwise returns the optimum with a
    complementary primal/dual pair (verified before returning).
    """
    m, n = len(rows), len(c)
    if len(b) != m or any(len(r) != n for r in rows):
        raise LPError("dimension mismatch")
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    A = [[(j, Fraction(v)) for j, v in enumerate(r) if v] for r in rows]

    # integer data: each row and the objective times the lcm of their
    # denominators; x is unchanged, row i's dual scales by row_scale[i]/obj_scale
    row_scale = [lcm(bi.denominator, *(a.denominator for _, a in r)) for r, bi in zip(A, b)]
    obj_scale = lcm(*(v.denominator for v in c))
    A = [[(j, a.numerator * (s // a.denominator)) for j, a in r] for r, s in zip(A, row_scale)]
    b = [bi.numerator * (s // bi.denominator) for bi, s in zip(b, row_scale)]
    c = [v.numerator * (obj_scale // v.denominator) for v in c]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, r in enumerate(A):
        for j, a in r:
            cols[j].append((i, a))
    lp = IntegerLP(b)
    for col, cj in zip(cols, c):
        lp.add_column(col, cj)
    lp.reoptimize()
    x, y, value = lp.primal(), lp.duals(), lp.value()

    _check_pair(c, A, cols, b, x, y, value)
    return SimplexResult(value / obj_scale, x,
                         [yi * s / obj_scale for yi, s in zip(y, row_scale)])


def _check_pair(c, A, cols, b, x, y, value) -> None:
    """Optimality of the primal x and dual y of max c.x s.t. Ax <= b, x >= 0
    on the integer data (rows times row_scale, costs times obj_scale), A
    given sparse by rows and by columns; x and y are checked as integer
    vectors over their own common denominators."""
    X, dx = scale_to_integers(x)
    Y, dy = scale_to_integers(y)
    if any(xi < 0 for xi in X):
        raise LPError("internal: primal negativity")
    for row, bi in zip(A, b):
        if sum(a * X[j] for j, a in row) > bi * dx:
            raise LPError("internal: primal infeasibility")
    if any(yi < 0 for yi in Y):
        raise LPError("internal: dual negativity")
    for col, cj in zip(cols, c):
        if sum(a * Y[i] for i, a in col) < cj * dy:
            raise LPError("internal: dual infeasibility")
    primal_obj = sum(ci * xi for ci, xi in zip(c, X))  # over dx
    dual_obj = sum(bi * yi for bi, yi in zip(b, Y))  # over dy
    if not (primal_obj * dy == dual_obj * dx
            and primal_obj * value.denominator == value.numerator * dx):
        raise LPError("internal: duality gap")
