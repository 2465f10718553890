import random
from fractions import Fraction as F

import pytest

from fdomlab import fdom, simplex
from fdomlab.domset import complete_to_dominating, min_weight_dominating_set
from fdomlab.generators import coxeter
from fdomlab.graphs import mask_to_list
from fdomlab.simplex import IntegerLP, LPInfeasible, LPUnbounded, simplex_exact


def test_trivial_box():
    res = simplex_exact([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
    assert res.value == 2
    assert res.x == [F(1), F(1)]


def test_covering_via_negated_rows():
    res = simplex_exact([F(-1), F(-1)], [[F(-1), F(-1)]], [F(-1)])
    assert -res.value == 1


def test_infeasible_and_unbounded():
    with pytest.raises(LPInfeasible):
        simplex_exact([F(1)], [[F(1)]], [F(-1)])
    with pytest.raises(LPUnbounded):
        simplex_exact([F(1)], [[F(-1)]], [F(1)])


def test_beale_cycling_example():
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [[F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)]]
    b = [F(0), F(0), F(1)]
    assert simplex_exact(c, rows, b).value == F(1, 20)


def test_random_lps_carry_optimality_certificates():
    # primal feasibility + dual feasibility + equal objectives is a full
    # optimality proof, so no external oracle is needed
    rng = random.Random(11)
    solved = 0
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-3, 6)) for _ in range(m)]
        c = [F(rng.randint(-4, 4)) for _ in range(n)]
        try:
            res = simplex_exact(c, rows, b)
        except (LPInfeasible, LPUnbounded):
            continue
        solved += 1
        assert all(x >= 0 for x in res.x)
        for row, bi in zip(rows, b):
            assert sum(a * x for a, x in zip(row, res.x)) <= bi
        assert all(y >= 0 for y in res.y)
        for j in range(n):
            assert sum(rows[i][j] * res.y[i] for i in range(m)) >= c[j]
        assert sum(ci * xi for ci, xi in zip(c, res.x)) == res.value
        assert sum(bi * yi for bi, yi in zip(b, res.y)) == res.value
    assert solved > 30


def _outcome(b, columns, split):
    """Solve with the first `split` columns, then append the rest and
    re-optimise from the same kernel; the value or the exception class."""
    lp = IntegerLP(b)
    try:
        for k, (entries, cost) in enumerate(columns):
            if k == split:
                lp.reoptimize()
            lp.add_column(entries, cost)
        lp.reoptimize()
    except (LPInfeasible, LPUnbounded) as exc:
        return type(exc)
    return lp.value()


def test_warm_start_matches_cold_solve():
    rng = random.Random(12)
    solved = 0
    for _ in range(150):
        m = rng.randint(1, 5)
        b = [rng.randint(-3, 6) for _ in range(m)]
        # one column per negative row first, so that every prefix is feasible
        columns = [([(i, -1)], -5) for i in range(m) if b[i] < 0]
        feasible_prefix = len(columns)
        for _ in range(rng.randint(1, 8)):
            columns.append(([(i, rng.randint(-3, 4)) for i in range(m)],
                            rng.randint(-3, 4)))
        cold = _outcome(b, columns, len(columns))
        for split in range(feasible_prefix, len(columns)):
            assert _outcome(b, columns, split) == cold
        solved += not isinstance(cold, type)
    assert solved > 50


def _inverse(B):
    """Gauss-Jordan inverse over Fractions."""
    m = len(B)
    aug = [[F(v) for v in row] + [F(int(i == j)) for j in range(m)]
           for i, row in enumerate(B)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * p for a, p in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def _unpacked(lp):
    """M row by row, read off the packed columns one lane at a time: lane i
    of Mc[k] is M[i][k] in mw-bit two's complement, and nothing lies above
    lane m - 1."""
    word = 1 << lp.mw
    cols = []
    for c in lp.Mc:
        col = []
        for _ in range(lp.m):
            v = c % word
            v -= word if 2 * v >= word else 0
            col.append(v)
            c = (c - v) // word
        assert c == 0
        cols.append(col)
    return [list(row) for row in zip(*cols)]


class InverseChecked(IntegerLP):
    """After every `every`-th pivot, checks M == D * B^-1 against a Fraction
    inverse, beta == M |b| and y == c_B M for the costs of the current run;
    records alpha_r and the lane width of every pivot."""

    def __init__(self, b, every=1):
        super().__init__(b)
        self.rhs = [abs(v) for v in b]
        self.every, self.pivots, self.widths = every, [], []

    def _run(self, costs):
        self.costs = costs
        super()._run(costs)

    def _pivot(self, r, q, alpha, dq):
        super()._pivot(r, q, alpha, dq)
        self.pivots.append(alpha[r])
        self.widths.append(self.mw)
        if len(self.pivots) % self.every == 0:
            self.check()

    def check(self):
        m = self.m
        B = [[0] * m for _ in range(m)]
        for k, j in enumerate(self.basis):
            rows, vals, _ = self.cols[j]
            for i, a in zip(rows, vals):
                B[i][k] = a
        inv = _inverse(B)
        M = _unpacked(self)
        assert self.D > 0
        assert M == [[self.D * v for v in row] for row in inv]
        assert self.beta == [sum(Mi[k] * self.rhs[k] for k in range(m)) for Mi in M]
        assert self.y == [sum(self.costs[j] * M[i][k] for i, j in enumerate(self.basis))
                          for k in range(m)]


def _checked_solve(b, columns):
    """Solve, asserting M == D * B^-1 and the integer basic values and
    duals after every pivot; returns the alpha_r of each pivot."""
    lp = InverseChecked(b)
    for entries, cost in columns:
        lp.add_column(entries, cost)
    lp.reoptimize()
    costs = [cost for _, _, cost in lp.cols]
    M = _unpacked(lp)
    assert lp.y == [sum(costs[j] * M[i][k] for i, j in enumerate(lp.basis))
                    for k in range(lp.m)]
    return lp, lp.pivots


def test_integer_inverse_after_every_pivot():
    # Beale's cycling example scaled to integers
    lp, pivots = _checked_solve(
        [0, 0, 1], [([(0, 25), (1, 50)], 75), ([(0, -6000), (1, -9000)], -15000),
                    ([(0, -4), (1, -2), (2, 1)], 2), ([(0, 900), (1, 300)], -600)])
    assert lp.value() == 5 and len(pivots) > 2
    # phase 1 with a basic artificial driven out on a negative entry
    lp, pivots = _checked_solve([1, -1], [([(0, 1), (1, -1)], 1)])
    assert lp.value() == 1 and min(pivots) < 0
    # a covering LP with a redundant row: phase 1 ends with an artificial
    # basic at zero, which is driven out before phase 2
    lp, pivots = _checked_solve([-1, -2], [([(0, -1), (1, -2)], -1),
                                           ([(0, -1), (1, -2)], -1)])
    assert lp.value() == -1
    assert all(j < lp.m or j >= lp.first for j in lp.basis)


def test_packed_inverse_at_lanes_wider_than_a_word():
    # a warm-started sequence: solve on small entries (64-bit lanes), then
    # add columns with entries times 2^30, re-optimising after each; when
    # they enter, the Hadamard bound widens the lanes and M is re-laid
    rng = random.Random(14)
    wide_pivots = grown = 0
    for _ in range(200):
        m = rng.randint(2, 5)
        b, columns = _random_columns(rng, m, 1)
        lp = InverseChecked(b)
        for entries, cost in columns:
            lp.add_column(entries, cost)
        try:
            lp.reoptimize()
            assert lp.mw == simplex.WORD
            for _ in range(rng.randint(2, 6)):
                # one positive entry keeps the new column from being a ray
                top = rng.randrange(m)
                lp.add_column([(i, rng.randint(1 if i == top else -3, 4) << 30)
                               for i in range(m)], rng.randint(-3, 4))
                lp.check()
                lp.reoptimize()
        except (LPInfeasible, LPUnbounded):
            continue
        wide = sum(w > simplex.WORD for w in lp.widths)
        wide_pivots += wide
        grown += wide > 0 and lp.widths[0] == simplex.WORD
    assert grown > 25 and wide_pivots > 60


@pytest.mark.parametrize("width", [128, 192])
def test_unpack_joins_the_words_of_wide_lanes(width):
    rng = random.Random(width)
    nbytes = width // 8
    for count in (1, 2, 3, 40):
        lanes = [rng.choice([0, 1, (1 << width) - 1, 1 << (width - 1), 1 << 64,
                             rng.getrandbits(width)]) for _ in range(count)]
        T = sum(v << (j * width) for j, v in enumerate(lanes))
        raw = T.to_bytes(nbytes * count, "little")
        per_lane = [int.from_bytes(raw[k:k + nbytes], "little")
                    for k in range(0, len(raw), nbytes)]
        assert list(simplex._unpack(T, width, count)) == per_lane == lanes


def test_packed_inverse_on_the_coxeter_master():
    # m = 28: every lane and the row shifts past the fourth are read, over
    # the warm starts of column generation priced at the master's own duals
    # (fdom_colgen prices at smoothed duals first and takes fewer pivots)
    g = coxeter()
    lp = InverseChecked([1] * g.n, every=50)
    pool = []

    def add(col):
        pool.append(col)
        lp.add_column([(v, 1) for v in mask_to_list(col)], 1)

    for col in fdom._greedy_domatic_columns(g) + list(g.closed_mask):
        col = complete_to_dominating(g, col)
        if col not in pool:
            add(col)
    while True:
        lp.reoptimize()
        col, w = min_weight_dominating_set(g, lp.scaled_duals())
        if w >= lp.D:
            break
        assert col not in pool
        add(col)
    assert lp.value() == 4
    assert lp.m == 28 and len(lp.pivots) >= 500
    assert len(lp.cols) - lp.first > 40  # columns added by pricing, then re-optimised
    lp.check()


class PricingChecked(IntegerLP):
    """Checks every entering column against reduced costs computed here,
    one column at a time, from cols, y and D: Dantzig's rule takes the
    first column of least negative reduced cost, Bland's rule (after
    BLAND_AFTER degenerate pivots in a row) the first negative one, and an
    optimal run leaves none negative."""

    def __init__(self, b):
        super().__init__(b)
        self.pricing = False
        self.widths = []  # the lane width at each priced pivot

    def reduced_costs(self):
        return [sum(self.y[i] * a for i, a in zip(rows, vals)) - self.D * self.costs[j]
                for j, (rows, vals, _) in enumerate(self.cols)]

    def _run(self, costs):
        self.costs, self.pricing, self.degenerate_run = costs, True, 0
        super()._run(costs)
        self.pricing = False
        assert min(self.reduced_costs()) >= 0

    def _pivot(self, r, q, alpha, dq):
        if self.pricing:
            d = self.reduced_costs()
            if self.degenerate_run >= simplex.BLAND_AFTER:
                want = next(j for j, v in enumerate(d) if v < 0)
            else:
                want = d.index(min(d))
            assert (q, dq) == (want, d[want]) and dq < 0
            self.degenerate_run = self.degenerate_run + 1 if self.beta[r] == 0 else 0
            self.widths.append(self.width)
        super()._pivot(r, q, alpha, dq)


def _random_columns(rng, m, scale):
    b = [rng.randint(-3, 6) * scale for _ in range(m)]
    columns = [([(i, -1)], -5) for i in range(m) if b[i] < 0]
    for _ in range(rng.randint(1, 8)):
        columns.append(([(i, rng.randint(-3, 4) * scale) for i in range(m)],
                        rng.randint(-3, 4)))
    return b, columns


@pytest.mark.parametrize("bland_after", [simplex.BLAND_AFTER, 0])
def test_packed_pricing_picks_the_per_column_choice(monkeypatch, bland_after):
    monkeypatch.setattr(simplex, "BLAND_AFTER", bland_after)
    rng = random.Random(13)
    priced = grown = 0
    # entries of 2^30 push D and y past 64-bit lanes partway through a run
    for scale in [1] * 200 + [1 << 30] * 80:
        b, columns = _random_columns(rng, rng.randint(1, 5), scale)
        lp = PricingChecked(b)
        for entries, cost in columns:
            lp.add_column(entries, cost)
        try:
            lp.reoptimize()
        except (LPInfeasible, LPUnbounded):
            continue
        priced += len(lp.widths)
        grown += bool(lp.widths) and lp.widths[0] == simplex.WORD < lp.widths[-1]
    assert priced > 250 and grown > 8


BEALE = ([0, 0, 1], [([(0, 25), (1, 50)], 75), ([(0, -6000), (1, -9000)], -15000),
                     ([(0, -4), (1, -2), (2, 1)], 2), ([(0, 900), (1, 300)], -600)])


def test_objective_times_2_70_needs_wide_lanes_and_scales_the_value():
    big = 1 << 70
    for b, columns in [BEALE] + [_random_columns(random.Random(s), 4, 1) for s in range(40)]:
        results = []
        for scale in (1, big):
            lp = PricingChecked(b)
            for entries, cost in columns:
                lp.add_column(entries, cost * scale)
            try:
                lp.reoptimize()
            except (LPInfeasible, LPUnbounded) as exc:
                results.append(type(exc))
                continue
            results.append((lp.primal(), lp.value()))
            assert lp.width == (simplex.WORD if scale == 1 else 2 * simplex.WORD)
        if isinstance(results[0], tuple):
            assert results[1] == (results[0][0], results[0][1] * big)
        else:
            assert results[1] is results[0]
    # the same through simplex_exact, on Beale's rational form
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [[F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)]]
    small = simplex_exact(c, rows, [0, 0, 1])
    scaled = simplex_exact([v * big for v in c], rows, [0, 0, 1])
    assert scaled.x == small.x and scaled.value == small.value * big == F(big, 20)
