"""Fraction views of a DominatingDistribution, for tests: its atoms as
(mask, probability) pairs, and one vertex's membership and domination
probability summed over them."""

from fractions import Fraction


def fractions(d):
    return tuple((s, Fraction(a, d.den)) for s, a in d.atoms)


def membership(d, v):
    return sum((p for s, p in fractions(d) if (s >> v) & 1), Fraction(0))


def dominated_prob(d, g, v):
    nb = g.closed_mask[v]
    return sum((p for s, p in fractions(d) if s & nb), Fraction(0))
