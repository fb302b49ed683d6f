import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korbits import linalg
from oracles import reference_rref

PRIME = (1 << 61) - 1


def reference_rank_mod_p(rows, p):
    """Textbook Gaussian elimination over GF(p)."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@st.composite
def matrices(draw, entries=st.integers(-3, 3)):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    # Combinations of two rows make rank deficiency common.
    for a, b in draw(st.lists(st.tuples(entries, entries), max_size=2)):
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


def test_rank_small():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert linalg.rank([[0, 0], [0, 0]]) == 0


def test_commutator():
    a = [[0, 1], [0, 0]]
    b = [[0, 0], [1, 0]]
    assert linalg.commutator(a, b) == [[1, 0], [0, -1]]


def test_simplex_bounded():
    # max x + y s.t. x + y <= 3, x <= 2
    status, val = linalg.simplex_max([[1, 1], [1, 0]], [3, 2], [1, 1])
    assert status == "optimal" and val == 3


def test_simplex_unbounded():
    status, val = linalg.simplex_max([[-1, 0]], [0], [1, 0])
    assert status == "unbounded"


def test_simplex_rational():
    # max y s.t. 2y <= 1
    status, val = linalg.simplex_max([[0, 2]], [1], [0, 1])
    assert status == "optimal" and val == Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_matches_fraction_reference(rows):
    red, pivots, d = linalg.echelon(rows)
    ref, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots
    assert d > 0
    assert [[Fraction(x, d) for x in row] for row in red] == ref
    assert linalg.rank(rows) == linalg.rank(sparse(rows)) == len(ref_pivots)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_mod_p_at_most_rank_over_q(rows):
    rank_q = linalg.rank(rows)
    for p in (3, PRIME):
        rank_p = reference_rank_mod_p(rows, p)
        assert linalg.rank(rows, p) == linalg.rank(sparse(rows), p) == rank_p <= rank_q


def sparse_rank_deficient(rng, nrows=40, ncols=80, rank=25, density=0.1):
    """nrows x ncols integer rows, about `density` nonzero, entries up to
    10^6: `rank` random rows, then combinations of two of them, shuffled."""
    base = [[rng.randint(-10**6, 10**6) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(rank)]
    rows = base + [[a * x + b * y for x, y in zip(*rng.sample(base, 2))]
                   for a, b in ((rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(nrows - rank))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_rank_of_large_sparse_rank_deficient_matrices(seed):
    rows = sparse_rank_deficient(random.Random(seed))
    ref, ref_pivots = reference_rref(rows)
    assert len(ref_pivots) <= 25
    assert linalg.rank(rows) == linalg.rank(sparse(rows)) == len(ref_pivots)
    rank_p = reference_rank_mod_p(rows, PRIME)
    assert linalg.rank(rows, PRIME) == linalg.rank(sparse(rows), PRIME) == rank_p
    red, pivots, d = linalg.echelon(rows)
    assert pivots == ref_pivots
    assert [[Fraction(x, d) for x in row] for row in red] == ref
