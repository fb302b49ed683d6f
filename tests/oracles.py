"""Reference oracles for the tests: textbook Gauss-Jordan over Fraction, an
exact solve on it, the euclidean realizations of the classical root systems
and color vectors of spherical systems.  None of them runs `linalg.echelon`
or any other kernel that they check."""

from fractions import Fraction
from math import lcm


def reference_rref(rows):
    """Textbook Gauss-Jordan over Fraction: (nonzero rref rows, pivots)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def solve(a_columns, b):
    """A Fraction solution of sum_j x_j * a_columns[j] = b with every free
    variable 0, or None if the system is inconsistent."""
    ncols = len(a_columns)
    aug = [[col[i] for col in a_columns] + [b[i]] for i in range(len(b))]
    red, pivots = reference_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return x


# ---------------------------------------------------------------------------
# Euclidean realizations of the classical root systems (Bourbaki numbering).

def simple_roots_euclidean(type_, rank):
    dim = rank + 1 if type_ == "A" else rank

    def e(i):
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        return v

    def minus(u, w):
        return [a - b for a, b in zip(u, w)]

    roots = [minus(e(i), e(i + 1)) for i in range(rank - 1)]
    if type_ == "A":
        roots.append(minus(e(rank - 1), e(rank)))
    elif type_ == "B":
        roots.append(e(rank - 1))
    elif type_ == "C":
        roots.append([2 * x for x in e(rank - 1)])
    else:
        roots.append([a + b for a, b in zip(e(rank - 2), e(rank - 1))])
    return roots


def _dot(u, w):
    return sum(a * b for a, b in zip(u, w))


def all_roots_euclidean(type_, rank):
    """Close the simple roots under simple reflections."""
    simples = simple_roots_euclidean(type_, rank)
    norms = [_dot(a, a) for a in simples]
    roots = {tuple(a) for a in simples}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for a, n2 in zip(simples, norms):
                c = 2 * _dot(beta, a) / n2
                img = tuple(x - c * y for x, y in zip(beta, a))
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    return [list(r) for r in roots]


def highest_root_euclidean(type_, rank):
    """theta in the simple-root basis, by maximizing height over all roots."""
    simples = simple_roots_euclidean(type_, rank)
    best = None
    for beta in all_roots_euclidean(type_, rank):
        coeffs = solve(simples, beta)
        if coeffs is None:
            continue
        h = sum(coeffs)
        if best is None or h > best[0]:
            best = (h, coeffs)
    return [int(c) for c in best[1]]


def pairing_with_coroot(type_, rank, v, j):
    """<v, alpha_j^vee> for v in the SimpleRoots basis (1-based j)."""
    simples = simple_roots_euclidean(type_, rank)
    vec = [sum(Fraction(v.coords[i]) * simples[i][t] for i in range(rank))
           for t in range(len(simples[0]))]
    a = simples[j - 1]
    return 2 * _dot(vec, a) / _dot(a, a)


def cocharacter_order(type_, rank, p):
    """Minimal m with m * omega_p^vee in the coroot lattice (1-based p)."""
    simples = simple_roots_euclidean(type_, rank)
    coroots = [[2 * x / _dot(a, a) for x in a] for a in simples]
    # omega_p^vee = sum_i c_i alpha_i^vee solves (omega, alpha_j) = delta_pj;
    # column i of the system is (alpha_i^vee, alpha_j)_j.
    columns = [[_dot(coroots[i], simples[j]) for j in range(rank)] for i in range(rank)]
    rhs = [Fraction(1) if j == p - 1 else Fraction(0) for j in range(rank)]
    coeffs = solve(columns, rhs)
    assert coeffs is not None
    return lcm(*[c.denominator for c in coeffs])


def color_sum(system, *names):
    """The sum of the named unit color vectors of a spherical system."""
    v = [0] * len(system.colors)
    for name in names:
        v[system.color_index(name)] += 1
    return tuple(v)
