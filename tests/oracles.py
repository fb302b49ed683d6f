"""Reference oracles for the tests: textbook Gauss-Jordan over Fraction, an
exact solve on it, the euclidean realizations of the classical root systems,
color vectors of spherical systems, orbit dimensions read off signed Young
diagrams, a Racah 6j/9j zero test and the pairwise Hilbert-basis
reduction.  None of them runs `linalg.echelon`, `korbits.cg` or any other
kernel that they check.

It also keeps the weight-monoid helpers that no command reaches yet, with
their tests: Cartan matrices, the a^x(1,1,1) color weights, the section
modules and the highest weights of the weight semigroup (ROADMAP items 7
and 8 bring back what they use)."""

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm

from korbits import rootlat
from korbits import semigroup as sg
from korbits.hermitian import SLPQ, SO_EVEN_GL, SO_EVEN_VECTOR, SO_ODD, SP


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


# ---------------------------------------------------------------------------
# Cartan matrices and weight monoids.

def cartan_matrix(type_, rank):
    """Bourbaki Cartan matrix of an irreducible classical root system, with
    entries a_ij = <alpha_i, alpha_j^vee>: row i is alpha_i in the basis of
    fundamental weights."""
    rootlat._validate(type_, rank)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if type_ == "B" and rank >= 2:
        a[rank - 2][rank - 1] = -2
    elif type_ == "C" and rank >= 2:
        a[rank - 1][rank - 2] = -2
    elif type_ == "D":
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    return a


def root_system_cartan(rs):
    """Block-diagonal Cartan matrix of a `RootSystem`; factors are mutually
    orthogonal."""
    n = rs.total_rank
    a = [[0] * n for _ in range(n)]
    for (t, r), off in zip(rs.components, rs.offsets()):
        block = cartan_matrix(t, r)
        for i in range(r):
            for j in range(r):
                a[off + i][off + j] = block[i][j]
    return a


def to_fund_weights(rs, v):
    """Rewrite a SimpleRoots vector of a `RootSystem` in the fundamental-weight
    basis."""
    assert v.basis == rootlat.SIMPLE_ROOTS
    a = root_system_cartan(rs)
    n = rs.total_rank
    coords = tuple(sum(v.coords[i] * a[i][j] for i in range(n)) for j in range(n))
    return rootlat.LatticeVector(rootlat.FUND_WEIGHTS, coords)


# T-weights of the a^x(1,1,1) line bundles, from the matrix-coefficient model.
AX111_COLOR_WEIGHTS = {"D1": (0, 1, 1), "D2": (1, 0, 1), "D3": (1, 1, 0)}


def sections_decomposition(system, e_vec):
    """The full list {F in N-Delta : F <=_Sigma E}, canonically ordered.

    Its length is the number of irreducible summands of the section module
    of the line bundle attached to E.
    """
    lat = sg.lattice(system)
    out = [tuple(x - y for x, y in zip(e_vec, lat.colors_of(c)))
           for c in lat.enumerate_sub(e_vec)]
    return sorted(out, reverse=True)


def weight_semigroup(system, lam1, lam2, color_weights, max_degree=4):
    """Highest weights n1 lam1 + n2 lam2 - omega(n1 Dp1 + n2 Dp2 - E) over
    the computed generators; needs a weight for every color."""
    missing = [c for c in system.colors if c not in color_weights]
    if missing:
        raise ValueError(f"missing color weights: {missing}")
    d1, d2 = sg._designated(system)
    wlen = len(lam1)
    out = []
    for g in sg.gamma_semigroup(system, max_degree):
        gamma = tuple(g.n1 * a + g.n2 * b - e for a, b, e in zip(d1, d2, g.E))
        corr = [0] * wlen
        for i, cname in enumerate(system.colors):
            for t in range(wlen):
                corr[t] += gamma[i] * color_weights[cname][t]
        out.append((g, tuple(g.n1 * lam1[t] + g.n2 * lam2[t] - corr[t] for t in range(wlen))))
    return out


def pairwise_hilbert_reduce(members):
    """The members that are no sum of two nonzero members, each tested
    against every other member, in sorted order."""
    mset = set(members)
    gens = []
    for m in sorted(mset):
        if not any(m):
            continue
        decomposable = False
        for a in mset:
            if not any(a) or a == m:
                continue
            if all(x <= y for x, y in zip(a, m)):
                rest = tuple(y - x for x, y in zip(a, m))
                if any(rest) and rest in mset:
                    decomposable = True
                    break
        if not decomposable:
            gens.append(m)
    return gens


# ---------------------------------------------------------------------------
# Orbit dimensions from the signed Young diagram.

def diagram_dims(rec):
    """(dim K_h, dim L_e, deficit) of an orbit record, from its signed
    partition alone.

    A row (a, s, m) has boxes of signs s, -s, s, ... with h-eigenvalues
    a-1, a-3, ...; SO(2n)/GL(n) rows count twice.  Rows of the paired
    parity (even for the SO vector cases, odd for Sp and SO(2n)/GL(n)) are
    half of sign s and half of sign -s, and each such row type adds
    GL(m/2) to L_e.  The deficit is dim L_e + dim Q^u - dim K_e, with
    dim Ke = dim G.e / 2 (Kostant-Rallis) and dim G.e from the Jordan
    partition (Collingwood-McGovern, Cor. 6.1.4).
    """
    family = rec.pair.family_id
    scale = 2 if family == SO_EVEN_GL else 1
    paired = {SO_ODD: 0, SO_EVEN_VECTOR: 0, SP: 1, SO_EVEN_GL: 1}.get(family)
    flip = {"+": "-", "-": "+"}
    boxes = {}      # (sign, h-eigenvalue) -> number of boxes
    parts = []      # the Jordan partition on the defining representation
    dim_le = 0
    for a, sign, m in rec.signed_partition():
        m *= scale
        parts += [a] * m
        if a % 2 == paired:
            rows = ((sign, m // 2), (flip[sign], m // 2))
            dim_le += (m // 2) ** 2
        else:
            rows = ((sign, m),)
            dim_le += {SLPQ: m * m, SO_EVEN_GL: comb(m + 1, 2)}.get(family, comb(m, 2))
        for first, count in rows:
            for i in range(a):
                key = (first if i % 2 == 0 else flip[first], a - 1 - 2 * i)
                boxes[key] = boxes.get(key, 0) + count
    plus = sum(c for (sg, _), c in boxes.items() if sg == "+")
    if family == SLPQ:
        dim_kh = sum(c * c for c in boxes.values()) - 1
        dim_le -= 1
        dim_k = plus ** 2 + (sum(boxes.values()) - plus) ** 2 - 1
    elif family in (SO_ODD, SO_EVEN_VECTOR):
        dim_kh = sum(c * c if lam > 0 else comb(c, 2)
                     for (_, lam), c in boxes.items() if lam >= 0)
        dim_k = comb(plus, 2) + 1
    else:
        dim_kh = sum(c * c for (sg, _), c in boxes.items() if sg == "+")
        dim_k = rec.pair.rank ** 2
    n = sum(parts)
    squares = sum(sum(1 for x in parts if x >= i) ** 2 for i in range(1, max(parts) + 1))
    odd = sum(x % 2 for x in parts)
    dim_orbit = {SLPQ: n * n - squares,
                 SP: comb(n + 1, 2) - (squares + odd) // 2}.get(
                     family, comb(n, 2) - (squares - odd) // 2)
    deficit = dim_le + (dim_k - dim_kh) // 2 - (dim_k - dim_orbit // 2)
    return dim_kh, dim_le, deficit


# ---------------------------------------------------------------------------
# Wigner 6j and 9j symbols (Racah 1942; Edmonds 1957, ch. 6), every angular
# momentum j given doubled, as the integer 2j = the SL(2) highest weight.

def triad(a, b, c):
    """Whether spins a/2, b/2, c/2 couple: even sum and the triangle rule."""
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


@cache
def delta_squared(a, b, c):
    """Racah's triangle coefficient Delta(a/2, b/2, c/2), squared."""
    s = (a + b + c) // 2
    return Fraction(factorial(s - c) * factorial(s - b) * factorial(s - a),
                    factorial(s + 1))


@cache
def racah_sum(j1, j2, j3, j4, j5, j6):
    """The 6j symbol {j1 j2 j3; j4 j5 j6} (halved) divided by its four
    triangle coefficients Delta(j1 j2 j3) Delta(j1 j5 j6) Delta(j4 j2 j6)
    Delta(j4 j5 j3); 0 when one of those triads fails."""
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(triad(*t) for t in triads):
        return Fraction(0)
    alphas = [sum(t) // 2 for t in triads]
    betas = [(j1 + j2 + j4 + j5) // 2, (j2 + j3 + j5 + j6) // 2, (j3 + j1 + j6 + j4) // 2]
    total = Fraction(0)
    for t in range(max(alphas), min(betas) + 1):
        den = 1
        for a in alphas:
            den *= factorial(t - a)
        for b in betas:
            den *= factorial(b - t)
        total += Fraction((-1) ** t * factorial(t + 1), den)
    return total


def nine_j_nonzero(j1, j2, j3, j4, j5, j6, j7, j8, j9):
    """Whether the 9j symbol {j1 j2 j3; j4 j5 j6; j7 j8 j9} (halved) is
    nonzero.  It is the sum over x of (-1)^2x (2x+1) {j1 j4 j7; j8 j9 x}
    {j2 j5 j8; j4 x j6} {j3 j6 j9; x j1 j2}.  The triangle coefficients of
    the six row and column triads are common positive factors, and those
    of the three triads holding x appear squared, so the zero test is exact
    over Q."""
    rows_and_columns = ((j1, j2, j3), (j4, j5, j6), (j7, j8, j9),
                        (j1, j4, j7), (j2, j5, j8), (j3, j6, j9))
    if not all(triad(*t) for t in rows_and_columns):
        return False
    low = max(abs(j1 - j9), abs(j4 - j8), abs(j2 - j6))
    high = min(j1 + j9, j4 + j8, j2 + j6)
    total = Fraction(0)
    for x in range(low + (low + j1 + j9) % 2, high + 1, 2):
        sums = (racah_sum(j1, j4, j7, j8, j9, x) * racah_sum(j2, j5, j8, j4, x, j6)
                * racah_sum(j3, j6, j9, x, j1, j2))
        if sums:
            total += ((-1) ** x * (x + 1) * sums * delta_squared(j1, j9, x)
                      * delta_squared(j8, j4, x) * delta_squared(j2, x, j6))
    return total != 0
