"""Dense Fraction reference kernels, kept as the oracle for the sparse ones.

Each function is the plain loop the library used before its kernels
learned to skip zeros and to sum on ints: every product is a
``Fraction`` product, every row is updated on every column, and every
Gram entry is evaluated on its own from dense brackets and dots.  Type
A's defining representation (``sl_realization``), which the library
built beside its Chevalley coordinates until ``from_matrix`` read them in
closed form, is the oracle of ``from_matrix`` and of type A's table.  The
group oracle is the matrix route the library's adjoint group replaced:
exponentiate a type-A matrix and conjugate every basis matrix by it.  The
membership rules of the Slodowy slice and of its diagonal, which the
affine model replaced, are kept as the oracle of ``poisson.slodowy_slice``
and ``poisson.diagonal``.  The sign recursion on root tuples (``TupleRoots``,
``SignBuilder``, ``chevalley_table``) is the one the library ran before it
read roots by basis index, kept as the oracle of ``lie._table_from_roots``
and of ``RootSystem``'s index forms.  ``solve`` solves A x = b for the
tests; the library's one solve is ``inverse``.  The stabilizer fiber's
two-step route, an annihilator and then a second nullspace with sigma's
image of it, which ``poisson.algebroid_fiber`` replaced by one linear
system, is the oracle of that system.  Two routes that only tests called left the
library for this file: ``intersect_spans``, whose question the library
answers with ``kernel_within`` alone, and ``fiber_by_intersection``, the
general ds^{-1}(TS) ∩ dt^{-1}(TS) ∩ (TS)^Omega route that the closed-form
groupoid fibers are cross-checked against; and ``structure_constant``,
one constant read off the table, which no route of the library reads
that way.  The differential tests require
the library to return exactly what these do, or, for the fiber, the same
span.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Sequence

from symred import lie
from symred import linalg as la
from symred.lie import LieAlgebra
from symred.linalg import Matrix, Q, Vector


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Q(0))


def rref(rows: Sequence[Vector]) -> tuple[list[list[Fraction]], list[int]]:
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Vector], n: int) -> list[Vector]:
    """One basis vector in Q^n per free column c of the rref: 1 at c, -rref[i][c] at the i-th pivot."""
    m, pivots = rref(rows)
    basis = []
    for c in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[c] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][c]
        basis.append(tuple(v))
    return basis


def solve(a: Sequence[Vector], b: Vector) -> Vector | None:
    """One solution of A x = b off the rref of [A | b]: x[p] is the last entry of the row of pivot p.

    None when b is outside the column space: then the rref has a pivot in b's column.
    """
    n = len(a[0])
    m, pivots = rref([tuple(row) + (bi,) for row, bi in zip(a, b, strict=True)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for row, p in zip(m, pivots):
        x[p] = row[n]
    return tuple(x)


def det(a: Sequence[Vector]) -> Fraction:
    n = len(a)
    m = [list(r) for r in a]
    result = Q(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        inv = Q(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def extend_to_basis(sub: Sequence[Vector], space: Sequence[Vector]) -> list[Vector]:
    """Greedy: one rank computation per candidate vector."""
    current = list(sub)
    r = rank(current)
    added = []
    for v in space:
        if rank(current + [v]) > r:
            current.append(v)
            added.append(v)
            r += 1
    return added


def algebroid_fiber(sigma: Matrix, tangent: Sequence[Vector], n: int) -> tuple[list[Vector], bool]:
    """(basis of L_xi, L_xi ⊆ ker sigma) by two nullspaces: (T S)°, then the eta in it with sigma eta in T S.

    sigma eta lies in T S exactly when it pairs to zero with every w in
    (T S)°, that is when (sigma^T w) . eta = 0.  `tangent` need only span T S.
    """
    tangent = list(tangent)
    ann = nullspace(tangent, n)
    sigma_t = [tuple(row[j] for row in sigma) for j in range(n)]
    basis = nullspace(tangent + [mat_vec(sigma_t, w) for w in ann], n)
    return basis, all(x == 0 for b in basis for x in mat_vec(sigma, b))


def omega(alg: LieAlgebra, xi: Vector, v1: Vector, v2: Vector) -> Fraction:
    """-z2(u1) + z1(u2) - xi([u1, u2]) by the dense ``dot`` and ``bracket`` below."""
    n = alg.dim
    u1, z1, u2, z2 = v1[:n], v1[n:], v2[:n], v2[n:]
    return -dot(z2, u1) + dot(z1, u2) - dot(xi, bracket(alg, u1, u2))


def omega_gram(alg: LieAlgebra, xi: Vector, vectors: Sequence[Vector]) -> list[Vector]:
    """Every entry by its own ``omega``, diagonal and lower triangle included."""
    return [tuple(omega(alg, xi, a, b) for b in vectors) for a in vectors]


def coadjoint_matrix(alg: LieAlgebra, xi: Vector) -> Matrix:
    """C[i][j] = xi([e_i, e_j]) = sum_k xi_k c_ij^k, a ``Fraction`` sum over every table entry."""
    return tuple(tuple(sum((xi[k] * c for k, c in entry), Q(0)) for entry in row) for row in alg.table)


def verify_jacobi(alg: LieAlgebra) -> bool:
    """Jacobi on every basis triple, through dense brackets."""
    n = alg.dim
    basis = [alg.basis_vec(i) for i in range(n)]
    pair_brackets = [[alg.bracket(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = la.add(
                    la.add(
                        alg.bracket(pair_brackets[i][j], basis[k]),
                        alg.bracket(pair_brackets[j][k], basis[i]),
                    ),
                    alg.bracket(pair_brackets[k][i], basis[j]),
                )
                if not la.is_zero(s):
                    return False
    return True


def kernel_within(m, sub: Sequence[Vector]) -> list[Vector]:
    """{v in span(sub) : M v = 0}: coefficient nullspace, then an add/scale loop."""
    if not sub:
        return []
    imgs = [la.mat_vec(m, v) for v in sub]
    if not imgs[0]:
        # zero-dimensional codomain: the whole subspace maps to zero
        return la.span_basis(sub)
    coeffs = la.nullspace(la.transpose(imgs), len(sub))
    out = []
    for c in coeffs:
        v = la.zeros(len(sub[0]))
        for ci, b in zip(c, sub):
            v = la.add(v, la.scale(ci, b))
        out.append(v)
    return la.span_basis(out)


def intersect_spans(a: Sequence[Vector], b: Sequence[Vector]) -> list[Vector]:
    """Canonical basis of span(a) ∩ span(b): the kernel, inside span(a), of the annihilator of b."""
    if not b:
        return []
    return kernel_within(nullspace(b, len(b[0])), a)


def fiber_by_intersection(alg: LieAlgebra, s_model, xi: Vector) -> list[Vector]:
    """ds^{-1}(T S) ∩ dt^{-1}(T S) ∩ (T S)^Omega at the identity bisection, by one dense nullspace.

    The general route that the closed-form fibers of ``groupoid`` replace:
    flat (u, zeta) with dt = zeta and ds = ad*_u xi + zeta in T S, and
    Omega-orthogonal to 0 x T S.
    """
    xi = tuple(xi)
    n = alg.dim
    tangent = s_model.tangent_basis(xi)
    ann = la.nullspace(tangent, n)
    zero = (Q(0),) * n
    # dt(u, zeta) = zeta in T S
    rows = [zero + tuple(w) for w in ann]
    # ds(u, zeta) = ad*_u xi + zeta in T S; w(ad*_u xi) = -(C w)·u
    c = coadjoint_matrix(alg, xi)
    rows += [tuple(-x for x in mat_vec(c, w)) + tuple(w) for w in ann]
    # (u, zeta) Omega-orthogonal to 0 x T S: Omega((u, zeta), (0, t)) = t(u)
    rows += [tuple(t) + zero for t in tangent]
    return nullspace(rows, 2 * n)


def ad_star(alg: LieAlgebra, x: Vector, xi: Vector) -> Vector:
    """ad*_x xi = -xi([x, .]), walking the table once per output coordinate."""
    out = []
    for j in range(alg.dim):
        acc = Q(0)
        for i, xv in enumerate(x):
            if xv == 0:
                continue
            for k, c in alg.table[i][j]:
                acc += xv * c * xi[k]
        out.append(-acc)
    return tuple(out)


def killing(alg: LieAlgebra):
    """K[i][j] = tr(ad_i ad_j) by the dense i, j, m loop, one lookup per table entry."""
    n = alg.dim
    lookup = [[dict(entry) for entry in row] for row in alg.table]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Q(0)
            for m in range(n):
                for k, c in alg.table[j][m]:
                    acc += c * lookup[i][k].get(m, Q(0))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def mat_vec(a: Sequence[Vector], v: Vector) -> Vector:
    """Every row dotted with the whole of v."""
    return tuple(dot(row, v) for row in a)


def structure_constant(alg: LieAlgebra, i: int, j: int, k: int) -> Fraction:
    """c_ij^k, the coefficient of e_k in the table entry [e_i, e_j], read off its first match."""
    return Q(next((c for m, c in alg.table[i][j] if m == k), 0))


def bracket(alg: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[x, y] by the dense double loop over every coordinate pair."""
    out = [Q(0)] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k, c in alg.table[i][j]:
                out[k] += x[i] * y[j] * c
    return tuple(out)


def sl_position(beta):
    """(i, j + 1) for the type-A root alpha_i + ... + alpha_j."""
    return beta.index(1), len(beta) - tuple(reversed(beta)).index(1)


def mat_mul(a: Sequence[Vector], b: Sequence[Vector]) -> Matrix:
    """a b, every entry a dense ``dot`` of a row of a with a column of b.

    A ragged b or a row of a whose length is not len(b) raises ``ValueError``
    (both zips are strict), and a b of no columns gives empty rows.
    """
    cols = list(zip(*b, strict=True))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(mat_mul(a, b), mat_mul(b, a)))


def sl_realization(alg: LieAlgebra) -> list[Matrix]:
    """The defining representation of sl(rank+1) on the basis of a type-A ``alg``, from its table.

    h_i = E_ii - E_{i+1,i+1}, e_{alpha_i} = E_{i,i+1} and f_{alpha_i} =
    E_{i+1,i} satisfy the Chevalley-Serre relations of the table, so exactly
    one homomorphism extends them.  It is computed root by root in height
    order: with (x, y) the extraspecial pair of gamma, e_{±gamma} =
    [e_{±x}, e_{±y}] / N_{±x,±y}, each N read off the table.
    """
    rank, rs = alg.rank, alg.root_data
    size = rank + 1

    def elementary(*entries):
        m = [[Q(0)] * size for _ in range(size)]
        for r, s, c in entries:
            m[r][s] = Q(c)
        return tuple(tuple(row) for row in m)

    reps = [None] * alg.dim
    for i in range(rank):
        simple = tuple(int(j == i) for j in range(rank))
        reps[i] = elementary((i, i, 1), (i + 1, i + 1, -1))
        reps[rs.vector_index(simple)] = elementary((i, i + 1, 1))
        reps[rs.vector_index(tuple(-c for c in simple))] = elementary((i + 1, i, 1))
    for gamma in rs.positive[rank:]:  # the simple roots come first
        g = rs.vector_index(gamma)
        x, y = rs._special[g]  # the indices of gamma's extraspecial pair
        for a, b, c in ((x, y, g), (rs._neg[x], rs._neg[y], rs._neg[g])):
            n = structure_constant(alg, a, b, c)
            reps[c] = tuple(tuple(v / n for v in row) for row in commutator(reps[a], reps[b]))
    return reps


def sl_table(alg: LieAlgebra):
    """Type-A structure constants from one ``commutator`` per basis pair.

    A matrix m of sl(rank+1) has coordinates h_k = m_00 + ... + m_kk.  The
    root alpha_i + ... + alpha_j has e = ±E_{i,j+1} and f = ±E_{j+1,i} in
    ``sl_realization``, so m's e- and f-coordinates are m[i][j+1] and
    m[j+1][i], each times the sign of the realization's matrix.
    """
    rank, reps, positive = alg.rank, sl_realization(alg), alg.root_data.positive
    npos = len(positive)

    def extract(m):
        coords = [Q(0)] * alg.dim
        for k in range(rank):
            coords[k] = sum((m[t][t] for t in range(k + 1)), Q(0))
        for t, beta in enumerate(positive):
            r, s = sl_position(beta)
            coords[rank + t] = m[r][s] * reps[rank + t][r][s]
            coords[rank + npos + t] = m[s][r] * reps[rank + npos + t][s][r]
        return coords

    table = []
    for i in range(alg.dim):
        row = []
        for j in range(alg.dim):
            comm = commutator(reps[i], reps[j])
            row.append(tuple((k, c) for k, c in enumerate(extract(comm)) if c != 0))
        table.append(tuple(row))
    return tuple(table)


def verify_killing_invariance(alg: LieAlgebra) -> bool:
    """kappa([e_i, e_j], e_k) + kappa(e_j, [e_i, e_k]) = 0 on every triple (i, j, k).

    Each term is summed from the table entries and K directly, with no
    symmetry of K assumed, so j > k is checked too.
    """
    n, k_mat = alg.dim, alg.killing
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum((c * k_mat[m][k] for m, c in alg.table[i][j]), Q(0))
                rhs = sum((c * k_mat[j][m] for m, c in alg.table[i][k]), Q(0))
                if lhs + rhs != 0:
                    return False
    return True


def realize(reps: Sequence[Matrix], x: Vector) -> Matrix:
    """sum_i x_i reps[i], every cell summed."""
    size = len(reps[0])
    return tuple(
        tuple(sum((c * rep[r][s] for c, rep in zip(x, reps, strict=True)), Q(0)) for s in range(size))
        for r in range(size)
    )


def block_realization(reps: Sequence[Matrix], n: int) -> list[Matrix]:
    """The realization of g^n: g's matrices in each of n diagonal blocks, factor by factor."""
    size = len(reps[0])
    out = []
    for k in range(n):
        for rep in reps:
            big = [[Q(0)] * (n * size) for _ in range(n * size)]
            for r in range(size):
                for s in range(size):
                    big[k * size + r][k * size + s] = rep[r][s]
            out.append(tuple(tuple(row) for row in big))
    return out


def exp_nilpotent(m: Matrix) -> Matrix:
    """exp(m) for a nilpotent matrix m, by its finite series."""
    size = len(m)
    total = [list(row) for row in la.identity(size)]
    term = la.identity(size)
    for k in range(1, size + 1):
        term = tuple(tuple(dot(row, col) / k for col in zip(*m)) for row in term)
        for r in range(size):
            for s in range(size):
                total[r][s] += term[r][s]
    if any(v != 0 for row in term for v in row):
        raise ValueError("matrix is not nilpotent")
    return tuple(tuple(row) for row in total)


def conjugation_adjoint(reps: Sequence[Matrix], g: Matrix) -> tuple[Matrix, Matrix]:
    """(Ad_g, Ad_{g^-1}) of an invertible matrix g: column j holds the
    coordinates of g reps[j] g^-1 (of g^-1 reps[j] g), solved for in the
    span of the flattened ``reps``."""
    ginv = la.inverse(g)
    flat = la.transpose([tuple(v for row in rep for v in row) for rep in reps])

    def coords(m):
        x = solve(flat, tuple(v for row in m for v in row))
        if x is None:
            raise ValueError("conjugate lies outside the realized algebra")
        return x

    ad = [coords(mat_mul(mat_mul(g, rep), ginv)) for rep in reps]
    ad_inv = [coords(mat_mul(mat_mul(ginv, rep), g)) for rep in reps]
    return la.transpose(ad), la.transpose(ad_inv)


def matrix_group_element(alg: LieAlgebra, g) -> lie.GroupElement:
    """Ad_g of an invertible type-A matrix g, by conjugating ``sl_realization``."""
    return lie.GroupElement(*conjugation_adjoint(sl_realization(alg), la.mat(g)))


def centralizer(alg: LieAlgebra, x: Vector) -> list[Vector]:
    """g_x as the nullspace of the dense matrix of ad_x, one ``bracket`` per column."""
    cols = [bracket(alg, x, alg.basis_vec(i)) for i in range(alg.dim)]
    return nullspace(list(zip(*cols)), alg.dim)


def on_slodowy_slice(alg: LieAlgebra, triple, xi: Vector) -> bool:
    """sharp(xi) - e lies in g_f, i.e. [f, sharp(xi) - e] = 0."""
    x = tuple(a - b for a, b in zip(alg.sharp(xi), triple.e, strict=True))
    return not any(bracket(alg, triple.f, x))


def on_diagonal_slice(alg: LieAlgebra, triple, n: int, xi: Vector) -> bool:
    """All n blocks of xi are equal, and the first block lies on the slice."""
    d = alg.dim
    blocks = [tuple(xi[k * d : (k + 1) * d]) for k in range(n)]
    return all(b == blocks[0] for b in blocks) and on_slodowy_slice(alg, triple, blocks[0])


# -- Chevalley tables by tuple arithmetic on roots ------------------------------


def _quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if den <= 0 or r:
        raise ValueError(f"{num}/{den} is not an exact quotient by a positive number")
    return q


class TupleRoots:
    """Root data in simple-root coordinates, each quantity by tuple arithmetic on demand."""

    def __init__(self, cartan_type: str, rank: int):
        self.rank = rank
        self.cartan, self.d = lie._cartan_and_lengths(cartan_type, rank)
        self._columns = tuple(zip(*self.cartan))
        self.roots = self._enumerate()
        self.root_set = set(self.roots)
        self.positive = sorted((r for r in self.roots if self.is_positive(r)), key=self.order_key)
        self.by_index = (None,) * rank + tuple(self.positive) + tuple(tuple(-x for x in r) for r in self.positive)
        self.index = {r: i for i, r in enumerate(self.by_index) if r is not None}

    def pairing(self, beta, j: int) -> int:
        return sum(map(mul, beta, self._columns[j]))

    def _enumerate(self):
        simple = [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for beta in frontier:
                for j in range(self.rank):
                    r = beta[:j] + (beta[j] - self.pairing(beta, j),) + beta[j + 1 :]  # s_j(beta)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = nxt
        return sorted(seen)

    @staticmethod
    def is_positive(beta) -> bool:
        return beta > (0,) * len(beta)

    @staticmethod
    def order_key(beta):
        return (sum(beta), beta)

    def norm2(self, beta) -> int:
        return sum(self.d[j] * self.pairing(beta, j) * beta[j] for j in range(self.rank))

    def p_string(self, alpha, beta) -> int:
        p = 0
        cur = tuple(map(sub, beta, alpha))
        while cur in self.root_set:
            p += 1
            cur = tuple(map(sub, cur, alpha))
        return p

    def coroot_coeffs(self, gamma):
        return tuple(_quotient(2 * self.d[i] * gamma[i], self.norm2(gamma)) for i in range(self.rank))

    def extraspecial(self, gamma):
        for a in self.positive:
            b = tuple(g - x for x, g in zip(a, gamma))
            if b in self.root_set and self.is_positive(b):
                return a, b
        raise ValueError(f"no special pair for {gamma}")


class SignBuilder:
    """N_{a,b} by the extraspecial-pair convention, memoised on root tuples."""

    def __init__(self, rs: TupleRoots):
        self.rs = rs
        self.memo = {}

    def n(self, a, b) -> int:
        key = (a, b)
        if key in self.memo:
            return self.memo[key]
        rs = self.rs
        s = tuple(map(add, a, b))
        assert s in rs.root_set, (a, b)
        pos_a, pos_b = rs.is_positive(a), rs.is_positive(b)
        if pos_a and pos_b:
            if rs.order_key(a) > rs.order_key(b):
                val = -self.n(b, a)
            else:
                x, y = rs.extraspecial(s)
                if (a, b) == (x, y):
                    val = rs.p_string(x, y) + 1
                else:
                    # N_{a,b} = (s,s) / N_{x,y} times the sum of the terms t / (r,r)
                    terms = []
                    ya = tuple(map(add, y, map(neg, a)))
                    if ya in rs.root_set:
                        terms.append((self.n(y, tuple(map(neg, a))) * self.n(x, tuple(map(neg, b))), rs.norm2(ya)))
                    xa = tuple(map(add, x, map(neg, a)))
                    if xa in rs.root_set:
                        terms.append((self.n(tuple(map(neg, a)), x) * self.n(y, tuple(map(neg, b))), rs.norm2(xa)))
                    num, den = 0, 1
                    for t, r2 in terms:
                        num, den = num * r2 + t * den, den * r2
                    val = _quotient(rs.norm2(s) * num, den * self.n(x, y))
        elif not pos_a and not pos_b:
            val = -self.n(tuple(map(neg, a)), tuple(map(neg, b)))
        elif not pos_a:
            val = -self.n(b, a)
        else:
            # a positive, b negative; use N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)
            c = tuple(map(neg, s))
            if rs.is_positive(s):
                val = _quotient(rs.norm2(c) * self.n(b, c), rs.norm2(a))
            else:
                val = _quotient(rs.norm2(c) * self.n(c, a), rs.norm2(b))
        self.memo[key] = val
        return val


def chevalley_table(cartan_type: str, rank: int) -> list:
    """The table of ``lie.build_chevalley``, a list of lists of (k, c) lists, by tuple arithmetic."""
    rs = TupleRoots(cartan_type, rank)
    roots, dim = rs.by_index, len(rs.by_index)
    signs = SignBuilder(rs)
    table = [[[] for _ in range(dim)] for _ in range(dim)]

    def set_entry(i, j, entries):
        table[i][j] = [(k, c) for k, c in entries if c != 0]
        table[j][i] = [(k, -c) for k, c in entries if c != 0]

    for a, alpha in enumerate(roots[rank:], rank):
        for i in range(rank):
            set_entry(i, a, [(a, rs.pairing(alpha, i))])  # [h_i, e_alpha] = <alpha, alpha_i^vee> e_alpha
        for b, beta in enumerate(roots[a + 1 :], a + 1):
            s = tuple(map(add, alpha, beta))
            if s in rs.root_set:
                set_entry(a, b, [(rs.index[s], signs.n(alpha, beta))])
            elif not any(s):  # [e_alpha, e_-alpha] = alpha^vee
                set_entry(a, b, list(enumerate(rs.coroot_coeffs(alpha))))
    return table
