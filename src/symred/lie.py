"""Exact finite-dimensional Lie algebras over the rationals.

Split semisimple algebras are built on a Chevalley basis {h_1..h_l} ∪ {e_β}
from their root system alone.  Every type fixes signs by the classical
extraspecial-pair convention: N_{α,β} = +(p+1) on every extraspecial pair
of positive roots, all remaining constants being forced by antisymmetry,
N_{-α,-β} = -N_{α,β}, and the Jacobi identity.

Type A's matrices are an input form only: ``from_matrix`` reads the
Chevalley coordinates of a traceless matrix off its entries, in closed
form.  A ``GroupElement`` is Ad_g on the Chevalley basis, and
``unipotent`` builds one as exp(t ad_x) on every type.

Roots are read by basis index (``RootSystem``); a root tuple becomes an
index through ``vector_index``.  Every constructed table is
certified entry by entry (antisymmetry, Cartan action, coroot brackets,
±(p+1) e_{α+β} on a root sum with N_{-α,-β} = -N_{α,β}, and 0 off one),
and the test suite re-verifies Jacobi on every supported type.

``LieAlgebra`` stores each table constant as an ``int`` when it is
integral and as a ``Fraction`` otherwise.  On a Chevalley basis every
constant is an integer (±(p+1), Cartan integers, coroot coefficients).
The root data that produce them are ints too (a short root has norm 2),
so the table is built without a ``Fraction``, and the antisymmetry,
Jacobi and Chevalley certificates and the Killing sums run on ints, as
do ``bracket``, ``bracket_pairing`` and ``coadjoint_matrix``: a
hand-built table with rational constants is scaled once by its common
denominator.  The reason is the cost of each operation: a ``Fraction``
multiply or add runs two gcds and builds a new object, where an ``int``
operation is one C call.  Every public boundary stays ``Fraction``:
``killing``, ``bracket``, ``bracket_pairing``, ``coadjoint_matrix``,
``ad_star``, ``killing_form`` and ``from_matrix``.

Basis order: Cartan h_1..h_l, then e_β over positive roots by increasing
(height, coordinates), then the corresponding negative root vectors.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import add, mul

from . import linalg as la
from .errors import CertificateFailed, DimensionMismatch, NoMatrixRep, SolveFailure, UnsupportedType
from .linalg import Matrix, Q, Vector

Root = tuple[int, ...]
ZERO_SUM = -1  # the root-sum table's entry where alpha + beta = 0

SUPPORTED = {
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4),
    ("G2", 2),
}


def _cartan_and_lengths(cartan_type: str, rank: int):
    """Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> and half-lengths d_i = (alpha_i, alpha_i) / 2.

    The form is normalised so that a short simple root has (alpha, alpha) =
    2, which makes every d_i an int: B (2, ..., 2, 1), C (1, ..., 1, 2) and
    G2 (1, 3).  Only ratios of (beta, gamma) are ever read, so the scale
    changes no constant.
    """
    if (cartan_type, rank) not in SUPPORTED:
        raise UnsupportedType(f"unsupported type {cartan_type}{rank}")
    n = rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    d = [1] * n
    if cartan_type == "B":
        c[n - 2][n - 1] = -2  # alpha_{n-1} is short
        d = [2] * (n - 1) + [1]
    elif cartan_type == "C":
        c[n - 1][n - 2] = -2  # alpha_{n-1} is long
        d[n - 1] = 2
    elif cartan_type == "D":
        # Bourbaki numbering: alpha_n leaves the chain and joins alpha_{n-2}
        c[n - 2][n - 1] = c[n - 1][n - 2] = 0
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    elif cartan_type == "G2":
        c[0][1], c[1][0] = -1, -3  # alpha_1 short, alpha_2 long
        d[1] = 3
    return tuple(tuple(row) for row in c), tuple(d)


def _exact_quotient(num: int, den: int, what: str, *args) -> int:
    """num / den, which must be an integer, den being built from root norms and so positive:
    anything else raises ``CertificateFailed`` naming ``what.format(*args)``, formatted only then."""
    if den <= 0:
        raise CertificateFailed(f"{what.format(*args)} divides by {den}, not by a positive number")
    q, r = divmod(num, den)
    if r:
        raise CertificateFailed(f"{what.format(*args)} is {num}/{den}, not an integer")
    return q


class RootSystem:
    """Roots of a split semisimple algebra in simple-root coordinates, read by basis index.

    Index order is the basis order: h_1..h_l, the positive roots by
    increasing (height, coordinates), then their negatives in that order.
    So with n = |Phi+| the negative of the root at a is at a ± n, and it is
    positive exactly when a < rank + n.  Built once, by index: each root's
    pairings <beta, alpha_j^vee> and norm, the extraspecial pair of each
    positive root, and the root-sum table ``_sums``: ``_sums[a][b]`` is the
    index of alpha + beta when that is a root, ``ZERO_SUM`` when it is 0,
    and absent otherwise.

    The invariant form is scaled so that a short root has (beta, beta) = 2
    (the half-lengths ``d`` are ints, see ``_cartan_and_lengths``), so every
    norm and every quantity derived from one is an ``int``.
    """

    def __init__(self, cartan_type: str, rank: int):
        self.cartan_type = cartan_type
        self.rank = rank
        self.cartan, self.d = _cartan_and_lengths(cartan_type, rank)
        pairings = self._enumerate()
        self.roots = sorted(pairings)
        self.positive = sorted((r for r in self.roots if r > (0,) * rank), key=lambda r: (sum(r), r))
        n = self._npos = len(self.positive)
        self.by_index = (None,) * rank + tuple(self.positive) + tuple(tuple(-x for x in r) for r in self.positive)
        self._index = {r: i for i, r in enumerate(self.by_index) if r is not None}
        self._neg = tuple(range(rank)) + tuple(range(rank + n, rank + 2 * n)) + tuple(range(rank, rank + n))
        roots = self.by_index[rank:]
        self._pairings = (None,) * rank + tuple(pairings[r] for r in roots)
        self._norms = (None,) * rank + tuple(sum(map(mul, self.d, map(mul, pairings[r], r))) for r in roots)
        # the root-sum table, each root packed as one int in base 3 max|coordinate| + 1: the digits
        # add as the coordinates do, and a sum of two roots meets a root's int only when it is that root
        base, top = 3 * max(map(max, self.positive)) + 1, rank + n
        keys = [sum(c * base**j for j, c in enumerate(r)) for r in roots]
        at = {k: i for i, k in enumerate(keys, rank)} | {0: ZERO_SUM}
        self._sums: list[dict[int, int]] = [{} for _ in self.by_index]
        self._special: dict[int, tuple[int, int]] = {}  # the extraspecial pair (x, y) of each root sum s
        for a, ka in enumerate(keys, rank):
            for b, kb in enumerate(keys[a - rank + 1 :], a + 1):
                s = at.get(ka + kb)
                if s is not None:
                    self._sums[a][b] = self._sums[b][a] = s
                    if b < top:  # a < b both positive, and the first such a is the minimal x
                        self._special.setdefault(s, (a, b))

    def _enumerate(self) -> dict[Root, tuple[int, ...]]:
        """Each root with its pairings: the simple roots (pairings C[i]) closed under the reflections."""
        rank, cartan = self.rank, self.cartan
        found = {tuple(int(j == i) for j in range(rank)): cartan[i] for i in range(rank)}
        frontier = list(found)
        while frontier:
            nxt = []
            for beta in frontier:
                pb = found[beta]
                for j, c in enumerate(pb):  # s_j(beta) = beta - c alpha_j, and pairings are linear
                    r = beta[:j] + (beta[j] - c,) + beta[j + 1 :]
                    if r not in found:
                        found[r] = tuple(p - c * x for p, x in zip(pb, cartan[j]))
                        nxt.append(r)
            frontier = nxt
        return found

    def _p_string(self, a: int, b: int) -> int:
        """Largest p with beta - p alpha a root, for the roots at a and b."""
        sums, na, p = self._sums, self._neg[a], 0
        b = sums[b].get(na, ZERO_SUM)
        while b != ZERO_SUM:
            p, b = p + 1, sums[b].get(na, ZERO_SUM)
        return p

    def _coroot(self, a: int) -> tuple[int, ...]:
        """gamma^vee = sum_i c_i alpha_i^vee, c_i = 2 d_i gamma_i / (gamma, gamma) an exact int quotient."""
        gamma, norm, what = self.by_index[a], self._norms[a], "coefficient {} of the coroot of {}"
        return tuple(_exact_quotient(2 * d * g, norm, what, i, gamma) for i, (d, g) in enumerate(zip(self.d, gamma)))

    def vector_index(self, beta: Root) -> int:
        """Basis index of e_beta: Cartan first, then positive, then negative roots."""
        a = self._index.get(beta)
        if a is None:
            raise SolveFailure(f"{beta} is not a root of {self.cartan_type}{self.rank}")
        return a

    def coroot_coeffs(self, gamma: Root) -> tuple[int, ...]:
        return self._coroot(self.vector_index(gamma))


@dataclass(frozen=True)
class Sl2Triple:
    """A triple (e, h, f) with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""

    e: Vector
    h: Vector
    f: Vector

    def verify(self, algebra: "LieAlgebra") -> bool:
        return (
            algebra.bracket(self.e, self.f) == self.h
            and algebra.bracket(self.h, self.e) == la.scale(2, self.e)
            and algebra.bracket(self.h, self.f) == la.scale(-2, self.f)
        )


@dataclass(frozen=True)
class GroupElement:
    """g in the adjoint group as Ad_g and Ad_{g^-1}: column j of ``ad`` is Ad_g e_j.

    With the inverse stored beside it, ``inv`` swaps the two and ``*``
    multiplies them, so no group operation or action solves a linear
    system.  ``LieAlgebra.unipotent`` builds one on every type.
    """

    ad: Matrix
    ad_inv: Matrix

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(la.mat_mul(self.ad, other.ad), la.mat_mul(other.ad_inv, self.ad_inv))

    def inv(self) -> "GroupElement":
        return GroupElement(self.ad_inv, self.ad)


def _entry(entry) -> tuple:
    """A table entry's nonzero (k, c), each constant an ``int`` when it is integral, else a ``Fraction``.

    An entry that is already a tuple of (int, nonzero int) tuples, as every
    constructed Chevalley entry is, is returned as it is."""
    if type(entry) is tuple:
        for kc in entry:
            if type(kc) is not tuple or len(kc) != 2 or type(kc[0]) is not int or type(kc[1]) is not int or not kc[1]:
                break
        else:
            return entry
    out = []
    for k, c in entry:
        if type(c) is not int:
            c = la.frac(c)
            c = c.numerator if c.denominator == 1 else c
        if c:
            out.append((k, c))
    return tuple(out)


class LieAlgebra:
    """Structure constants and the Killing form, on one basis.

    The table is certified antisymmetric when the algebra is built.  The
    Killing form is summed on its first read and kept, and so is its
    inverse, which only ``sharp`` reads; the inverse is None when the
    form is degenerate.
    """

    def __init__(
        self,
        basis_labels: Sequence[str],
        table: Sequence[Sequence[Sequence[tuple[int, int | Fraction]]]],
        rank: int,
        root_data: RootSystem | None = None,
        name: str = "",
    ):
        self.dim = len(basis_labels)
        self.basis_labels = tuple(basis_labels)
        # zero constants are dropped; only a nonempty entry gets a tuple of its own
        self.table = tuple(tuple(_entry(entry) if entry else () for entry in row) for row in table)
        self._den = math.lcm(*{c.denominator for row in self.table for entry in row if entry for _, c in entry})
        self._int_table = self.table if self._den == 1 else tuple(
            tuple(tuple((k, c.numerator * (self._den // c.denominator)) for k, c in entry) for entry in row)
            for row in self.table
        )
        self.rank = rank
        self.root_data = root_data
        self.name = name or "g"
        self._coadjoint: dict[Vector, Matrix] = {}
        self._check_table()

    @cached_property
    def killing(self) -> Matrix:
        """K[i][j] = tr(ad_i ad_j), summed on first read and kept."""
        return self._compute_killing()

    @cached_property
    def _killing_inv(self) -> Matrix | None:
        """K^-1, or None when the Killing form is degenerate; inverted on first use."""
        try:
            return la.inverse(self.killing)
        except ZeroDivisionError:
            return None

    # -- construction helpers -------------------------------------------

    def _check_table(self):
        """Each entry lists a coordinate once, and [e_j, e_i] = -[e_i, e_j].

        A repeated coordinate would make ``bracket``, which sums the table,
        disagree with a reader that takes the first match for [e_i, e_j].
        Zero constants were dropped, so two entries agree when their dicts
        do, and antisymmetry is read once per unordered pair, at j >= i: as
        tuples first, and as dicts only when the tuples differ.
        """
        table = self.table
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                if len(entry) > 1 and len(dict(entry)) < len(entry):
                    raise CertificateFailed(f"bracket table lists a coordinate twice at ({i}, {j}): {entry}")
        for i, row in enumerate(table):
            for j in range(i, len(row)):
                lhs, rhs = row[j], table[j][i]
                if (lhs or rhs) and rhs != tuple((k, -c) for k, c in lhs) and dict(rhs) != {k: -c for k, c in lhs}:
                    raise CertificateFailed(f"bracket table is not antisymmetric at ({i}, {j}): {lhs} vs {rhs}")

    def _compute_killing(self) -> Matrix:
        """K[i][j] = tr(ad_i ad_j) = sum over m, k of c_ik^m c_jm^k, paired by edge.

        ``edges[(m, k)]`` lists the pairs (j, c) with c = c_jm^k, so each
        product c_ik^m c_jm^k pairs an entry of ``edges[(k, m)]`` with one
        of ``edges[(m, k)]``, and the sum costs what its nonzero products
        cost.  It runs on the integer table, scaled by the common
        denominator as ``bracket``'s is, and builds one ``Fraction`` per
        nonzero entry.  Nothing about the basis is assumed, so a product
        g^n comes out block diagonal because its table is.
        """
        n = self.dim
        edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for j, row in enumerate(self._int_table):
            for m, entry in enumerate(row):
                for k, c in entry:
                    edges.setdefault((m, k), []).append((j, c))
        acc = [[0] * n for _ in range(n)]
        for (m, k), right in edges.items():
            left = edges.get((k, m))
            if left:
                for i, x in left:
                    row = acc[i]
                    for j, c in right:
                        row[j] += x * c
        d = self._den * self._den
        return tuple(tuple(Q(a, d) if a else la.ZERO for a in row) for row in acc)

    # -- basic operations ------------------------------------------------

    def basis_vec(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} outside 0..{self.dim - 1}")
        return la.unit(self.dim, i)

    def _check_dim(self, *vectors: Vector):
        for v in vectors:
            if len(v) != self.dim:
                raise DimensionMismatch(f"expected length {self.dim}, got {len(v)}")

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] summed on ints over the supports of x and y, each scaled
        once, as is the table: one ``Fraction`` per nonzero coordinate."""
        self._check_dim(x, y)
        x_support, dx = la._integer(x)
        y_support, dy = la._integer(y)
        out = [0] * self.dim
        for i, a in x_support:
            row = self._int_table[i]
            for j, b in y_support:
                f = a * b
                for k, c in row[j]:
                    out[k] += f * c
        d = dx * dy * self._den
        return tuple(Q(n, d) if n else la.ZERO for n in out)

    def bracket_pairing(self, xi: Vector, x: Vector, y: Vector) -> Fraction:
        """xi([x, y]) off the table, with no bracket vector.

        y is scaled once to ints; x[i] and xi[k] are read as they are, in the
        terms that need them, and summed on ints over a running common
        denominator, so the sum is one ``Fraction``, or ``ZERO``.
        """
        self._check_dim(xi, x, y)
        y_support, dy = la._integer(y)
        if not y_support:
            return la.ZERO
        acc, den = 0, 1
        for i, a in enumerate(x):
            if a is la.ZERO:
                continue
            an, ad = a.as_integer_ratio()
            row = self._int_table[i]
            for j, b in y_support:
                f = an * b
                for k, c in row[j]:
                    z = xi[k]
                    if z is la.ZERO:
                        continue
                    zn, zd = z.as_integer_ratio()
                    zd *= ad
                    if den % zd:
                        grow = zd // math.gcd(den, zd)
                        acc *= grow
                        den *= grow
                    acc += f * c * zn * (den // zd)
        return Q(acc, den * dy * self._den) if acc else la.ZERO

    def ad_matrix(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] on basis coordinates: ad_x[k][j] = sum_i x_i c_ij^k.

        One pass over the support of x, scaled once, in the integer table,
        with one ``Fraction`` per nonzero cell, as in ``bracket``.
        """
        self._check_dim(x)
        support, dx = la._integer(x)
        n = self.dim
        acc = [[0] * n for _ in range(n)]
        for i, a in support:
            for j, entry in enumerate(self._int_table[i]):
                for k, c in entry:
                    acc[k][j] += a * c
        d = dx * self._den
        return tuple(tuple(Q(v, d) if v else la.ZERO for v in row) for row in acc)

    def ad_star(self, x: Vector, xi: Vector) -> Vector:
        """ad*_x xi = -xi([x, .]) = -C^T x, with C the coadjoint matrix."""
        self._check_dim(x)
        return la.neg(la.mat_vec(la.transpose(self.coadjoint_matrix(xi)), x))

    def killing_form(self, x: Vector, y: Vector) -> Fraction:
        """x^T K y, read off the rows of K in the support of x only."""
        self._check_dim(x, y)
        support, k_mat = [i for i, c in enumerate(x) if c is not la.ZERO], self.killing
        return la.dot([x[i] for i in support], la.mat_vec([k_mat[i] for i in support], y))

    def flat(self, x: Vector) -> Vector:
        """x -> kappa(x, .), a covector."""
        return la.mat_vec(self.killing, x)

    def sharp(self, xi: Vector) -> Vector:
        if self._killing_inv is None:
            raise SolveFailure("Killing form is degenerate")
        return la.mat_vec(self._killing_inv, xi)

    def centralizer(self, x: Vector) -> list[Vector]:
        """Basis of {y : [x, y] = 0}."""
        return la.nullspace(self.ad_matrix(x), self.dim)

    def coadjoint_matrix(self, xi: Vector) -> Matrix:
        """C with C[i][j] = xi([e_i, e_j]), summed on ints off the sparse table.

        Only the nonempty table entries are summed; every other cell is the
        shared ``ZERO``, and a nonzero sum is one ``Fraction``, as in
        ``bracket``.  (ad*_x xi)_j = -(C^T x)_j, and xi([u, v]) = u^T C v.
        Memoised by xi: the table never changes, so every caller at xi
        shares one immutable C.
        """
        xi = tuple(xi)
        cm = self._coadjoint.get(xi)
        if cm is None:
            self._check_dim(xi)
            support, d = la._integer(xi)
            ns = [0] * self.dim
            for k, n in support:
                ns[k] = n
            d *= self._den
            rows = []
            for row in self._int_table:
                out = [la.ZERO] * self.dim
                for j, entry in enumerate(row):
                    if entry:
                        n = sum(ns[k] * c for k, c in entry)
                        if n:
                            out[j] = Q(n, d)
                rows.append(tuple(out))
            cm = self._coadjoint[xi] = tuple(rows)
        return cm

    # -- root-system conveniences -----------------------------------------

    def _require_roots(self) -> RootSystem:
        if self.root_data is None:
            raise UnsupportedType("no root data on this algebra")
        return self.root_data

    def root_vector_index(self, beta: Root) -> int:
        return self._require_roots().vector_index(beta)

    def root_vector(self, beta: Root) -> Vector:
        return self.basis_vec(self.root_vector_index(beta))

    def simple_vectors(self) -> tuple[list[Vector], list[Vector], list[Vector]]:
        rs = self._require_roots()
        es, hs, fs = [], [], []
        for i in range(self.rank):
            simple = tuple(1 if j == i else 0 for j in range(self.rank))
            es.append(self.root_vector(simple))
            hs.append(self.basis_vec(i))
            fs.append(self.root_vector(tuple(-x for x in simple)))
        return es, hs, fs

    # -- verification -----------------------------------------------------

    def _diagonal(self) -> dict[int, list]:
        """lambda_i, on the integer table, of each diagonal i: every nonempty [e_i, e_j] is lambda_i(j) e_j."""
        return {
            i: [entry[0][1] if entry else 0 for entry in row]
            for i, row in enumerate(self._int_table)
            if all(len(entry) == 1 and entry[0][0] == j for j, entry in enumerate(row) if entry)
        }

    def _omega_bound(self, diagonal: dict[int, list], nonzero: list) -> int:
        """rank + |Phi+| when ``verify_jacobi``'s involution step holds, else ``dim``.

        Entries are compared as tuples: one listed in another order costs the step, never the verdict.
        """
        rs, n, table = self.root_data, self.dim, self._int_table
        if rs is None or len(rs._neg) != n or any(i not in diagonal for i in range(rs.rank)):
            return n
        neg, rank, top = rs._neg, rs.rank, rs.rank + rs._npos
        for a, b in enumerate(neg):
            if not 0 <= b < n or neg[b] != a or (b != a if a < rank else (a < top) == (b < top)):
                return n
        for a, row in enumerate(nonzero):
            image = table[neg[a]]
            for b, entry in row:
                if b > a and image[neg[b]] != tuple([(neg[t], -c) for t, c in entry]):
                    return n
        return top

    def verify_jacobi(self) -> bool:
        """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for all i < j < k.

        Diagonal indices: i is diagonal when [e_i, e_j] = lambda_i(j) e_j for
        every j.  As the table is certified antisymmetric, J(e_i, e_j, e_k) =
        sum_t c_jk^t (lambda_i(j) + lambda_i(k) - lambda_i(t)) e_t.  So one
        pass over the nonzeros [e_j, e_k], j < k, checks lambda_i(t) =
        lambda_i(j) + lambda_i(k) for every diagonal i at once: a failure is
        a failing triple (j = i reads lambda_i(k) = lambda_i(k)), and a pass
        makes every triple with a diagonal index 0, so none is summed.

        Involution: with root data whose ``_neg`` is an involution fixing
        each Cartan index and swapping the positive and negative index
        ranges, every Cartan index diagonal, and [e_{neg(a)}, e_{neg(b)}] =
        -omega([e_a, e_b]) on every nonzero entry, a < b, the map omega(e_a) =
        -e_{neg(a)} is an automorphism (Carter, *Simple Groups of Lie Type*,
        1972, for the Chevalley table).  Then J(omega x, omega y, omega z) =
        omega J(x, y, z), so a triple holds iff its image does.  A triple
        left is three roots, and it or its image has two positive ones: in
        index order, j < rank + |Phi+|.  Otherwise every triple left is summed.

        For each i the cyclic sums of every j < k left go into one
        accumulator keyed (j, k, t), over nonzero products only: a term
        [[e_a,e_b],e_c] = sum_m c_ab^m c_mc^t e_t needs m in the support of
        [e_a,e_b], so the first sweep takes the k > j with [e_m,e_k] != 0,
        the second those with [e_j,e_k] != 0 and the third those with
        [e_k,e_i] != 0, each found by bisection in a sorted row.  Every
        product left out is 0, so no grading is assumed.  Jacobi is
        homogeneous, so it runs on the integer table.
        """
        n, table, diagonal = self.dim, self._int_table, self._diagonal()
        nonzero = [[(k, entry) for k, entry in enumerate(row) if entry] for row in table]
        w = list(zip(*diagonal.values()))  # w[j]: lambda_i(j) over the diagonal i
        for j, row in enumerate(nonzero if w else ()):
            for k, entry in row:
                if k > j:
                    s = tuple(map(add, w[j], w[k]))
                    for t, _ in entry:
                        if w[t] != s:
                            return False
        top = self._omega_bound(diagonal, nonzero)
        rows = [[(k, entry) for k, entry in row if k not in diagonal] for row in nonzero]  # [e_m, e_k] != 0
        keys = [[k for k, _ in row] for row in rows]
        # [e_k, e_i] != 0 only where [e_i, e_k] != 0: the table is certified antisymmetric
        cols = [[(k, table[k][i]) for k in ks] for i, ks in enumerate(keys)]
        live = [i for i in range(n) if i not in diagonal]
        heads = live[: bisect_left(live, top)]  # the i and j of i < j < k
        for at, i in enumerate(heads):
            acc: dict[int, int] = {}  # (j, k, t) as (j * n + k) * n + t
            for j in heads[at + 1 :]:
                for m, x in table[i][j]:  # [[e_i, e_j], e_k]
                    for k, entry in rows[m][bisect_right(keys[m], j) :]:
                        for t, y in entry:
                            key = (j * n + k) * n + t
                            acc[key] = acc.get(key, 0) + x * y
                # [[e_j, e_k], e_i], then [[e_k, e_i], e_j]
                for nz, ks, c in ((rows[j], keys[j], i), (cols[i], keys[i], j)):
                    for k, entry in nz[bisect_right(ks, j) :]:
                        for m, x in entry:
                            for t, y in table[m][c]:
                                key = (j * n + k) * n + t
                                acc[key] = acc.get(key, 0) + x * y
            if any(acc.values()):
                return False
        return True

    def verify_killing_invariance(self) -> bool:
        """kappa([e_i, e_j], e_k) + kappa(e_j, [e_i, e_k]) = 0 for all i, j and k.

        For a diagonal i (see ``verify_jacobi``) the two terms sum to
        (lambda_i(j) + lambda_i(k)) K[j][k], so i's identity is read off the
        nonzeros of K with no bracket.  For any other i it is the matrix
        identity K ad_i + ad_i^T K = 0, and a term can be nonzero only where
        the table and K both have nonzeros: kappa([e_i, e_j], e_k) = sum_m
        c_ij^m K[m][k] needs K[m][k] != 0 for some m in the support of [e_i,
        e_j], and kappa(e_j, [e_i, e_k]) needs K[j][m] != 0 for some m in the
        support of [e_i, e_k].  So each such i forms [e_i, e_j] only where the
        table entry is nonempty, and sums both terms on every ordered pair
        (j, k) that either rule admits.  The neighbours are read off the rows
        and the columns of ``self.killing`` as it is now, and no symmetry of
        K is assumed.  Every other entry is 0 + 0 exactly.
        """
        n, k_mat, diagonal = self.dim, self.killing, self._diagonal()
        row_nbrs = [[k for k, v in enumerate(row) if v] for row in k_mat]  # K[m][k] != 0
        if any(lam[j] + lam[k] for lam in diagonal.values() for j, ks in enumerate(row_nbrs) for k in ks):
            return False
        col_nbrs = [[j for j in range(n) if k_mat[j][m]] for m in range(n)]  # K[j][m] != 0
        basis = [self.basis_vec(i) for i in range(n)]
        for i, row in enumerate(self.table):
            if i in diagonal:
                continue
            ad_i = {j: self.bracket(basis[i], basis[j]) for j, entry in enumerate(row) if entry}
            pairs = set()
            for j in ad_i:
                for m, _ in row[j]:
                    pairs.update((j, k) for k in row_nbrs[m])  # kappa([e_i, e_j], e_k)
                    pairs.update((k, j) for k in col_nbrs[m])  # kappa(e_k, [e_i, e_j])
            for j, k in pairs:
                lhs = self.killing_form(ad_i[j], basis[k]) if j in ad_i else la.ZERO
                rhs = self.killing_form(basis[j], ad_i[k]) if k in ad_i else la.ZERO
                if lhs + rhs:
                    return False
        return True

    # -- type A's matrices ------------------------------------------------------

    def from_matrix(self, m: Matrix) -> Vector:
        """Chevalley coordinates of a matrix of sl(rank+1), read off its entries.

        Input is refused in this order: an algebra without type-A root data
        raises ``NoMatrixRep``, a matrix that is not (rank+1)-square raises
        ``DimensionMismatch`` before any entry is read, and a nonzero trace
        raises ``SolveFailure``.  Every other matrix lies in sl(rank+1), and
        its coordinates are read in closed form, with no elimination:

        - h_k = E_kk - E_{k+1,k+1}, so x_k = m_00 + ... + m_kk;
        - for beta = alpha_i + ... + alpha_j (indices from 0) and s =
          (-1)^(ht beta - 1), e_beta = s E_{i,j+1} and e_-beta = s E_{j+1,i},
          so the coordinates of ±beta are s m[i][j+1] and s m[j+1][i].

        The matrices are those of the homomorphism that sends e_{alpha_i} to
        E_{i,i+1} and f_{alpha_i} to E_{i+1,i}, and the sign holds by
        induction on the height.  For ht beta >= 2 the extraspecial pair of
        beta is (x, y) = (alpha_j, beta - alpha_j): alpha_j precedes alpha_i
        in index order, and both leave a positive root.  y - alpha_j is not a
        root, so N_{x,y} = p + 1 = 1 and N_{-x,-y} = -1.  With e_y = -s E_{i,j}
        and [E_{j,j+1}, E_{i,j}] = -E_{i,j+1}, e_beta = [e_x, e_y] / N_{x,y} =
        s E_{i,j+1}; with [E_{j+1,j}, E_{j,i}] = E_{j+1,i}, e_-beta =
        [e_-x, e_-y] / N_{-x,-y} = s E_{j+1,i}.
        """
        rs = self.root_data
        if rs is None or rs.cartan_type != "A":
            raise NoMatrixRep(f"{self.name} has no type-A root data, so no sl(n) matrices")
        size = rs.rank + 1
        if len(m) != size or any(len(row) != size for row in m):
            raise DimensionMismatch(f"{self.name} needs a {size}x{size} matrix, got row lengths {list(map(len, m))}")
        m = la.mat(m)
        *cartan, trace = accumulate(m[k][k] for k in range(size))
        if trace:
            raise SolveFailure("matrix does not lie in the represented algebra")
        out = [x or la.ZERO for x in cartan] + [la.ZERO] * (2 * rs._npos)
        for a, beta in enumerate(rs.positive, rs.rank):
            i, ht = beta.index(1), sum(beta)
            for b, c in ((a, m[i][i + ht]), (a + rs._npos, m[i + ht][i])):
                if c:
                    out[b] = c if ht % 2 else -c
        return tuple(out)

    # -- the adjoint group ------------------------------------------------------

    def identity_element(self) -> GroupElement:
        eye = la.identity(self.dim)
        return GroupElement(eye, eye)

    def unipotent(self, x: Vector, t=1) -> GroupElement:
        """exp(t x) for ad-nilpotent x: Ad = exp(t ad_x) and its inverse exp(-t ad_x).

        The series is finite, so both sums are exact.  Term k is term k-1
        times t ad_x, divided by k on its nonzero cells only; the odd terms
        enter the inverse with a minus sign.  exp(ad_x) is a bracket
        automorphism for nilpotent ad_x (Chevalley), so it needs no
        certificate.
        """
        step = self.ad_matrix(la.scale(t, x))
        total, total_inv = ([list(row) for row in la.identity(self.dim)] for _ in range(2))
        term, k = step, 1
        while any(map(any, term)):
            if k > self.dim:
                raise SolveFailure("ad_x is not nilpotent")
            for r, row in enumerate(term):
                for c, v in enumerate(row):
                    if v:
                        total[r][c] += v
                        total_inv[r][c] += -v if k % 2 else v
            k += 1
            term = tuple(tuple(v / k if v else la.ZERO for v in row) for row in la.mat_mul(term, step))
        return GroupElement(tuple(map(tuple, total)), tuple(map(tuple, total_inv)))

    def adjoint_group_action(self, g: GroupElement, x: Vector) -> Vector:
        """Ad_g x."""
        self._check_dim(x)
        return la.mat_vec(g.ad, x)

    def coadjoint_group_action(self, g: GroupElement, xi: Vector) -> Vector:
        """Ad*_g xi = xi ∘ Ad_{g^{-1}}."""
        self._check_dim(xi)
        return la.mat_vec(la.transpose(g.ad_inv), xi)


# -- constructors ----------------------------------------------------------


def _labels(rs: RootSystem) -> list[str]:
    labels = [f"h{i+1}" for i in range(rs.rank)]
    labels += ["e(" + ",".join(map(str, b)) + ")" for b in rs.positive]
    labels += ["f(" + ",".join(map(str, b)) + ")" for b in rs.positive]
    return labels


def _table_from_roots(rs: RootSystem):
    """Structure constants of every type by the extraspecial-pair sign recursion, on basis indices.

    N_{a,b} is +(p+1) on an extraspecial pair (x, y); on another pair of
    positive roots in index order, (s,s) / N_{x,y} times the terms t / (r,r)
    of y - a and x - a; elsewhere it follows from antisymmetry,
    N_{-a,-b} = -N_{a,b} and N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b).
    Each N is one exact int quotient (a remainder raises
    ``CertificateFailed``), memoised under a * dim + b.
    """
    rank, roots, sums, neg, norm = rs.rank, rs.by_index, rs._sums, rs._neg, rs._norms
    dim, top = len(roots), rs.rank + rs._npos  # the first negative root
    memo: dict[int, int] = {}

    def n(a: int, b: int) -> int:
        key = a * dim + b
        if key in memo:
            return memo[key]
        s = sums[a].get(b, ZERO_SUM)
        if s == ZERO_SUM:
            s = tuple(map(add, roots[a], roots[b]))
            raise CertificateFailed(f"N({roots[a]}, {roots[b]}) asked for, but {s} is not a root")
        if a >= top:
            val = -n(neg[a], neg[b]) if b >= top else -n(b, a)
        elif b < top:
            if a > b:
                val = -n(b, a)
            else:
                x, y = rs._special[s]
                if a == x:
                    val = rs._p_string(x, y) + 1
                else:
                    num, den, na, nb = 0, 1, neg[a], neg[b]
                    r = sums[y].get(na, ZERO_SUM)
                    if r != ZERO_SUM:
                        num, den = n(y, na) * n(x, nb), norm[r]
                    r = sums[x].get(na, ZERO_SUM)
                    if r != ZERO_SUM:
                        num, den = num * norm[r] + n(na, x) * n(y, nb) * den, den * norm[r]
                    val = _exact_quotient(norm[s] * num, den * n(x, y), "N({}, {})", roots[a], roots[b])
        elif s < top:  # a positive, b negative, c = -s
            val = _exact_quotient(norm[s] * n(b, neg[s]), norm[a], "N({}, {})", roots[a], roots[b])
        else:
            val = _exact_quotient(norm[s] * n(neg[s], a), norm[b], "N({}, {})", roots[a], roots[b])
        memo[key] = val
        return val

    table = [[()] * dim for _ in range(dim)]
    for a in range(rank, dim):
        for i, c in enumerate(rs._pairings[a]):  # [h_i, e_alpha] = <alpha, alpha_i^vee> e_alpha
            if c:
                table[i][a], table[a][i] = ((a, c),), ((a, -c),)
        for b, s in sums[a].items():
            if b > a:
                # a indexes the positive root of a pair that sums to 0: [e_alpha, e_-alpha] = alpha^vee
                entry = tuple(enumerate(rs._coroot(a))) if s == ZERO_SUM else ((s, n(a, b)),)
                table[a][b] = tuple((k, c) for k, c in entry if c)
                table[b][a] = tuple((k, -c) for k, c in table[a][b])
    return table


@lru_cache(maxsize=None)
def build_chevalley(cartan_type: str, rank: int) -> LieAlgebra:
    """Split semisimple Lie algebra of the given type on a Chevalley basis.

    A cold build does only what its certificate reads: the root data, the
    table, the antisymmetry check and ``_certify_chevalley``.  The Killing
    form is summed on its first read.
    """
    rs = RootSystem(cartan_type, rank)
    alg = LieAlgebra(_labels(rs), _table_from_roots(rs), rank, rs, name=f"{cartan_type}{rank}")
    _certify_chevalley(alg)
    return alg


def _certify_chevalley(alg: LieAlgebra):
    """Construction-time certificate of the whole table, read off ``alg.table`` by root index.

    [h_i, h_j] = 0, [h_i, e_beta] = <beta, alpha_i^vee> e_beta, and over
    every unordered pair of roots, visited once as (alpha, beta) with beta's
    index above alpha's, [e_alpha, e_beta] is exactly ±(p+1) e_{alpha+beta}
    when alpha + beta is a root, the coroot of alpha when it is 0, and 0
    otherwise.  One visit per pair suffices: ``_check_table`` certified
    [e_beta, e_alpha] = -[e_alpha, e_beta] when the algebra was built, and
    p_{beta,alpha} = p_{alpha,beta} when alpha + beta is a root (Carter,
    *Simple Groups of Lie Type*, 1972).  A second pass ties the signs:
    N_{-alpha,-beta} = -N_{alpha,beta} on every root-sum pair with alpha
    positive, which meets each pair or its negative.
    """
    rs, table, rank, dim = alg.root_data, alg.table, alg.rank, alg.dim
    roots, sums, neg = rs.by_index, rs._sums, rs._neg
    if len(rs.roots) != dim - rank:
        raise CertificateFailed(f"{alg.name}: {len(rs.roots)} roots for {dim - rank} root vectors")
    for i in range(rank):
        if any(table[i][:rank]):
            raise CertificateFailed(f"{alg.name}: [h_{i + 1}, h_j] != 0 for some j")
        for b, beta in enumerate(roots[rank:], rank):
            c = rs._pairings[b][i]
            if table[i][b] != (((b, c),) if c else ()):
                raise CertificateFailed(f"{alg.name}: [h_{i + 1}, e{beta}] != <{beta}, alpha_{i + 1}^vee> e{beta}")
    for a in range(rank, dim):
        row, row_sums, alpha = table[a], sums[a], roots[a]
        for b in range(a + 1, dim):
            entry, s, beta = row[b], row_sums.get(b), roots[b]
            if s is None:
                if entry:
                    s = f"{tuple(map(add, alpha, beta))} is neither a root nor 0"
                    raise CertificateFailed(f"{alg.name}: [e{alpha}, e{beta}] = {dict(entry)}, but {s}")
            elif s == ZERO_SUM:  # alpha is the positive root of the pair, indexed first
                if dict(entry) != {i: c for i, c in enumerate(rs._coroot(a)) if c}:
                    raise CertificateFailed(f"{alg.name}: [e{alpha}, e-{alpha}] is not the coroot of {alpha}")
            else:
                coeff, expected = dict(entry).get(s, 0), rs._p_string(a, b) + 1
                if abs(coeff) != expected:
                    raise CertificateFailed(f"{alg.name}: |N({alpha}, {beta})| = {abs(coeff)}, not p + 1 = {expected}")
                if len(entry) > 1:
                    raise CertificateFailed(f"{alg.name}: [e{alpha}, e{beta}] = {dict(entry)} has terms off e{roots[s]}")
    for a in range(rank, rank + rs._npos):
        alpha = roots[a]
        for b, s in sums[a].items():
            if b > a and s != ZERO_SUM:
                (_, c), na, nb = table[a][b][0], neg[a], neg[b]
                if table[na][nb] != ((neg[s], -c),):
                    got, want = dict(table[na][nb]).get(neg[s], 0), f"-N({alpha}, {roots[b]}) = {-c}"
                    raise CertificateFailed(f"{alg.name}: N({roots[na]}, {roots[nb]}) = {got}, not {want}")


def principal_sl2(alg: LieAlgebra) -> Sl2Triple:
    """Principal triple: e = sum of simple root vectors, alpha_i(h) = 2."""
    rs = alg._require_roots()
    es, hs, fs = alg.simple_vectors()
    # h = 2 rho^vee, the sum of the positive coroots, has alpha_i(h) = 2 for all i
    coeffs = la.vec(sum(c) for c in zip(*map(rs.coroot_coeffs, rs.positive)))
    e = la.mat_vec(la.transpose(es), (la.ONE,) * alg.rank)
    h = la.mat_vec(la.transpose(hs), coeffs)
    # [e, f] = h with f = sum_i d_i f_i forces d_i = c_i.
    f = la.mat_vec(la.transpose(fs), coeffs)
    triple = Sl2Triple(e, h, f)
    if not triple.verify(alg):
        raise SolveFailure("principal triple relations failed")
    for v in (triple.e, triple.h, triple.f):
        if len(alg.centralizer(v)) != alg.rank:
            raise SolveFailure("principal triple member is not regular")
    return triple


def direct_power(alg: LieAlgebra, n: int) -> LieAlgebra:
    """Product algebra g^n with block-diagonal structure constants.

    Its Killing form, block diagonal too, is summed only if something
    reads it: the Moore-Tachikawa scenario reads the factor's, never the
    product's.
    """
    dim = alg.dim
    labels = [f"g{k+1}.{lbl}" for k in range(n) for lbl in alg.basis_labels]
    table = [[[] for _ in range(n * dim)] for _ in range(n * dim)]
    for k in range(n):
        off = k * dim
        for i in range(dim):
            for j in range(dim):
                table[off + i][off + j] = [(off + m, c) for m, c in alg.table[i][j]]
    return LieAlgebra(labels, table, alg.rank * n, name=f"{alg.name}^{n}")


def embed_factor(product_dim: int, factor_dim: int, k: int, x: Vector) -> Vector:
    n = product_dim // factor_dim
    if len(x) != factor_dim or not 0 <= k < n:
        raise DimensionMismatch(f"factor index {k} with length {len(x)}: the product has {n} factors of length {factor_dim}")
    out = [la.ZERO] * product_dim
    for i, c in enumerate(x):
        out[k * factor_dim + i] = c
    return tuple(out)


def is_subalgebra(alg: LieAlgebra, vectors: Sequence[Vector]) -> bool:
    """span(vectors) is closed under the bracket: it holds [a, b] for every pair."""
    return la.span_contains(vectors, [alg.bracket(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1 :]])
