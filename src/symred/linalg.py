"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction`` and matrices are tuples of row
tuples, so every object is immutable and safe to share between threads.
Subspaces are represented by generating lists of vectors; ``span_basis``
returns the canonical reduced-row-echelon basis, which makes subspace
equality a syntactic comparison.

Nothing here is numerical: ranks, kernels and solutions are exact, and a
zero really is zero.

The kernels sum on integers over one common denominator.  ``_integer``
scales a vector once by the lcm of its denominators (``n * (d // e)``,
never ``int(x * d)``, a ``Fraction`` multiply per cell); the products are
summed as ints, and one ``Fraction`` is built per nonzero output entry,
a zero entry being the shared ``ZERO``.  ``dot`` and each row of
``mat_vec`` keep a running numerator over a denominator that grows only
when an entry's denominator does not divide it, and ``mat_vec`` sums a
row over the support of ``v`` only.  ``mat_mul`` is ``mat_vec`` of Bᵀ
on each row of A, same contract: it raises ``ValueError`` on a ragged B
and on a row of A whose length is not len(B), and a B of no columns gives
one empty row per row of A.  ``columns`` is the matrix of generators
in Q^n: n empty rows for no generators, so one ``mat_vec`` of it gives
n shared ``ZERO``s for the empty sum.  ``add``, ``sub``, ``neg`` and
``scale`` pass over a cell that ``is`` ``ZERO`` and keep it shared.
Every result equals the one the dense ``Fraction`` loops give, and
vectors and matrices stay tuples of ``Fraction`` at every public
boundary.

``rref`` eliminates on integer rows: each input row is multiplied once by
the lcm of its denominators.  Each column pivots on its smallest |entry|
at or below the current row, the first one on ties: a small pivot divides
more of the entries it clears, and the reduced form is unique, so the
choice changes no result.  It clears a row against the pivot row by the
cross-multiplication (p/g) row - (f/g) prow, with p the pivot, f the row's
entry in the pivot column and g = gcd(p, f), on the pivot row's nonzero
columns only; a row that this rescales (p/g > 1) is divided by the gcd of
its entries, so the integers stay small.  Rows with a zero in the pivot column
are not touched.  ``rref`` builds a ``Fraction`` only at the boundary, one
per nonzero output entry; ``rank`` and ``extend_to_basis`` read the
pivots of the same elimination and build none, and ``nullspace`` reads
its basis off the integer rows, one ``Fraction`` per basis entry.  The
reason is the cost of each operation: a ``Fraction`` multiply or subtract
runs two gcds and builds a new object, where an ``int`` operation is one
C call.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction

Q = Fraction

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact computations")
    return Fraction(x)


def vec(xs: Iterable) -> Vector:
    return tuple(frac(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


ZERO = Q(0)  # shared exact constants; Fractions are immutable
ONE = Q(1)


def zeros(n: int) -> Vector:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise ValueError(f"unit vector index {i} outside 0..{n - 1}")
    v = [ZERO] * n
    v[i] = ONE
    return tuple(v)


def identity(n: int) -> Matrix:
    return tuple(unit(n, i) for i in range(n))


def add(u: Vector, v: Vector) -> Vector:
    return tuple(b if a is ZERO else a if b is ZERO else (a + b) or ZERO for a, b in zip(u, v, strict=True))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a if b is ZERO else -b if a is ZERO else (a - b) or ZERO for a, b in zip(u, v, strict=True))


def neg(u: Vector) -> Vector:
    return tuple(a if a is ZERO else -a for a in u)


def scale(c, u: Vector) -> Vector:
    c = frac(c)
    if not c:
        return zeros(len(u))
    return tuple(a if a is ZERO else c * a for a in u)


def _integer(v: Sequence) -> tuple[list[tuple[int, int]], int]:
    """(support, d): v[j] = n / d for each (j, n) in support, the nonzero entries of v."""
    ratios = [(j, x.as_integer_ratio()) for j, x in enumerate(v) if x is not ZERO]
    d = math.lcm(*[e for _, (_, e) in ratios])
    if d == 1:
        return [(j, n) for j, (n, _) in ratios if n], 1
    return [(j, n * (d // e)) for j, (n, e) in ratios if n], d


def _row_sum(row: Sequence, support: list[tuple[int, int]], d: int):
    """Sum of row[j] * n / d over (j, n) in support: one Fraction, or ZERO."""
    acc, den = 0, 1
    for j, b in support:
        x = row[j]
        if x is ZERO:
            continue
        xn, xd = x.as_integer_ratio()
        if den % xd:
            # widen the common denominator to lcm(den, xd)
            grow = xd // math.gcd(den, xd)
            acc *= grow
            den *= grow
        acc += xn * b * (den // xd)
    return Q(acc, den * d) if acc else ZERO


def dot(u: Vector, v: Vector) -> Fraction:
    """Sum of a * b over the pairs with no ZERO factor, on ints; one ``Fraction`` at most."""
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    acc, den = 0, 1
    for a, b in zip(u, v):
        if a is ZERO or b is ZERO:
            continue
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        pd = ad * bd
        if den % pd:
            grow = pd // math.gcd(den, pd)
            acc *= grow
            den *= grow
        acc += an * bn * (den // pd)
    return Q(acc, den) if acc else ZERO


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def mat_vec(a: Sequence[Vector], v: Vector) -> Vector:
    """A v, each row summed on ints over the support of v only.

    Raises ``ValueError`` when a row's length differs from len(v), as
    ``dot`` does.
    """
    n = len(v)
    support, d = _integer(v)
    out = []
    for row in a:
        if len(row) != n:
            raise ValueError(f"row of length {len(row)} against a vector of length {n}")
        out.append(_row_sum(row, support, d))
    return tuple(out)


def mat_mul(a: Sequence[Vector], b: Sequence[Vector]) -> Matrix:
    """A B, one ``mat_vec`` of Bᵀ per row of A; see the module docstring."""
    columns = transpose(b)
    return tuple(mat_vec(columns, row) for row in a)


def transpose(a: Sequence[Vector]) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a, strict=True))


def columns(vectors: Sequence[Vector], n: int) -> Matrix:
    """The n rows of the matrix whose columns are `vectors`: n empty rows when there are none."""
    return transpose(vectors) or ((),) * n


def _clear(row: list[int], prow: list[int], c: int, support: list[int]) -> list[int]:
    """Clear row[c] against the pivot row prow, whose nonzero columns are `support`.

    The new row is (p/g) row - (f/g) prow, with p = prow[c], f = row[c] and
    g = gcd(p, f) signed so that p/g > 0; a rescaled row is divided by its
    content, so the integers stay small.
    """
    p, f = prow[c], row[c]
    g = math.gcd(p, f) if p > 0 else -math.gcd(p, f)
    mult, f = p // g, f // g
    if mult != 1:
        row = [mult * x for x in row]
    for j in support:
        row[j] -= f * prow[j]
    if mult == 1:
        return row
    content = math.gcd(*row) or 1
    return [x // content for x in row] if content > 1 else row


def _echelon(rows: Sequence[Vector]) -> tuple[list[list[int]], list[int]]:
    """rref on integer rows: (rows, pivots), the row of the i-th pivot p being m[i] / m[i][p]."""
    m = []
    for r in rows:
        row = [0] * len(r)
        for j, x in _integer(r)[0]:
            row[j] = x
        m.append(row)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # the smallest |entry| pivots; nothing is smaller than 1
        pivot_row, least = None, 0
        for i in range(r, len(m)):
            x = m[i][c]
            if x and (pivot_row is None or abs(x) < least):
                pivot_row, least = i, abs(x)
                if least == 1:
                    break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        # rows r.. are zero left of c, so the pivot row's support starts at c
        support = [j for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = _clear(row, prow, c, support)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rref(rows: Sequence[Vector]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m, pivots = _echelon(rows)
    if not m:
        return [], []
    out = [[Q(x, row[c]) if x else ZERO for x in row] for row, c in zip(m, pivots)]
    out += [[ZERO] * len(m[0]) for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(rows: Sequence[Vector]) -> int:
    return len(_echelon(rows)[1])


def span_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """Canonical basis (nonzero rref rows) of the span of the inputs.

    Rows already in that form are returned as they are: rref is unique.
    """
    last = -1
    for i, row in enumerate(vectors):
        # compared, never computed: the row leads with 1, right of the row above, alone in its column
        lead = next((j for j, x in enumerate(row) if x), -1)
        if lead <= last or row[lead] != 1 or any(vectors[h][lead] for h in range(i)):
            break
        last = lead
    else:
        return [tuple(v) for v in vectors]
    m, pivots = rref(vectors)
    return [tuple(m[i]) for i in range(len(pivots))]


def nullspace(rows: Sequence[Vector]) -> list[Vector]:
    """Basis of {x : A x = 0} where the input rows are the rows of A.

    Read off ``_echelon``'s integer rows: one ``Fraction`` per nonzero
    basis entry outside the free column, which is ``ONE``.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [ZERO] * ncols
        v[c] = ONE
        for i, p in enumerate(pivots):
            if m[i][c]:
                v[p] = Q(-m[i][c], m[i][p])
        basis.append(tuple(v))
    return basis


def solve_many(a: Sequence[Vector], bs: Sequence[Vector]):
    """One exact solution of A x = b for each b in bs, all read off one rref of [A | b_1 .. b_k].

    None if any b is inconsistent: then some row of the rref is zero on A
    and not on the b's, so its pivot lies right of A.
    """
    if not a:
        return None if not all(map(is_zero, bs)) else [()] * len(bs)
    aug = [list(row) + list(bi) for row, bi in zip(a, zip(*bs, strict=True), strict=True)]
    ncols = len(a[0])
    m, pivots = rref(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    xs = [[ZERO] * ncols for _ in bs]
    for i, p in enumerate(pivots):
        for t, x in enumerate(xs, ncols):
            x[p] = m[i][t]
    return [tuple(x) for x in xs]


def inverse(a: Sequence[Vector]) -> Matrix:
    """A^-1, its columns solved for in one rref of [A | I].

    Raises ``ValueError`` on a matrix that is not square, as ``dot`` does,
    and ``ZeroDivisionError`` on a singular one.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"{n} rows of lengths {[len(row) for row in a]}: not a square matrix")
    columns = solve_many(a, identity(n))
    if columns is None:
        raise ZeroDivisionError("matrix is singular")
    return transpose(columns)


def span_contains(gens: Sequence[Vector], others: Sequence[Vector]) -> bool:
    """True iff every vector of `others` lies in span(gens).

    Zero vectors lie in every span, so they are dropped before any rref.
    """
    others = [v for v in others if not is_zero(v)]
    if not others:
        return True
    if not gens:
        return False
    return rank(list(gens) + others) == rank(gens)


def span_equal(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    return span_basis(a) == span_basis(b)


def annihilator(gens: Sequence[Vector], dim: int) -> list[Vector]:
    """Basis of {w : w·g = 0 for all g in gens} inside Q^dim; all of Q^dim if no gens."""
    if not gens:
        return list(identity(dim))
    return nullspace(gens)


def kernel_within(images: Sequence[Vector], basis: Sequence[Vector]) -> list[Vector]:
    """Canonical basis of {sum c_i basis[i] : sum c_i images[i] = 0}.

    images[i] is the image of basis[i] under a linear map, so this is the
    kernel of that map inside span(basis).  Zero-width images send the
    whole span to zero.
    """
    if not basis:
        return []
    coeffs = annihilator(transpose(images), len(basis))
    columns = transpose(basis)
    return span_basis([mat_vec(columns, c) for c in coeffs])


def extend_to_basis(sub: Sequence[Vector], space: Sequence[Vector]) -> list[Vector]:
    """Vectors from `space` completing `sub` to a basis of span(space).

    Requires span(sub) ⊆ span(space); returns only the added vectors: the
    pivot columns of [sub | space] that fall in `space`, so each one is
    the first vector of `space` outside the span of everything before it.
    """
    space = list(space)
    cols = list(sub) + space
    if not cols:
        return []
    _, pivots = _echelon(transpose(cols))
    return [space[c - len(sub)] for c in pivots if c >= len(sub)]


# _RANDOM[n + 4][d - 1] is n/d, zero the shared ZERO
_RANDOM = tuple(tuple(Q(n, d) if n else ZERO for d in (1, 2, 3)) for n in range(-4, 5))


def random_fraction(rng: random.Random) -> Fraction:
    """Q(rng.randint(-4, 4), rng.randint(1, 3)), read off a table of the 27 values.

    ``choice`` draws ``_randbelow(len(seq))`` as ``randint`` draws
    ``_randbelow(b - a + 1)``, numerator first, so the stream and every
    value are those of the two ``randint`` calls; a zero is ``ZERO``.
    """
    return rng.choice(rng.choice(_RANDOM))


def random_vector(rng: random.Random, n: int) -> Vector:
    return tuple(random_fraction(rng) for _ in range(n))
