"""The zero-skipping kernels against the dense reference kernels.

Random inputs are sparse rational matrices, about one entry in ten
nonzero (one in three for some draws, so eliminations do real work),
each zero either the shared ``la.ZERO`` or a fresh ``Q(0)``, with
duplicated rows mixed in; the edge cases (empty, all-zero, 1 x n)
are also pinned explicitly.  ``rref`` and ``det`` eliminate on integer
rows, so they are also held to the reference on dense rows with large
numerators and wide, mostly coprime denominators.  Every comparison is
exact equality.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from conftest import perturbed
from symred import groupoid as gpd
from symred import lie, poisson, reduction
from symred import linalg as la
from symred.errors import DimensionMismatch

nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def sparse_rows(draw, nrows, ncols):
    """nrows x ncols with about one entry in ten (or in three) nonzero.

    Each zero cell is either the shared ``la.ZERO`` or a fresh ``Q(0)``, so
    the kernels' ``is ZERO`` shortcut and their ``Fraction.__bool__`` test
    both meet the reference.
    """
    cells = nrows * ncols
    one_in = draw(st.sampled_from([10, 3]))
    shared = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    flat = [la.ZERO if s else Q(0) for s in shared]
    if cells:
        count = draw(st.integers(0, max(1, 2 * cells // one_in)))
        positions = draw(st.lists(st.integers(0, cells - 1), min_size=count, max_size=count))
        for pos, value in zip(positions, draw(st.lists(nonzero, min_size=count, max_size=count))):
            flat[pos] = value
    rows = [tuple(flat[r * ncols : (r + 1) * ncols]) for r in range(nrows)]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    return rows


@st.composite
def sparse_matrix(draw, max_rows=8, max_cols=10):
    return draw(sparse_rows(draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols))))


@st.composite
def sparse_square(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    return draw(sparse_rows(n, n))[:n]


@st.composite
def wide_rows(draw, nrows, ncols):
    """nrows x ncols, about two entries in three nonzero, numerators up to 10^12 and denominators up to 10^6.

    Some rows are negated so that they lead with a negative entry, and
    sometimes a row is a rational combination of two others, so it turns
    zero during the elimination.
    """
    entry = st.builds(Q, st.integers(-10**12, 10**12), st.integers(1, 10**6))
    rows = [[draw(entry) if draw(st.integers(0, 2)) else Q(0) for _ in range(ncols)] for _ in range(nrows)]
    for row in rows:
        lead = next((x for x in row if x), 0)
        if lead > 0 and draw(st.booleans()):
            row[:] = [-x for x in row]
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(entry.filter(bool)), draw(entry)
        rows[draw(st.integers(2, nrows - 1))] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return [tuple(r) for r in rows]


@st.composite
def wide_matrix(draw, max_rows=6, max_cols=7):
    return draw(wide_rows(draw(st.integers(0, max_rows)), draw(st.integers(1, max_cols))))


@st.composite
def wide_square(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    return draw(wide_rows(n, n))


EDGE_CASES = [
    [],
    [la.zeros(4)] * 3,
    [la.vec([0, 0, 2, 0, Q(-1, 3)])],
    [la.zeros(1)],
    [la.vec([1, 0, 2]), la.vec([1, 0, 2]), la.vec([0, 0, 3])],
    [la.vec([0, 5, 0, 0])] * 4,
    # one row with the mixed denominators 2, 3, 5, 7
    [la.vec([Q(1, 2), Q(1, 3), Q(1, 5), Q(1, 7)])],
    # each pivot divides every entry of its column, so no row is rescaled (p/g = 1)
    [la.vec([2, 0, 0]), la.vec([4, 2, 0]), la.vec([-6, 8, 2])],
    # the third row is the sum of the first two and turns zero mid-elimination
    [la.vec([1, 2, 0, 1]), la.vec([0, 1, 1, 0]), la.vec([1, 3, 1, 1]), la.vec([0, 0, Q(1, 4), 1])],
    # determinant -1/14 - 5
    [la.vec([Q(1, 2), 3]), la.vec([Q(5, 3), Q(-1, 7)])],
    # singular: the second row is a third of the first
    [la.vec([-6, Q(3, 5), 9]), la.vec([-2, Q(1, 5), 3]), la.vec([1, 1, Q(-1, 11)])],
]


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_rref_edge_cases(rows):
    assert la.rref(rows) == ref.rref(rows)
    if rows and len(rows) == len(rows[0]):
        assert la.det(rows) == ref.det(rows)


@given(wide_matrix())
@settings(max_examples=100, deadline=None)
def test_rref_matches_dense_on_wide_rows(rows):
    assert la.rref(rows) == ref.rref(rows)


@given(wide_square())
@settings(max_examples=100, deadline=None)
def test_det_matches_dense_on_wide_rows(rows):
    assert la.det(rows) == ref.det(rows)


def boundary_scalars(rows):
    """Every scalar that rref, span_basis, nullspace, solve, inverse and det return on `rows`."""
    out = [x for row in la.rref(rows)[0] for x in row]
    out += [x for v in la.span_basis(rows) + la.nullspace(rows) for x in v]
    if rows:
        # b is the first column, so x = e_0 solves A x = b
        out += la.solve(rows, tuple(r[0] for r in rows))
    if len(rows) == len(rows[0] if rows else ()):
        d = la.det(rows)
        out.append(d)
        if d:
            out += [x for row in la.inverse(rows) for x in row]
    return out


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_kernels_return_fractions_on_edge_cases(rows):
    assert all(type(x) is Q for x in boundary_scalars(rows))


@given(wide_matrix())
@settings(max_examples=25, deadline=None)
def test_kernels_return_fractions_on_wide_rows(rows):
    assert all(type(x) is Q for x in boundary_scalars(rows))


@given(sparse_matrix())
@settings(max_examples=100, deadline=None)
def test_rref_matches_dense(rows):
    assert la.rref(rows) == ref.rref(rows)


@given(sparse_square())
@settings(max_examples=100, deadline=None)
def test_det_matches_dense(rows):
    assert la.det(rows) == ref.det(rows)


def test_det_edge_cases():
    assert la.det([]) == ref.det([]) == 1
    assert la.det([la.zeros(3)] * 3) == 0
    dup = [la.vec([1, 2, 0]), la.vec([1, 2, 0]), la.vec([0, 0, 1])]
    assert la.det(dup) == ref.det(dup) == 0


@given(st.integers(0, 12).flatmap(lambda n: sparse_rows(2, n)))
@settings(max_examples=100, deadline=None)
def test_dot_matches_dense(rows):
    u, v = rows[:2]
    got = la.dot(u, v)
    assert got == ref.dot(u, v)
    assert isinstance(got, Q)


def test_dot_contract():
    with pytest.raises(ValueError):
        la.dot(la.zeros(3), la.zeros(4))
    with pytest.raises(ValueError):
        la.dot(la.vec([1, 0]), la.vec([0, 1, 0]))
    for u, v in [((), ()), (la.vec([1, 0]), la.vec([0, 1])), (la.zeros(3), la.zeros(3))]:
        got = la.dot(u, v)
        assert got == 0 and type(got) is Q


def densified(v):
    """v with every zero entry replaced by a nonzero one."""
    return tuple(x or Q(k + 1) for k, x in enumerate(v))


@st.composite
def matrix_and_vector(draw):
    """A sparse matrix and a vector of its width, sparse or with no zero entry."""
    rows = draw(sparse_rows(draw(st.integers(1, 9)), draw(st.integers(0, 10))))
    v = rows.pop()
    return rows, densified(v) if draw(st.booleans()) else v


@given(matrix_and_vector())
@settings(max_examples=100, deadline=None)
def test_mat_vec_matches_dense(drawn):
    a, v = drawn
    got = la.mat_vec(a, v)
    assert got == ref.mat_vec(a, v)
    assert type(got) is tuple and all(type(x) is Q for x in got)


def test_mat_vec_contract():
    assert la.mat_vec([], la.zeros(3)) == ref.mat_vec([], la.zeros(3)) == ()
    assert la.mat_vec([], ()) == ()
    assert la.mat_vec([()], ()) == (0,)
    with pytest.raises(ValueError):
        la.mat_vec([la.zeros(3)], la.zeros(4))
    with pytest.raises(ValueError):
        la.mat_vec([la.unit(2, 0), la.unit(3, 0)], la.unit(2, 1))
    with pytest.raises(ValueError):
        la.mat_vec([la.vec([1, 0, 2])], la.vec([0, 1]))


@st.composite
def space_and_sub(draw):
    """Sparse `space` vectors and `sub` vectors drawn inside span(space)."""
    space = draw(sparse_rows(draw(st.integers(0, 6)), draw(st.integers(1, 8))))
    if not space:
        return [], []
    coeffs = draw(sparse_rows(draw(st.integers(0, 4)), len(space)))
    return space, [la.mat_vec(la.transpose(space), c) for c in coeffs]


@given(space_and_sub())
@settings(max_examples=100, deadline=None)
def test_extend_to_basis_matches_greedy(drawn):
    space, sub = drawn
    got = la.extend_to_basis(sub, space)
    assert got == ref.extend_to_basis(sub, space)
    assert la.rank(sub + got) == la.rank(space)


def test_extend_to_basis_edge_cases():
    assert la.extend_to_basis([], []) == []
    units = list(la.identity(3))
    assert la.extend_to_basis([], units) == units
    assert la.extend_to_basis(units, units) == []
    dup = [la.vec([1, 0, 0]), la.vec([1, 0, 0]), la.vec([0, 0, 2])]
    assert la.extend_to_basis([], dup) == ref.extend_to_basis([], dup) == [dup[0], dup[2]]


ALGEBRAS = [("A", 1), ("A", 2), ("B", 2), ("G2", 2)]


@pytest.mark.parametrize("typ,rank", ALGEBRAS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_omega_gram_matches_pairwise(typ, rank, data):
    alg = lie.build_chevalley(typ, rank)
    n = alg.dim
    xi = data.draw(sparse_rows(1, n))[0]
    count = data.draw(st.integers(0, 6))
    vectors = data.draw(sparse_rows(count, 2 * n))
    vectors += [la.unit(2 * n, i) for i in data.draw(st.lists(st.integers(0, 2 * n - 1), max_size=4))]
    assert gpd.omega_gram(alg, xi, vectors) == ref.omega_gram(alg, xi, vectors)


def test_omega_gram_dimension_mismatch(sl2):
    good = la.unit(6, 0)
    with pytest.raises(DimensionMismatch):
        gpd.omega_gram(sl2, la.zeros(3), [good, la.zeros(5)])
    with pytest.raises(DimensionMismatch):
        gpd.omega_gram(sl2, la.zeros(3), [la.zeros(7)])
    with pytest.raises(DimensionMismatch):
        gpd.omega_gram(sl2, la.zeros(4), [good])
    assert gpd.omega_gram(sl2, la.zeros(3), []) == []


def _reduced_by_reference(alg, model):
    complement = ref.extend_to_basis(list(model.kernel), list(model.n_tangent))
    return complement, ref.omega_gram(alg, model.xi, complement)


def test_kernel_identity_reduced_form_matches_pairwise(sl2, sl3):
    cases = []
    hb = sl2.flat(sl2.basis_vec(0))
    cases.append((sl2, poisson.CoadjointOrbit(sl2, hb), hb))
    cases.append((sl2, poisson.Singleton(hb), hb))
    x = sl3.from_matrix(la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
    dec = poisson.DecompositionClass(sl3, 4, [x])
    cases.append((sl3, dec, dec.sample_points[0]))
    dia = poisson.DiagonalSlodowy(sl2, lie.principal_sl2(sl2), 2, parameters=[[0], [Q(1, 2)]])
    for pt in dia.sample_points:
        cases.append((dia.product, dia, pt))
    for alg, model, pt in cases:
        _, red = reduction.kernel_identity_check(alg, model, pt)
        complement, form = _reduced_by_reference(alg, red)
        assert list(red.complement) == complement
        assert [tuple(r) for r in red.reduced_form] == form


@pytest.mark.parametrize("typ,rank", ALGEBRAS + [("A", 3), ("C", 3)])
def test_verify_jacobi_matches_bracket_route(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is True


def test_verify_jacobi_false_branch(sl2):
    # [h, e] = 3e instead of 2e; the table stays antisymmetric
    h, e = 0, sl2.root_vector_index((1,))
    broken = perturbed(sl2, h, e, e, Q(1))
    assert broken.structure_constant(h, e, e) == 3 == -broken.structure_constant(e, h, e)
    assert broken.verify_jacobi() is False
    assert ref.verify_jacobi(broken) is False


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_verify_jacobi_perturbed_matches_reference(data):
    base = lie.build_chevalley("A", 2)
    n = base.dim
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    k = data.draw(st.integers(0, n - 1))
    alg = perturbed(base, i, j, k, data.draw(nonzero))
    assert alg.verify_jacobi() == ref.verify_jacobi(alg)


# -- kernel inside a subspace, coadjoint action, Killing form -------------------


@st.composite
def basis_and_map(draw):
    """Sparse basis vectors (some repeated or recombined) and a map on them.

    The map has between 0 rows (zero-width images) and 6 rows, and is
    sometimes all zero.
    """
    dim = draw(st.integers(1, 7))
    basis = draw(sparse_rows(draw(st.integers(0, 5)), dim))
    if basis and draw(st.booleans()):
        coeffs = draw(sparse_rows(draw(st.integers(1, 3)), len(basis)))
        basis += [la.mat_vec(la.transpose(basis), c) for c in coeffs]
    width = draw(st.integers(0, 6))
    if draw(st.booleans()):
        m = [la.zeros(dim)] * width
    else:
        m = draw(sparse_rows(width, dim))
    return tuple(m), basis


def images_of(m, basis):
    return [la.mat_vec(m, v) for v in basis]


@given(basis_and_map())
@settings(max_examples=150, deadline=None)
def test_kernel_within_matches_coefficient_loop(drawn):
    m, basis = drawn
    got = la.kernel_within(images_of(m, basis), basis)
    assert got == ref.kernel_within(m, basis)
    assert all(la.is_zero(la.mat_vec(m, v)) for v in got)


def test_kernel_within_edge_cases():
    m = (la.vec([1, 0, 0]),)
    assert la.kernel_within([], []) == ref.kernel_within(m, []) == []
    units = list(la.identity(3))
    # zero-width images: the whole span, in canonical form
    dep = [la.vec([0, 2, 0]), la.vec([0, 1, 0]), la.vec([1, 1, 0])]
    assert la.kernel_within([()] * 3, dep) == ref.kernel_within((), dep) == la.span_basis(dep)
    # all-zero images: also the whole span
    zero = (la.zeros(3),)
    assert la.kernel_within(images_of(zero, dep), dep) == ref.kernel_within(zero, dep) == la.span_basis(dep)
    # a dependent basis with a one-dimensional kernel inside it
    assert la.kernel_within(images_of(m, dep), dep) == ref.kernel_within(m, dep) == [la.vec([0, 1, 0])]
    assert la.kernel_within(images_of(m, units), units) == units[1:]


def test_annihilator_of_nothing_is_everything():
    for n in range(5):
        assert la.annihilator([], n) == list(la.identity(n))
        assert la.rank(la.annihilator([], n)) == n
    assert la.annihilator([la.vec([1, 0, 0])], 3) == [la.vec([0, 1, 0]), la.vec([0, 0, 1])]


@pytest.mark.parametrize("typ,rank", ALGEBRAS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ad_star_matches_table_loop(typ, rank, data):
    alg = lie.build_chevalley(typ, rank)
    x, xi = data.draw(sparse_rows(2, alg.dim))[:2]
    assert alg.ad_star(x, xi) == ref.ad_star(alg, x, xi)
    for i in data.draw(st.lists(st.integers(0, alg.dim - 1), max_size=3)):
        assert alg.ad_star(alg.basis_vec(i), xi) == ref.ad_star(alg, alg.basis_vec(i), xi)


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_killing_matches_dense_loop(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    assert alg.killing == ref.killing(alg)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_killing_of_perturbed_table_matches_dense_loop(data):
    base = lie.build_chevalley("A", 2)
    n = base.dim
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    k = data.draw(st.integers(0, n - 1))
    alg = perturbed(base, i, j, k, data.draw(nonzero))
    assert alg.killing == ref.killing(alg)


@pytest.mark.parametrize("typ,rank", ALGEBRAS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_bracket_matches_dense_loop(typ, rank, data):
    alg = lie.build_chevalley(typ, rank)
    x, y = data.draw(sparse_rows(2, alg.dim))[:2]
    dense = densified(x)
    for u, v in ((x, y), (x, dense), (dense, y), (dense, dense)):
        assert alg.bracket(u, v) == ref.bracket(alg, u, v)
    i, j = data.draw(st.integers(0, alg.dim - 1)), data.draw(st.integers(0, alg.dim - 1))
    ei, ej = alg.basis_vec(i), alg.basis_vec(j)
    assert alg.bracket(ei, ej) == ref.bracket(alg, ei, ej)


@pytest.mark.parametrize("rank", sorted(r for t, r in lie.SUPPORTED if t == "A"))
def test_type_a_table_matches_matrix_commutators(rank):
    alg = lie.build_chevalley("A", rank)
    size, reps = rank + 1, alg.matrix_rep

    def elementary(entries):
        return la.mat([[entries.get((r, s), 0) for s in range(size)] for r in range(size)])

    # the realization ref.sl_table reads: h_i = E_ii - E_{i+1,i+1}, and every
    # root vector ±E_rs at its root's position (E_sr for a negative root)
    for i in range(rank):
        assert reps[i] == elementary({(i, i): 1, (i + 1, i + 1): -1})
    for beta in alg.root_data.roots:
        r, s = ref.sl_position(tuple(abs(c) for c in beta))
        if min(beta) < 0:
            r, s = s, r
        assert reps[alg.root_vector_index(beta)] in (elementary({(r, s): 1}), elementary({(r, s): -1}))
    assert alg.table == ref.sl_table(alg)


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_killing_invariance_matches_triple_loop(typ, rank):
    """The library's verdict on these types is True by test_lie.test_killing_invariance."""
    assert ref.verify_killing_invariance(lie.build_chevalley(typ, rank)) is True


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_killing_invariance_of_perturbed_table_matches_triple_loop(data):
    base = lie.build_chevalley("A", 2)
    n = base.dim
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    k = data.draw(st.integers(0, n - 1))
    alg = perturbed(base, i, j, k, data.draw(nonzero))
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is False


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_killing_invariance_of_tampered_form_matches_triple_loop(data):
    """K moved by delta at (a, b) and (b, a): still symmetric, no longer invariant."""
    sl3 = lie.build_chevalley("A", 2)
    alg = lie.LieAlgebra(sl3.basis_labels, sl3.table, sl3.rank, name="tampered")
    a = data.draw(st.integers(0, alg.dim - 1))
    b = data.draw(st.integers(a, alg.dim - 1))
    delta = data.draw(nonzero)
    k_mat = [list(row) for row in sl3.killing]
    k_mat[a][b] += delta
    if a != b:
        k_mat[b][a] += delta
    alg.killing = tuple(tuple(row) for row in k_mat)
    assert alg.killing == la.transpose(alg.killing)
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is False


def sl2_half_f():
    """sl2 on the basis (h, e, f/2): [h, e] = 2e, [h, f/2] = -2 f/2, [e, f/2] = h/2."""
    table = [[[] for _ in range(3)] for _ in range(3)]
    for i, j, k, c in ((0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, Q(1, 2))):
        table[i][j], table[j][i] = [(k, c)], [(k, -c)]
    return lie.LieAlgebra(("h", "e", "f/2"), table, 1, name="sl2_half_f")


def test_rational_table_matches_reference():
    alg = sl2_half_f()
    assert alg.table[1][2] == ((0, Q(1, 2)),) and type(alg.table[1][2][0][1]) is Q
    assert type(alg.table[0][1][0][1]) is int
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is True
    assert alg.killing == ref.killing(alg)
    assert alg.killing == ((8, 0, 0), (0, 0, 2), (0, 2, 0))
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is True


# each moves an eigenvalue of ad_h off ±2, so [e, f/2] = h/2 no longer closes Jacobi
@pytest.mark.parametrize("i,j,k,delta", [(0, 1, 1, Q(1)), (0, 1, 1, Q(1, 2)), (0, 2, 2, Q(1, 3))])
def test_perturbed_rational_table_fails_on_both(i, j, k, delta):
    alg = perturbed(sl2_half_f(), i, j, k, delta)
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is False
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is False


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_intersect_spans_is_the_canonical_intersection(data):
    dim = data.draw(st.integers(1, 7))
    a = data.draw(sparse_rows(data.draw(st.integers(0, 5)), dim))
    b = data.draw(sparse_rows(data.draw(st.integers(0, 5)), dim))
    got = la.intersect_spans(a, b)
    assert got == la.span_basis(got)
    assert la.span_contains(a, got) and la.span_contains(b, got)
    assert len(got) == la.rank(a) + la.rank(b) - la.rank(a + b)
