"""The zero-skipping kernels against the dense reference kernels.

Random inputs are sparse rational matrices, about one entry in ten
nonzero (one in three for some draws, so eliminations do real work),
each zero either the shared ``la.ZERO`` or a fresh ``Q(0)``, with
duplicated rows mixed in; the edge cases (empty, all-zero, 1 x n)
are also pinned explicitly.  ``rref`` eliminates on integer rows, so it
is also held to the reference on dense rows with large numerators and
wide, mostly coprime denominators.  Every comparison is exact equality.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
import types
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from conftest import perturbed, subregular_point, tampered
from symred import groupoid as gpd
from symred import cli, lie, poisson, reduction
from symred import linalg as la
from symred.errors import DimensionMismatch, LiftNotValid
from test_golden_report import CONFIGS

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


# column 0 reads 6, 8, 1, 7 on integer rows: its first nonzero is 6, its smallest 1;
# the last row is the sum of the first and the third
PIVOT_CHOICE = [la.vec([6, 1, 0, 2, 3]), la.vec([4, 0, 3, 1, Q(1, 2)]), la.vec([1, 2, 5, 0, 1]), la.vec([7, 3, 5, 2, 4])]


def column_pivots(monkeypatch, rows, column):
    """The pivot rows that _echelon clears `column` against, one entry per clear."""
    original, seen = la._clear, []

    def clear(row, prow, c, support):
        if c == column:
            seen.append(list(prow))
        return original(row, prow, c, support)

    monkeypatch.setattr(la, "_clear", clear)
    la.rank(rows)
    monkeypatch.undo()
    return seen


def test_elimination_pivots_on_the_smallest_entry(monkeypatch):
    """The pivot of a column is its smallest |entry| at or below the pivot row, the first one on ties."""
    assert column_pivots(monkeypatch, PIVOT_CHOICE, 0) == [[1, 2, 5, 0, 1]] * 3
    # -2 and 2 tie below 3: the first of them pivots
    ties = [la.vec([3, 1, 0]), la.vec([-2, 1, 1]), la.vec([2, 0, 1])]
    assert column_pivots(monkeypatch, ties, 0) == [[-2, 1, 1]] * 2


def test_kernels_match_reference_when_the_first_entry_is_not_the_smallest():
    rows = PIVOT_CHOICE
    assert la.rref(rows) == ref.rref(rows)
    assert la.nullspace(rows, 5) == ref.nullspace(rows, 5)
    assert la.rank(rows) == ref.rank(rows) == 3
    columns = la.transpose(rows)
    for sub, space in ((rows[:1], rows[1:]), ([], rows), (columns[1:2], columns)):
        assert la.extend_to_basis(sub, space) == ref.extend_to_basis(sub, space)


@given(wide_matrix())
@settings(max_examples=100, deadline=None)
def test_rref_matches_dense_on_wide_rows(rows):
    assert la.rref(rows) == ref.rref(rows)


def boundary_scalars(rows):
    """Every scalar that rref, span_basis, nullspace and inverse return on `rows`."""
    n = len(rows[0]) if rows else 3
    out = [x for row in la.rref(rows)[0] for x in row]
    out += [x for v in la.span_basis(rows) + la.nullspace(rows, n) for x in v]
    if len(rows) == n == la.rank(rows):
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
    cases.append((sl2, poisson.AffineSubspace(hb, []), hb))
    x = sl3.from_matrix(la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
    dec = poisson.DecompositionClass(sl3, 4, [x])
    cases.append((sl3, dec, dec.sample_points[0]))
    dia = poisson.diagonal(poisson.slodowy_slice(sl2, lie.principal_sl2(sl2), [[0], [Q(1, 2)]]), 2)
    for pt in dia.sample_points:
        cases.append((lie.direct_power(sl2, 2), dia, pt))
    for alg, model, pt in cases:
        _, red = reduction.kernel_identity_check(alg, model, pt)
        complement, form = _reduced_by_reference(alg, red)
        assert list(red.complement) == complement
        assert [tuple(r) for r in red.reduced_form] == form


@pytest.fixture()
def omega_bounds(monkeypatch):
    """Each bound ``LieAlgebra._omega_bound`` returns during the test: ``dim`` means no involution step."""
    seen, bound = [], lie.LieAlgebra._omega_bound

    def spy(self, *args):
        seen.append(bound(self, *args))
        return seen[-1]

    monkeypatch.setattr(lie.LieAlgebra, "_omega_bound", spy)
    return seen


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_verify_jacobi_matches_bracket_route(typ, rank, omega_bounds):
    """Every supported type, through the diagonal skip and the involution step, which each takes."""
    alg = lie.build_chevalley(typ, rank)
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is True
    assert sorted(alg._diagonal()) == list(range(rank))
    assert omega_bounds == [rank + len(alg.root_data.positive)]


def tamper_cases(alg):
    """Every kind of ``tampered`` at every root pair with a nonzero bracket, Cartan-root pair and root."""
    rank, n = alg.rank, alg.dim
    pairs = [(a, b) for a in range(rank, n) for b in range(a + 1, n) if alg.table[a][b]]
    cases = [(kind, a, b) for kind in ("flip", "flip+omega", "scale") for a, b in pairs]
    cases += [("cartan", i, b) for i in range(rank) for b in range(rank, n)]
    return cases + [(kind, a, None) for kind in ("sign", "sign+omega", "rescale") for a in range(rank, n)]


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2), ("A", 3)])
def test_certificates_of_tampered_chevalley_tables_match_reference(typ, rank, omega_bounds):
    """Both certificates give the reference's verdict on every tampered table, and the involution
    step is taken exactly where the involution is still an automorphism."""
    alg = lie.build_chevalley(typ, rank)
    top = rank + len(alg.root_data.positive)
    for kind, a, b in tamper_cases(alg):
        broken, taken = tampered(alg, kind, a, b), len(omega_bounds)
        holds = ref.verify_jacobi(broken)
        assert broken.verify_jacobi() is holds is (kind in ("sign", "sign+omega", "rescale")), (kind, a, b)
        if kind == "cartan":
            assert len(omega_bounds) == taken  # the weight pass fails first
        else:
            # a flip or a scale of [e_a, e_-a] is its own image
            automorphism = kind.endswith("+omega") or alg.root_data._neg[a] == b
            assert omega_bounds[-1] == (top if automorphism else alg.dim), (kind, a, b)
        if rank == 2 or kind in ("cartan", "rescale"):
            assert broken.verify_killing_invariance() is ref.verify_killing_invariance(broken), (kind, a, b)


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_a_flip_among_negative_roots_is_summed(typ, rank, omega_bounds):
    """N_{-alpha_1,-alpha_2} flipped on its own enters only triples with two negative roots,
    which the involution step leaves out: omega is no automorphism then, and they are summed."""
    alg = lie.build_chevalley(typ, rank)
    neg = alg.root_data._neg
    broken = tampered(alg, "flip", neg[rank], neg[rank + 1])
    assert broken.verify_jacobi() is ref.verify_jacobi(broken) is False
    assert omega_bounds == [alg.dim]


def test_direct_power_takes_no_involution_step(sl2, omega_bounds):
    """g^n carries no root data, so every triple without a diagonal index is summed."""
    square = lie.direct_power(sl2, 2)
    assert square.verify_jacobi() is ref.verify_jacobi(square) is True
    assert sorted(square._diagonal()) == [0, 3]
    assert omega_bounds == [square.dim]


def sl2_squared_with_root_data(neg):
    """sl2 + sl2 on (h1, h2, e1, f1, e2, f2) with [e2, f2] = h2 + h1, carrying root data whose ``_neg`` is neg.

    The table breaks Jacobi only on (e1, e2, f2), whose cyclic sum is
    [h1, e1] = 2 e1.  Chevalley's omega (e1 <-> f1, e2 <-> f2) is still an
    automorphism of it, but with two "positive" indices it does not swap the
    ranges: a bound of rank + 2 would leave that triple out.
    """
    relations = [(0, 2, 2, 2), (0, 3, 3, -2), (1, 4, 4, 2), (1, 5, 5, -2), (2, 3, 0, 1), (4, 5, 0, 1), (4, 5, 1, 1)]
    table = [[[] for _ in range(6)] for _ in range(6)]
    for i, j, k, c in relations:
        table[i][j].append((k, c))
        table[j][i].append((k, -c))
    roots = types.SimpleNamespace(rank=2, _npos=2, _neg=neg)
    return lie.LieAlgebra(("h1", "h2", "e1", "f1", "e2", "f2"), table, 2, roots, name="sl2^2")


@pytest.mark.parametrize(
    "neg",
    [(0, 1, 3, 2, 5, 4), (0, 1, 3, 2, 5), (0, 1, 3, 2, 5, 6), (1, 0, 4, 5, 2, 3), (0, 1, 4, 5, 3, 2)],
    ids=["keeps-ranges", "short", "out-of-range", "moves-cartan", "not-an-involution"],
)
def test_involution_step_needs_neg_to_swap_the_root_ranges(neg, omega_bounds):
    alg = sl2_squared_with_root_data(neg)
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is False
    assert omega_bounds == [alg.dim]


def test_certificates_agree_under_optimization():
    """python -O drops asserts: the verdicts, the tampered ones included, must not move."""
    script = textwrap.dedent(
        """
        import json
        from symred import lie
        from conftest import tampered
        out = []
        for typ, rank in (("A", 2), ("G2", 2)):
            alg = lie.build_chevalley(typ, rank)
            for kind in ("flip+omega", "sign+omega", "cartan"):
                t = tampered(alg, kind, 0 if kind == "cartan" else rank, rank + 1)
                out.append([t.verify_jacobi(), t.verify_killing_invariance()])
            out.append([alg.verify_jacobi(), alg.verify_killing_invariance()])
        print(json.dumps(out))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lie.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(os.path.abspath(__file__)))))
    verdicts = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        verdicts.append(json.loads(done.stdout))
    assert verdicts[0] == verdicts[1] == [[False, False], [True, True], [False, False], [True, True]] * 2


def test_verify_jacobi_false_branch(sl2):
    # [h, e] = 3e instead of 2e; the table stays antisymmetric
    h, e = 0, sl2.root_vector_index((1,))
    broken = perturbed(sl2, h, e, e, Q(1))
    assert ref.structure_constant(broken, h, e, e) == 3 == -ref.structure_constant(broken, e, h, e)
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


def test_nullspace_of_no_rows_is_everything():
    """No rows leave all of Q^n, as do the rows of a map into Q^0 (``kernel_within``'s zero-width images)."""
    assert la.nullspace([], 3) == [la.vec([1, 0, 0]), la.vec([0, 1, 0]), la.vec([0, 0, 1])]
    for n in range(5):
        assert la.nullspace([], n) == list(la.identity(n)) == ref.nullspace([], n)
        assert la.nullspace(la.transpose([()] * n), n) == list(la.identity(n))
        assert la.rank(la.nullspace([], n)) == n
    assert la.nullspace([la.vec([1, 0, 0])], 3) == [la.vec([0, 1, 0]), la.vec([0, 0, 1])]
    with pytest.raises(ValueError, match="in Q\\^3"):
        la.nullspace([la.vec([1, 0, 0]), la.vec([1, 0])], 3)


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
    size, reps = rank + 1, ref.sl_realization(alg)

    def elementary(entries):
        return la.mat([[entries.get((r, s), 0) for s in range(size)] for r in range(size)])

    # the realization ref.sl_table reads: h_i = E_ii - E_{i+1,i+1}, and every root
    # vector (-1)^(ht - 1) E_rs at its root's position (E_sr for a negative root),
    # the sign rule that lie's from_matrix reads coordinates by
    for i in range(rank):
        assert reps[i] == elementary({(i, i): 1, (i + 1, i + 1): -1})
    for beta in alg.root_data.roots:
        r, s = ref.sl_position(tuple(abs(c) for c in beta))
        if min(beta) < 0:
            r, s = s, r
        assert reps[alg.root_vector_index(beta)] == elementary({(r, s): (-1) ** (sum(map(abs, beta)) - 1)})
    assert alg.table == ref.sl_table(alg)


def realized(name):
    """(algebra, its type-A matrices): A_n with the oracle's realization, or sl2^2 block by block."""
    if name == "A1^2":
        sl2 = lie.build_chevalley("A", 1)
        return lie.direct_power(sl2, 2), ref.block_realization(ref.sl_realization(sl2), 2)
    alg = lie.build_chevalley(*name)
    return alg, ref.sl_realization(alg)


@pytest.mark.parametrize("name", [("A", r) for r in (1, 2, 3, 4)] + ["A1^2"], ids=str)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_unipotent_matches_matrix_conjugation(name, data):
    """exp(t ad_x), its inverse and both actions against conjugation by exp(t X)."""
    alg, reps = realized(name)
    # x in the span of the positive (or of the negative) root vectors of
    # every factor: strictly triangular, so nilpotent
    rank, npos = (1, 1) if name == "A1^2" else (alg.rank, len(alg.root_data.positive))
    factor_dim = rank + 2 * npos
    first = rank + (npos if data.draw(st.booleans()) else 0)
    x = list(la.zeros(alg.dim))
    for off in range(0, alg.dim, factor_dim):
        for i in data.draw(st.lists(st.integers(first, first + npos - 1), min_size=1, max_size=3)):
            x[off + i] = data.draw(nonzero)
    t = data.draw(nonzero)
    g = alg.unipotent(tuple(x), t)
    ad, ad_inv = ref.conjugation_adjoint(reps, ref.exp_nilpotent(ref.realize(reps, la.scale(t, x))))
    assert (g.ad, g.ad_inv) == (ad, ad_inv)
    y, xi = data.draw(sparse_rows(2, alg.dim))[:2]
    assert alg.adjoint_group_action(g, y) == ref.mat_vec(ad, y)
    assert alg.coadjoint_group_action(g, xi) == ref.mat_vec(la.transpose(ad_inv), xi)


def test_torus_group_element_matches_matrix_conjugation(sl3):
    reps = ref.sl_realization(sl3)
    torus = la.mat([[2, 0, 0], [0, 3, 0], [0, 0, Q(1, 6)]])
    unip = ref.exp_nilpotent(ref.realize(reps, sl3.root_vector((-1, -1))))
    gt, gu = lie.GroupElement(*ref.conjugation_adjoint(reps, torus)), sl3.unipotent(sl3.root_vector((-1, -1)))
    # Ad_t scales e_beta by beta(t): t = diag(2, 3, 1/6) has alpha_1(t) = 2/3 and alpha_2(t) = 18
    for beta, scale in (((1, 0), Q(2, 3)), ((0, 1), Q(18)), ((1, 1), Q(12)), ((-1, -1), Q(1, 12))):
        assert sl3.adjoint_group_action(gt, sl3.root_vector(beta)) == la.scale(scale, sl3.root_vector(beta))
    # Ad is a homomorphism: the product of the two is conjugation by the matrix product
    prod = gt * gu.inv()
    assert (prod.ad, prod.ad_inv) == ref.conjugation_adjoint(reps, la.mat_mul(torus, la.inverse(unip)))


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_killing_invariance_matches_triple_loop(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is True


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


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "one-sided"])
@pytest.mark.parametrize("typ,rank", [("A", 2), ("G2", 2)])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_killing_invariance_of_form_tampered_off_pattern_matches_triple_loop(typ, rank, symmetric, data):
    """K moved by delta at a cell where the Chevalley K is zero, and at its mirror when symmetric.

    The invariance loop reads its candidate pairs off K's nonzeros at call
    time, so the new nonzero must bring its own pairs, on either side of K.
    """
    base = lie.build_chevalley(typ, rank)
    alg = lie.LieAlgebra(base.basis_labels, base.table, base.rank, name="tampered")
    zero_cells = [(a, b) for a in range(alg.dim) for b in range(alg.dim) if not base.killing[a][b]]
    a, b = data.draw(st.sampled_from(zero_cells))
    k_mat = [list(row) for row in base.killing]
    k_mat[a][b] += data.draw(nonzero)
    if symmetric:
        k_mat[b][a] = k_mat[a][b]
    alg.killing = tuple(tuple(row) for row in k_mat)
    assert (alg.killing == la.transpose(alg.killing)) is (symmetric or a == b)
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is False


def _one_cell_form(alg, a, b):
    """alg's table with K replaced by K + E_ab: one nonzero moved in on one side of K only."""
    out = lie.LieAlgebra(alg.basis_labels, alg.table, alg.rank, name="one-cell")
    k_mat = [list(row) for row in alg.killing]
    k_mat[a][b] += 1
    out.killing = tuple(tuple(row) for row in k_mat)
    return out


# On sl2 + sl2, K + E_(h2, h1) breaks invariance only in entries with j > k, so
# a j <= k loop passes it.  On [x, y] = y, E_xy breaks it only in terms that
# the columns of K admit, and E_yx only in terms that its rows admit.
@pytest.mark.parametrize("name,a,b", [("sl2^2", 3, 0), ("aff", 0, 1), ("aff", 1, 0)])
def test_killing_invariance_reads_both_orders_and_both_sides_of_the_form(name, a, b):
    if name == "aff":
        alg = lie.LieAlgebra(["x", "y"], [[[], [(1, 1)]], [[(1, -1)], []]], 0, name="aff")
    else:
        alg = lie.direct_power(lie.build_chevalley("A", 1), 2)
    alg = _one_cell_form(alg, a, b)
    assert alg.verify_killing_invariance() is ref.verify_killing_invariance(alg) is False


def test_killing_invariance_fails_at_a_diagonal_index_only():
    """On [x, y] = y the form E_xy - E_yx is ad_y-invariant, so only x fails it: x is diagonal,
    and its identity (lambda_x(x) + lambda_x(y)) K[x][y] = 0 is read off K."""
    alg = lie.LieAlgebra(["x", "y"], [[[], [(1, 1)]], [[(1, -1)], []]], 0, name="aff")
    alg.killing = ((la.ZERO, Q(1)), (Q(-1), la.ZERO))
    assert list(alg._diagonal()) == [0]
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
    got = ref.intersect_spans(a, b)
    assert got == la.span_basis(got)
    assert la.span_contains(a, got) and la.span_contains(b, got)
    assert len(got) == la.rank(a) + la.rank(b) - la.rank(a + b)


# -- integer kernels: ints summed over one common denominator ------------------

INTEGER_ALGEBRAS = sorted(lie.SUPPORTED) + ["sl2_half_f"]


def integer_algebra(name):
    """A built type by its (type, rank), or the rational sl2 table whose common denominator is 2."""
    return sl2_half_f() if name == "sl2_half_f" else lie.build_chevalley(*name)


@pytest.mark.parametrize("name", INTEGER_ALGEBRAS, ids=str)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_integer_lie_kernels_match_reference(name, data):
    alg = integer_algebra(name)
    n = alg.dim
    x, y, xi = data.draw(sparse_rows(3, n))[:3]
    for u, v in ((x, y), (densified(x), y), (y, densified(xi))):
        assert alg.bracket(u, v) == ref.bracket(alg, u, v)
    for form in (xi, densified(xi)):
        assert alg.coadjoint_matrix(form) == ref.coadjoint_matrix(alg, form)
    vectors = data.draw(sparse_rows(data.draw(st.integers(0, 3)), 2 * n))
    vectors += [la.unit(2 * n, i) for i in data.draw(st.lists(st.integers(0, 2 * n - 1), max_size=2))]
    assert gpd.omega_gram(alg, xi, vectors) == ref.omega_gram(alg, xi, vectors)


def test_rational_table_integer_kernels():
    """On (h, e, f/2) the table is scaled by 2, and [e, f/2] = h/2 keeps its half."""
    alg = sl2_half_f()
    h, e, f_half = la.identity(3)
    assert alg.bracket(e, f_half) == ref.bracket(alg, e, f_half) == la.vec([Q(1, 2), 0, 0])
    xi = la.vec([Q(1, 3), Q(-2, 5), 1])
    assert alg.coadjoint_matrix(xi) == ref.coadjoint_matrix(alg, xi)
    assert alg.coadjoint_matrix(xi)[1][2] == Q(1, 6)
    tangents = [la.vec([1, 0, 0, 0, 0, Q(1, 7)]), la.vec([0, Q(1, 2), 1, Q(1, 3), 0, 0]), la.unit(6, 4)]
    assert gpd.omega_gram(alg, xi, tangents) == ref.omega_gram(alg, xi, tangents)


PAIRING_ALGEBRAS = INTEGER_ALGEBRAS + ["A1^2"]


def pairing_algebra(name):
    """An integer algebra by name, or sl2 x sl2, whose table is block diagonal."""
    return lie.direct_power(lie.build_chevalley("A", 1), 2) if name == "A1^2" else integer_algebra(name)


def exact_value(got, want):
    """got equals want, is a Fraction, and is the shared ZERO when it is zero."""
    assert got == want and type(got) is Q
    assert got is la.ZERO or got != 0


@pytest.mark.parametrize("name", PAIRING_ALGEBRAS, ids=str)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_bracket_pairing_matches_reference(name, data):
    """xi([x, y]) summed off the table equals the dense bracket paired with xi."""
    alg = pairing_algebra(name)
    xi, x, y = data.draw(sparse_rows(3, alg.dim))[:3]
    units = [alg.basis_vec(data.draw(st.integers(0, alg.dim - 1))) for _ in range(2)]
    for u, v in ((x, y), (densified(x), y), (x, densified(y)), (densified(x), densified(y)), tuple(units), (x, x)):
        dense = ref.bracket(alg, u, v)
        for form in (xi, densified(xi)):
            exact_value(alg.bracket_pairing(form, u, v), ref.dot(form, dense))


@pytest.mark.parametrize("name", PAIRING_ALGEBRAS, ids=str)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_omega_eval_matches_reference(name, data):
    """Omega pairwise equals the reference on random, g-only, g*-only and repeated tangent vectors."""
    alg = pairing_algebra(name)
    n = alg.dim
    xi = data.draw(sparse_rows(1, n))[0]
    v1, v2 = data.draw(sparse_rows(2, 2 * n))[:2]
    zero = la.zeros(n)
    shaped = [v1[:n] + zero, zero + v2[n:], la.unit(2 * n, data.draw(st.integers(0, 2 * n - 1)))]
    pairs = [(v1, v2), (densified(v1), v2), (v1, densified(v2))] + [(a, b) for a in shaped for b in shaped]
    for a, b in pairs:
        exact_value(gpd.omega_eval(alg, xi, a, b), ref.omega(alg, xi, a, b))
        assert gpd.omega_eval(alg, xi, a, a) is la.ZERO
    dense = (densified(xi), densified(v1), densified(v2))
    exact_value(gpd.omega_eval(alg, *dense), ref.omega(alg, *dense))


@st.composite
def mixed_rows(draw, nrows, ncols):
    """nrows x ncols of halves, thirds and fifths, of plain ints, or of both mixed.

    In a sum of such products the common denominator grows mid-sum; a zero
    cell is the shared ``la.ZERO``, a fresh ``Q(0)`` or the int 0.
    """
    fractions = st.builds(Q, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    entry = draw(st.sampled_from([fractions, st.integers(-6, 6), st.one_of(fractions, st.integers(-6, 6))]))
    cell = st.one_of(st.just(la.ZERO), entry)
    return [tuple(draw(cell) for _ in range(ncols)) for _ in range(nrows)]


@given(st.integers(0, 10).flatmap(lambda n: mixed_rows(2, n)))
@settings(max_examples=100, deadline=None)
def test_dot_matches_dense_on_mixed_denominators(rows):
    u, v = rows
    got = la.dot(u, v)
    assert got == ref.dot(u, v) and type(got) is Q


@given(st.integers(0, 8).flatmap(lambda n: st.integers(1, 6).flatmap(lambda m: mixed_rows(m, n))))
@settings(max_examples=100, deadline=None)
def test_mat_vec_matches_dense_on_mixed_denominators(rows):
    a, v = rows[:-1], rows[-1]
    got = la.mat_vec(a, v)
    assert got == ref.mat_vec(a, v) and all(type(x) is Q for x in got)


def test_dot_denominator_grows_mid_sum():
    halves_thirds_fifths = la.vec([Q(1, 2), Q(1, 3), 0, Q(1, 5), Q(-1, 6)])
    assert la.dot(halves_thirds_fifths, la.vec([1, 1, 7, 1, 1])) == Q(13, 15)
    assert la.dot((1, 2, 3), (4, 0, -1)) == Q(1) and type(la.dot((1, 2, 3), (4, 0, -1))) is Q
    assert la.mat_vec([(Q(1, 2), 3), (2, Q(1, 3))], (Q(1, 5), 1)) == (Q(31, 10), Q(11, 15))


@given(st.one_of(sparse_matrix(), wide_matrix()))
@settings(max_examples=100, deadline=None)
def test_rank_matches_reference_pivots(rows):
    assert la.rank(rows) == len(ref.rref(rows)[1])


@given(space_and_sub())
@settings(max_examples=100, deadline=None)
def test_extend_to_basis_matches_reference_pivots(drawn):
    space, sub = drawn
    cols = sub + space
    pivots = ref.rref(la.transpose(cols))[1] if cols else []
    assert la.extend_to_basis(sub, space) == [space[c - len(sub)] for c in pivots if c >= len(sub)]


# -- edge-paired Killing form, pruned Jacobi loop, nullspace off integer rows ----

POWERED = [(typ, rank, n) for typ, rank in ALGEBRAS for n in (2, 3)]


@pytest.mark.parametrize("typ,rank,n", POWERED)
def test_killing_of_direct_power_matches_dense_loop(typ, rank, n):
    prod = lie.direct_power(lie.build_chevalley(typ, rank), n)
    assert prod.killing == ref.killing(prod)


@pytest.mark.parametrize("typ,rank,n", POWERED)
def test_killing_of_direct_power_is_block_diagonal(typ, rank, n):
    """K(g^n) = diag(K(g), ..., K(g)), assembled here from the factor's dense form."""
    alg = lie.build_chevalley(typ, rank)
    factor, d = ref.killing(alg), alg.dim
    want = tuple(
        tuple(factor[r % d][c % d] if r // d == c // d else 0 for c in range(n * d)) for r in range(n * d)
    )
    assert lie.direct_power(alg, n).killing == want


def test_killing_of_perturbed_rational_tables_matches_dense_loop():
    alg = sl2_half_f()
    for i, j, k, delta in ((0, 1, 1, Q(1, 3)), (1, 2, 0, Q(-1, 2)), (1, 2, 2, Q(5, 7))):
        broken = perturbed(alg, i, j, k, delta)
        assert broken.killing == ref.killing(broken)
    square = lie.direct_power(alg, 2)
    assert square.killing == ref.killing(square)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_killing_of_perturbed_direct_power_matches_dense_loop(data):
    base = lie.direct_power(lie.build_chevalley("A", 1), 2)
    n = base.dim
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    k = data.draw(st.integers(0, n - 1))
    alg = perturbed(base, i, j, k, data.draw(nonzero))
    assert alg.killing == ref.killing(alg)


def as_tuples(table):
    return tuple(tuple(tuple(entry) for entry in row) for row in table)


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_chevalley_table_matches_the_tuple_recursion(typ, rank):
    """The sign recursion on basis indices builds the table that the recursion on root tuples builds."""
    table = as_tuples(ref.chevalley_table(typ, rank))
    assert as_tuples(lie._table_from_roots(lie.RootSystem(typ, rank))) == table
    assert lie.build_chevalley(typ, rank).table == table


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_root_data_match_tuple_arithmetic(typ, rank):
    """The root-sum table and the index forms agree with tuple arithmetic on every root and pair."""
    rs, oracle = lie.RootSystem(typ, rank), ref.TupleRoots(typ, rank)
    assert (rs.roots, rs.positive, rs.by_index) == (oracle.roots, oracle.positive, oracle.by_index)
    for a, alpha in enumerate(rs.by_index[rank:], rank):
        assert rs.vector_index(alpha) == a
        assert rs._pairings[a] == tuple(oracle.pairing(alpha, j) for j in range(rank))
        assert (rs._norms[a], rs.coroot_coeffs(alpha)) == (oracle.norm2(alpha), oracle.coroot_coeffs(alpha))
        for b, beta in enumerate(rs.by_index[rank:], rank):
            s = tuple(x + y for x, y in zip(alpha, beta))
            want = lie.ZERO_SUM if not any(s) else oracle.index.get(s)
            assert rs._sums[a].get(b) == want, (alpha, beta)
            assert rs._p_string(a, b) == oracle.p_string(alpha, beta)
    for gamma in rs.positive[rank:]:
        x, y = rs._special[rs.vector_index(gamma)]
        assert (rs.by_index[x], rs.by_index[y]) == oracle.extraspecial(gamma)


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_killing_form_matches_the_dense_product_on_a_non_symmetric_form(typ, rank):
    """x^T K y, read off the rows of K in x's support, equals the dense sum when K is not symmetric."""
    built = lie.build_chevalley(typ, rank)
    alg = lie.LieAlgebra(built.basis_labels, built.table, built.rank)
    k_mat = [list(row) for row in built.killing]
    k_mat[0][1] += 1
    k_mat[-1][0] += Q(1, 3)
    alg.killing = tuple(map(tuple, k_mat))
    rng = random.Random(7)
    basis = [alg.basis_vec(i) for i in range(alg.dim)]
    fresh_zeros = tuple(Q(0) if v is la.ZERO else v for v in basis[1])  # zeros that are not the shared ZERO
    vectors = [la.zeros(alg.dim), *basis, fresh_zeros, la.add(basis[0], basis[-1])]
    vectors += [la.random_vector(rng, alg.dim) for _ in range(4)]
    for x in vectors:
        for y in vectors:
            assert alg.killing_form(x, y) == ref.dot(x, ref.mat_vec(alg.killing, y))
    assert alg.killing_form(basis[0], basis[1]) != alg.killing_form(basis[1], basis[0])
    with pytest.raises(DimensionMismatch):
        alg.killing_form(basis[0][:-1], basis[0])


def commuting_pairs(alg):
    """Every (i, j), i < j, with [e_i, e_j] = 0: the pairs the pruned Jacobi loop may skip."""
    return [(i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim) if not alg.table[i][j]]


# a + b is neither a root nor 0, so e_a and e_b commute
@pytest.mark.parametrize("typ,rank,a,b", [("A", 2, (1, 0), (1, 1)), ("B", 2, (0, 1), (1, 2)), ("G2", 2, (0, 1), (3, 2))])
def test_verify_jacobi_sees_a_constant_in_a_commuting_pair(typ, rank, a, b):
    """Putting h_1 into an empty [e_a, e_b] breaks Jacobi, and the skip must not hide it."""
    alg = lie.build_chevalley(typ, rank)
    i, j = alg.root_vector_index(a), alg.root_vector_index(b)
    assert (i, j) in commuting_pairs(alg)
    broken = perturbed(alg, i, j, 0, Q(1))
    assert broken.verify_jacobi() is False
    assert ref.verify_jacobi(broken) is False


# (a, b, c) runs over the cyclic orders of the triple (0, 1, 2)
@pytest.mark.parametrize("a,b,c", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
def test_verify_jacobi_fails_on_a_triple_with_one_live_pair(a, b, c):
    """[e_a, e_b] = e_3 and [e_3, e_c] = e_3, every other bracket 0.

    The two other pairs of the triple (0, 1, 2) commute, and its cyclic sum
    is [e_3, e_c] = e_3; every other triple sums to 0.  So the verdict
    rests on the one triple in which the live pair sits at position (a, b).
    """
    table = [[[] for _ in range(4)] for _ in range(4)]
    for i, j, k in ((a, b, 3), (3, c, 3)):
        table[i][j], table[j][i] = [(k, 1)], [(k, -1)]
    alg = lie.LieAlgebra(("e0", "e1", "e2", "e3"), table, 0, name="one_live_pair")
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is False


# sl2 with [e, f] = h + e: in its one triple, [[e, f], h] = -2e while [[h, e], f] + [[f, h], e] = 0.
# The basis order puts that term first, second or third in the cyclic sum
# of the triple (0, 1, 2), so only one of verify_jacobi's three sweeps meets it.
@pytest.mark.parametrize("order,sweep", [(("e", "f", "h"), 0), (("h", "e", "f"), 1), (("f", "h", "e"), 2)])
def test_verify_jacobi_failure_reached_by_one_sweep_only(order, sweep):
    relations = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1, "e": 1}}
    pos = {x: i for i, x in enumerate(order)}
    table = [[[] for _ in range(3)] for _ in range(3)]
    for (x, y), out in relations.items():
        entry = sorted((pos[z], c) for z, c in out.items())
        table[pos[x]][pos[y]], table[pos[y]][pos[x]] = entry, [(k, -c) for k, c in entry]
    alg = lie.LieAlgebra(order, table, 1, name="tampered_sl2")
    basis = [alg.basis_vec(i) for i in range(3)]
    # [[e_i,e_j],e_k], [[e_j,e_k],e_i] and [[e_k,e_i],e_j] at (i, j, k) = (0, 1, 2)
    terms = [alg.bracket(alg.bracket(basis[a], basis[b]), basis[c]) for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    others = [t for s, t in enumerate(terms) if s != sweep]
    assert not la.is_zero(terms[sweep]) and la.is_zero(la.add(*others))
    assert alg.verify_jacobi() is ref.verify_jacobi(alg) is False


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_verify_jacobi_perturbed_commuting_pair_matches_reference(data):
    base = lie.build_chevalley(*data.draw(st.sampled_from([("A", 2), ("B", 2)])))
    i, j = data.draw(st.sampled_from(commuting_pairs(base)))
    k = data.draw(st.integers(0, base.dim - 1))
    alg = perturbed(base, i, j, k, data.draw(nonzero))
    assert alg.verify_jacobi() == ref.verify_jacobi(alg)


@st.composite
def rows_in(draw):
    """(rows, n): rows in Q^n, sparse or wide, possibly none, and n possibly 0."""
    n = draw(st.integers(0, 8))
    return draw(st.one_of(sparse_rows(draw(st.integers(0, 8)), n), wide_rows(draw(st.integers(0, 6)), n))), n


@given(rows_in())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_reference(case):
    rows, n = case
    got = la.nullspace(rows, n)
    assert got == ref.nullspace(rows, n)
    assert all(type(x) is Q for v in got for x in v)


@pytest.mark.parametrize("rows", EDGE_CASES)
def test_nullspace_edge_cases(rows):
    n = len(rows[0]) if rows else 3
    assert la.nullspace(rows, n) == ref.nullspace(rows, n)


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_slice_and_diagonal_match_membership_rules(typ, rank):
    """slodowy_slice and diagonal against the slice models' membership rules, n = 1, 2, 3."""
    alg = lie.build_chevalley(typ, rank)
    tri = lie.principal_sl2(alg)
    params = [[0] * rank, [1] + [0] * (rank - 1), [-2] + [Q(1, 2)] * (rank - 1)]
    sl = poisson.slodowy_slice(alg, tri, params)
    gf = [alg.flat(z) for z in ref.centralizer(alg, tri.f)]
    assert len(gf) == rank
    off = alg.flat(tri.e)  # [f, e] = -h, so e is not in g_f
    moved = [la.add(pt, la.scale(Q(3, 2), gf[-1])) for pt in sl.sample_points]  # on the slice, not sampled
    for pt, fresh in zip(sl.sample_points, moved):
        assert la.span_equal(sl.tangent_basis(pt), gf)
        for xi, on in ((pt, True), (fresh, True), (la.add(pt, off), False)):
            assert ref.on_slodowy_slice(alg, tri, xi) is on
            assert sl.contains(xi) is on
    for n in (1, 2, 3):
        dia = poisson.diagonal(sl, n)
        assert dia.ambient_dim == n * alg.dim
        assert [p[: alg.dim] for p in dia.sample_points] == list(sl.sample_points)
        for pt, fresh, other in zip(sl.sample_points, moved, sl.sample_points[1:]):
            assert la.span_equal(dia.tangent_basis(pt * n), [t * n for t in gf])
            cases = [(pt * n, True), (fresh * n, True), (la.add(pt, off) * n, False)]
            if n > 1:
                cases.append((pt * (n - 1) + other, False))  # every block on the slice, not diagonal
            for xi, on in cases:
                assert ref.on_diagonal_slice(alg, tri, n, xi) is on
                assert dia.contains(xi) is on


# -- canonical bases skip rref; push solves off one factorization per model ----


def ref_span_basis(rows):
    m, pivots = ref.rref(rows)
    return [tuple(m[i]) for i in range(len(pivots))]


def span_basis_without_elimination(rows):
    """la.span_basis(rows), failing if it runs an elimination."""

    def refuse(rows):
        raise AssertionError("a canonical basis was eliminated")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(la, "_echelon", refuse)
        return la.span_basis(rows)


def near_misses(basis):
    """Rows spanning span(basis) that are not in rref, each by one defect, when it can be made."""
    if not basis:
        return []
    misses = [basis + [la.zeros(len(basis[0]))], basis + basis[-1:], [la.scale(2, basis[0])] + basis[1:]]
    if len(basis) > 1:
        misses.append(basis[1::-1] + basis[2:])  # pivots out of order
        misses.append([la.add(basis[0], la.scale(Q(-1, 3), basis[1]))] + basis[1:])  # nonzero above a pivot
    return misses


CANONICAL = [
    [],
    [la.vec([1, 0, 0])],
    [la.vec([0, 1, Q(-2, 3), 0])],
    [la.vec([1, 0, 5]), la.vec([0, 1, Q(1, 2)])],
    [la.vec([0, 1, 0, 3, 0]), la.vec([0, 0, 1, -1, 0]), la.vec([0, 0, 0, 0, 1])],
]


@pytest.mark.parametrize("basis", CANONICAL, ids=lambda b: f"{len(b)} rows")
def test_span_basis_returns_a_canonical_basis_without_elimination(basis):
    assert span_basis_without_elimination(basis) == basis == ref_span_basis(basis)
    for rows in near_misses(basis):
        assert la.span_basis(rows) == ref_span_basis(rows) == basis


NEAR_MISSES = {
    "leading 2": [la.vec([2, 0]), la.vec([0, 1])],
    "nonzero above a pivot": [la.vec([1, 3]), la.vec([0, 1])],
    "nonzero above the last pivot": [la.vec([1, 0, 1]), la.vec([0, 1, 0]), la.vec([0, 0, 1])],
    "pivots out of order": [la.vec([0, 1]), la.vec([1, 0])],
    "zero row last": [la.vec([1, 0]), la.zeros(2)],
    "zero row first": [la.zeros(2), la.vec([1, 0])],
    "repeated row": [la.vec([1, 0]), la.vec([1, 0])],
    "leading -1": [la.vec([-1, 0])],
    "only a zero row": [la.zeros(3)],
}


@pytest.mark.parametrize("rows", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_span_basis_eliminates_a_near_miss(rows):
    got = la.span_basis(rows)
    assert got == ref_span_basis(rows) != rows


@given(sparse_matrix())
@settings(max_examples=100, deadline=None)
def test_span_basis_matches_reference_on_canonical_bases_and_near_misses(rows):
    basis = ref_span_basis(rows)
    assert la.span_basis(rows) == basis
    assert span_basis_without_elimination(basis) == basis
    for miss in near_misses(basis):
        assert la.span_basis(miss) == ref_span_basis(miss) == basis


def reduction_points(*names):
    """(algebra, model, xi, ReducedSpaceModel) at each kernel check the named golden configs run, in order."""
    points = []
    check = reduction.kernel_identity_check

    def kept(alg, s_model, xi):
        agree, model = check(alg, s_model, xi)
        points.append((alg, s_model, tuple(xi), model))
        return agree, model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "kernel_identity_check", kept)
        for name in names:
            assert cli.run(cli.parse_config(CONFIGS[name]))[1] == 0
    return points


def test_gram_kernel_is_the_fiber_system_with_its_multipliers_negated():
    """The Gram route and the orbit route of the kernel check solve one linear system.

    On g x T_xi S, with the tangent basis as the columns of T, the Gram
    matrix of Omega is [[-C, -T], [T^T, 0]], and ``algebroid_fiber``'s rows
    are [[C^T, T], [T^T, 0]] with C^T = -C: the same matrix with the
    multiplier columns negated.  So the Gram coefficient kernel is the
    fiber's (eta, c) nullspace with c negated, vector for vector, and its
    eta-parts are the fiber basis that the orbit route reads h_xi off.
    """
    points = reduction_points("readme_suite", "type_a_slices")
    kinds = {type(s_model).__name__ for _, s_model, _, _ in points}
    assert len(points) == 26 and kinds == {"AffineSubspace", "WeylChamberFace", "DecompositionClass", "CasimirLevelSet"}
    for alg, s_model, xi, model in points:
        n, pm, tangent = alg.dim, poisson.kks_model(alg), s_model.tangent_basis(xi)
        width = n + len(tangent)
        rows = [row + col for row, col in zip(pm.bivector_at(xi), la.columns(tangent, n))]
        rows += [tuple(t) + la.zeros(len(tangent)) for t in tangent]
        gram = gpd.omega_gram(alg, xi, model.n_tangent)
        assert [tuple(g[:n]) + la.neg(g[n:]) for g in gram] == rows
        solutions = la.nullspace(rows, width)
        assert [v[:n] + la.neg(v[n:]) for v in la.nullspace(gram, width)] == solutions
        assert tuple(v[:n] for v in solutions) == poisson.algebroid_fiber(pm, s_model, xi).basis


def solved(model, v):
    """Quotient coordinates of v by a fresh solve against kernel + complement, or None."""
    x = ref.solve(la.transpose(list(model.kernel) + list(model.complement)), v)
    return None if x is None else x[len(model.kernel):]


def test_push_matches_solve_on_the_readme_suite():
    rng = random.Random(23)
    models = [model for *_, model in reduction_points("readme_suite")]
    off_tangent = 0
    assert models
    for model in models:
        width = len(model.n_tangent[0])
        vectors = list(model.kernel) + list(model.complement)
        for _ in range(4):
            coeffs = [la.random_fraction(rng) if rng.random() < 0.5 else la.ZERO for _ in model.n_tangent]
            vectors.append(la.mat_vec(la.transpose(model.n_tangent), tuple(coeffs)))
        for v in vectors:
            assert model.push(v) == solved(model, v)
        for c in range(width):
            e = la.unit(width, c)
            if la.span_contains(model.n_tangent, [e]):
                continue
            off_tangent += 1
            for v in (e, la.add(vectors[-1], la.scale(Q(2, 3), e))):
                assert solved(model, v) is None
                with pytest.raises(LiftNotValid):
                    model.push(v)
    assert off_tangent > 0


# -- the stabilizer fiber as one linear system -----------------------------------


def fiber_cases():
    """(Poisson model, submanifold model, stable) by label: every model kind, each Poisson kind, stable and not."""
    sl2, sl3 = lie.build_chevalley("A", 1), lie.build_chevalley("A", 2)
    kks2, kks3 = poisson.kks_model(sl2), poisson.kks_model(sl3)
    hb = sl2.flat(sl2.basis_vec(0))
    e = sl2.root_vector((1,))
    orbit_tangent = poisson.CoadjointOrbit(sl2, hb).tangent_basis(hb)
    # S = xi + b° for the Borel b of A2 and a character xi of b: L_S = b, never inside ker sigma
    borel = [la.unit(8, i) for i in range(2)] + [sl3.root_vector(beta) for beta in sl3.root_data.positive]
    character = la.vec([1, -2, 0, 0, 0, 0, 0, 0])
    # a constant bivector of rank 2 on Q^4, and omega of the C^4 quadric
    degenerate = poisson.constant_model(la.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    symplectic = poisson.symplectic_model(la.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
    quadric = [la.vec([1, 0, 2, 0]), la.vec([0, 0, 0, 1])]
    return [
        pytest.param(kks2, poisson.AffineSubspace(hb, []), True, id="affine-point"),
        pytest.param(kks2, poisson.AffineSubspace(hb, la.identity(3)), True, id="affine-full-space"),
        pytest.param(kks3, poisson.WeylChamberFace(sl3, (0,), [la.vec([0, 1, 0, 0, 0, 0, 0, 0])]), True, id="chamber-face"),
        pytest.param(kks3, poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)]), True, id="decomposition-class"),
        pytest.param(kks2, poisson.CasimirLevelSet(sl2, 8, [hb]), True, id="casimir-level-set"),
        pytest.param(kks2, poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1)]), True, id="coadjoint-orbit"),
        pytest.param(kks2, poisson.Explicit(3, lambda xi: orbit_tangent + [orbit_tangent[0]], [hb]), True, id="explicit-dependent-tangent"),
        pytest.param(kks3, poisson.AffineSubspace(character, la.nullspace(borel, 8)), False, id="character-of-the-Borel"),
        pytest.param(degenerate, poisson.AffineSubspace(la.zeros(4), [la.unit(4, 2)]), True, id="constant-stable"),
        pytest.param(degenerate, poisson.AffineSubspace(la.zeros(4), [la.unit(4, 0)]), False, id="constant-unstable"),
        pytest.param(symplectic, poisson.Explicit(4, lambda xi: quadric + [la.add(*quadric)], [la.vec([1, 0, 1, 0])]), True, id="symplectic-quadric"),
        pytest.param(symplectic, poisson.AffineSubspace(la.zeros(4), [la.unit(4, 0)]), False, id="symplectic-line"),
    ]


@pytest.mark.parametrize("p,model,stable", fiber_cases())
def test_algebroid_fiber_matches_two_step_route(p, model, stable):
    """One nullspace in (eta, c) against an annihilator and a second nullspace: the same span and verdict.

    The reference reads an ``Explicit`` model's raw vectors, dependent ones included.
    """
    for pt in model.sample_points:
        raw = model.tangent_fn(pt) if isinstance(model, poisson.Explicit) else model.tangent_basis(pt)
        basis, in_ker = ref.algebroid_fiber(p.bivector_at(pt), raw, p.ambient_dim)
        fiber = poisson.algebroid_fiber(p, model, pt)
        assert fiber.rank == len(basis) and la.span_equal(list(fiber.basis), basis)
        assert fiber.contained_in_centralizer is in_ker is stable


# -- mat_mul and ad_matrix in one integer pass ------------------------------------


def exact_matrix(got, want):
    """got equals want, is a tuple of tuples of Fractions, and every zero cell is the shared ZERO."""
    assert got == want and type(got) is tuple
    for row in got:
        assert type(row) is tuple
        for x in row:
            assert type(x) is Q and (x is la.ZERO or x != 0)


@st.composite
def matrix_pair(draw):
    """(A, B) with len(A[0]) = len(B), any of the three sizes possibly 0, B rational, zero rows in both."""
    width = draw(st.integers(0, 6))
    b = draw(st.one_of(sparse_rows(draw(st.integers(0, 6)), width), wide_rows(draw(st.integers(0, 5)), width),
                       mixed_rows(draw(st.integers(0, 5)), width)))
    a = draw(sparse_rows(draw(st.integers(0, 6)), len(b)))
    for m in (a, b):
        if m and draw(st.booleans()):
            m[draw(st.integers(0, len(m) - 1))] = la.zeros(len(m[0]))
    return a, b


@given(matrix_pair())
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_dense(drawn):
    a, b = drawn
    exact_matrix(la.mat_mul(a, b), ref.mat_mul(a, b))
    exact_matrix(la.mat_mul(a, [densified(row) for row in b]), ref.mat_mul(a, [densified(row) for row in b]))


def test_mat_mul_contract():
    a = la.mat([[1, Q(1, 2)], [0, 0]])
    for b in [(), [(), ()]]:
        # a B of no columns gives empty rows and reads no row of A
        exact_matrix(la.mat_mul(a, b), ref.mat_mul(a, b))
        assert la.mat_mul(a, b) == ((), ())
    assert la.mat_mul((), la.identity(2)) == ref.mat_mul((), la.identity(2)) == ()
    exact_matrix(la.mat_mul(a, la.mat([[Q(2, 3)], [4]])), ((Q(8, 3),), (la.ZERO,)))
    exact_matrix(la.mat_mul(a, la.identity(2)), a)
    ragged = [la.zeros(2), la.zeros(3)]
    for left, right in [(a, la.identity(3)), (a, ragged), ((), ragged), (la.mat([[1, 0, 0]]), la.identity(2))]:
        with pytest.raises(ValueError):
            ref.mat_mul(left, right)
        with pytest.raises(ValueError):
            la.mat_mul(left, right)


AD_ALGEBRAS = sorted(lie.SUPPORTED) + ["A1^2", "sl2_half_f"]


def transposed_brackets(alg, x):
    """The route ad_matrix replaced: [x, e_j] for each j, as columns."""
    return la.transpose([alg.bracket(x, alg.basis_vec(j)) for j in range(alg.dim)])


@pytest.mark.parametrize("name", AD_ALGEBRAS, ids=str)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_ad_matrix_is_the_transposed_brackets(name, data):
    alg = pairing_algebra(name)
    x = data.draw(sparse_rows(1, alg.dim))[0]
    rational = la.vec([Q(k - 2, k % 3 + 1) for k in range(alg.dim)])
    for u in (x, densified(x), rational, alg.basis_vec(alg.dim - 1), la.zeros(alg.dim)):
        exact_matrix(alg.ad_matrix(u), transposed_brackets(alg, u))
    with pytest.raises(DimensionMismatch):
        alg.ad_matrix(la.zeros(alg.dim + 1))


def test_ad_matrix_of_the_rational_table():
    """On (h, e, f/2), with common denominator 2, ad_e sends f/2 to h/2."""
    alg = sl2_half_f()
    assert alg._den == 2
    h, e, f_half = la.identity(3)
    exact_matrix(alg.ad_matrix(e), transposed_brackets(alg, e))
    assert alg.ad_matrix(e)[0][2] == Q(1, 2)
    for x in (h, f_half, la.vec([Q(1, 3), Q(-2, 5), 1])):
        exact_matrix(alg.ad_matrix(x), transposed_brackets(alg, x))


def test_random_fraction_keeps_the_randint_stream():
    """Each draw is Q(randint(-4, 4), randint(1, 3)) of a twin generator, which ends in the same state."""
    zeros = 0
    for seed in range(50):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(200):
            got = la.random_fraction(rng)
            want = Q(twin.randint(-4, 4), twin.randint(1, 3))
            assert got == want and type(got) is Q
            if not want:
                assert got is la.ZERO
                zeros += 1
            rng.random()
            twin.random()
        assert rng.getstate() == twin.getstate()
    assert zeros
