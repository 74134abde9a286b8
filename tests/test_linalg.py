from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from symred import linalg as la

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def vec_strategy(n):
    return st.tuples(*([fractions] * n))


def test_rref_and_rank_basics():
    m = la.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert la.rank(m) == 2
    assert la.rank(la.identity(4)) == 4
    assert la.rank([la.zeros(3)]) == 0


def test_nullspace_annihilates():
    m = la.mat([[1, 2, 3], [0, 1, 1]])
    for v in la.nullspace(m):
        assert la.is_zero(la.mat_vec(m, v))
    assert len(la.nullspace(m)) == 1


def test_solve_and_inverse():
    a = la.mat([[2, 1], [1, 1]])
    b = la.vec([3, 2])
    (x,) = la.solve_many(a, [b])
    assert la.mat_vec(a, x) == b
    ainv = la.inverse(a)
    assert la.mat_mul(a, ainv) == la.identity(2)
    assert la.solve_many(la.mat([[1, 0], [1, 0]]), [la.vec([0, 1])]) is None
    with pytest.raises(ZeroDivisionError):
        la.inverse(la.mat([[1, 2], [2, 4]]))


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 0], [0, 1], [1, 1]], [[1, 0], [0]]], ids=["1x2", "3x2", "ragged"])
def test_inverse_refuses_a_matrix_that_is_not_square(rows):
    """[[1, 2]] once came back as ((2, 1),), and a 3x2 matrix as a 3x2 "inverse"."""
    with pytest.raises(ValueError, match="not a square matrix"):
        la.inverse(la.mat(rows))


def test_inverse_is_one_solve_against_the_identity(monkeypatch):
    """The rref of [A | I] that solve_many makes: the same Fractions, and the empty matrix inverts to itself."""
    a = la.mat([[0, 2, 1], [1, Q(1, 3), 0], [4, 0, 1]])
    m, _ = la.rref([row + e for row, e in zip(a, la.identity(3))])
    original, calls = la.solve_many, []
    monkeypatch.setattr(la, "solve_many", lambda *args: calls.append(args) or original(*args))
    assert la.inverse(a) == tuple(tuple(row[3:]) for row in m)
    assert calls == [(a, la.identity(3))]
    assert la.inverse(()) == ()


def test_span_operations():
    a = [la.vec([1, 0, 0]), la.vec([0, 1, 0])]
    b = [la.vec([1, 1, 0]), la.vec([1, -1, 0])]
    assert la.span_equal(a, b)
    assert la.span_contains(a, [la.vec([2, 3, 0])])
    assert not la.span_contains(a, [la.vec([0, 0, 1])])
    # zero vectors lie in every span, the empty one included
    assert la.span_contains([], [la.zeros(3)])
    assert not la.span_contains([], [la.vec([0, 0, 1])])
    assert la.span_contains(a, [la.zeros(3), la.vec([2, 3, 0]), la.zeros(3)])
    assert not la.span_contains(a, [la.zeros(3), la.vec([0, 0, 1])])
    inter = ref.intersect_spans(a, [la.vec([0, 1, 1]), la.vec([0, 1, -1])])
    assert la.span_equal(inter, [la.vec([0, 1, 0])])


def test_annihilator_dimensions():
    gens = [la.vec([1, 0, 0, 0]), la.vec([0, 1, 0, 0])]
    ann = la.annihilator(gens, 4)
    assert len(ann) == 2
    assert all(la.dot(w, g) == 0 for w in ann for g in gens)
    assert len(la.annihilator([], 4)) == 4


def test_extend_to_basis():
    sub = [la.vec([1, 0, 0])]
    space = list(la.identity(3))
    added = la.extend_to_basis(sub, space)
    assert la.rank(sub + added) == 3


@given(vec_strategy(4), vec_strategy(4), fractions)
@settings(max_examples=60, deadline=None)
def test_dot_bilinear(u, v, c):
    w = la.scale(c, u)
    assert la.dot(w, v) == c * la.dot(u, v)
    assert la.dot(la.add(u, w), v) == la.dot(u, v) + la.dot(w, v)


@given(st.lists(vec_strategy(4), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_rank_nullity(rows):
    assert la.rank(rows) + len(la.nullspace(rows)) == 4
    for v in la.nullspace(rows):
        assert la.is_zero(la.mat_vec(rows, v))


@given(st.lists(vec_strategy(3), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_span_basis_is_canonical(vectors):
    b1 = la.span_basis(vectors)
    b2 = la.span_basis(list(reversed(vectors)) + vectors)
    assert b1 == b2


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        la.frac(0.5)


@pytest.mark.parametrize("i", [5, 3, -1])
def test_unit_refuses_an_index_out_of_range(i):
    """unit(3, 5) was the zero vector, and unit(3, -1) too, as a length mismatch in ``dot`` is not."""
    with pytest.raises(ValueError, match=f"index {i} outside 0..2"):
        la.unit(3, i)
    assert la.unit(3, 2) == (la.ZERO, la.ZERO, la.ONE)


def test_columns_of_no_generators_are_empty_rows():
    """The zero generators give n empty rows, and the empty sum over them is n shared ZEROs."""
    rows = la.columns([], 3)
    assert rows == ((), (), ())
    total = la.mat_vec(rows, ())
    assert len(total) == 3 and all(x is la.ZERO for x in total)
    gens = [la.vec([1, 2, 3]), la.vec([0, Q(1, 2), -1])]
    assert la.columns(gens, 3) == la.transpose(gens)
    assert la.mat_vec(la.columns(gens, 3), la.vec([2, -2])) == la.vec([2, 3, 8])
    with pytest.raises(ValueError):
        la.columns([la.vec([1, 2]), la.vec([1])], 2)


def shared_zeros(v):
    """v with every zero cell the shared ``la.ZERO``."""
    return tuple(x or la.ZERO for x in v)


@given(vec_strategy(5), vec_strategy(5), fractions)
@settings(max_examples=60, deadline=None)
def test_vector_ops_keep_zero_cells_shared(u, v, c):
    u, v = shared_zeros(u), shared_zeros(v)
    cases = [
        (la.add(u, v), [a + b for a, b in zip(u, v)]),
        (la.add(u, la.neg(u)), [0] * 5),
        (la.sub(u, v), [a - b for a, b in zip(u, v)]),
        (la.sub(u, u), [0] * 5),
        (la.neg(u), [-a for a in u]),
        (la.scale(c, u), [c * a for a in u]),
        (la.scale(0, u), [0] * 5),
    ]
    for got, want in cases:
        assert list(got) == want
        assert all(type(x) is Q for x in got)
        assert all(x is la.ZERO for x in got if x == 0)


def test_dot_builds_at_most_one_fraction(fractions_built, rng):
    u, v = la.random_vector(rng, 12), la.random_vector(rng, 12)
    built, got = fractions_built(lambda: la.dot(u, v))
    assert built <= 1 and got == sum((a * b for a, b in zip(u, v)), Q(0))
    assert fractions_built(lambda: la.dot(u, la.zeros(12))) == (0, 0)


def test_rank_builds_no_fraction(fractions_built, rng):
    rows = [la.random_vector(rng, 7) for _ in range(5)]
    rows.append(la.add(rows[0], la.scale(Q(2, 3), rows[1])))
    assert fractions_built(lambda: la.rank(rows)) == (0, 5)
    built, added = fractions_built(lambda: la.extend_to_basis(rows, list(la.identity(7))))
    assert built == 0 and len(added) == 2 and la.rank(rows + added) == 7


def test_nullspace_builds_one_fraction_per_basis_entry(fractions_built, rng):
    rows = [la.random_vector(rng, 8) for _ in range(4)]
    rows.append(la.sub(rows[0], la.scale(Q(3, 2), rows[2])))
    built, basis = fractions_built(lambda: la.nullspace(rows))
    assert len(basis) == 4 and all(la.is_zero(la.mat_vec(rows, v)) for v in basis)
    # each free column holds the shared ONE; each other nonzero entry is one Fraction
    assert built == sum(1 for v in basis for x in v if x is not la.ZERO and x is not la.ONE)
