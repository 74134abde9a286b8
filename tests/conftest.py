import random
from fractions import Fraction as Q

import pytest

from symred import lie, poisson
from symred import linalg as la


@pytest.fixture()
def fractions_built(monkeypatch):
    """(``Fraction.__new__`` calls made by fn(), fn()), counted as perfbench's tracer does."""

    def count(fn):
        original = Q.__new__
        built = [0]

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Q, "__new__", counted)
            result = fn()
        return built[0], result

    return count


@pytest.fixture()
def eliminations(monkeypatch):
    """(``linalg._echelon`` calls made by fn(), fn()): one per rref, rank, nullspace, solve or extend_to_basis."""

    def count(fn):
        original = la._echelon
        made = [0]

        def counted(rows):
            made[0] += 1
            return original(rows)

        with monkeypatch.context() as patch:
            patch.setattr(la, "_echelon", counted)
            result = fn()
        return made[0], result

    return count


@pytest.fixture(scope="session")
def sl2():
    return lie.build_chevalley("A", 1)


@pytest.fixture(scope="session")
def sl3():
    return lie.build_chevalley("A", 2)


@pytest.fixture(scope="session")
def sl2_efh(sl2):
    return sl2.root_vector((1,)), sl2.basis_vec(0), sl2.root_vector((-1,))


@pytest.fixture()
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def kks2(sl2):
    return poisson.kks_model(sl2)


@pytest.fixture(scope="session")
def kks3(sl3):
    return poisson.kks_model(sl3)


def subregular_point(sl3, a=1, perm=(0, 1, 2)):
    """diag entries (a, a, -2a) arranged by perm, as a Lie algebra vector."""
    vals = [Q(a), Q(a), Q(-2 * a)]
    m = [[Q(0)] * 3 for _ in range(3)]
    for i in range(3):
        m[i][i] = vals[perm[i]]
    return sl3.from_matrix(tuple(tuple(r) for r in m))


def perturbed(alg, i, j, k, delta):
    """alg's table, root data kept, with c_ij^k moved by delta and c_ji^k by -delta."""
    table = [[dict(entry) for entry in row] for row in alg.table]
    table[i][j][k] = table[i][j].get(k, 0) + delta
    table[j][i][k] = table[j][i].get(k, 0) - delta
    rows = [[[(m, c) for m, c in sorted(entry.items()) if c] for entry in row] for row in table]
    return lie.LieAlgebra(alg.basis_labels, rows, alg.rank, alg.root_data, name="perturbed")
