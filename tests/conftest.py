import random
from fractions import Fraction as Q

import pytest
from hypothesis import Phase, settings

from symred import lie, poisson
from symred import linalg as la

# ``pytest --hypothesis-profile=mutation`` for a mutation check: every example
# is generated as in the default profile, but a failing one is not shrunk,
# which on the widest algebras takes minutes.  The default profile is unchanged.
settings.register_profile("mutation", phases=(Phase.explicit, Phase.reuse, Phase.generate))


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


def check_data(report, name):
    """The data of `report`'s check called `name`; KeyError when it has none of that name."""
    for c in report.checks:
        if c.name == name:
            return c.data
    raise KeyError(name)


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


def tampered(alg, kind, a, b=None):
    """alg's table with its root data, changed by kind and built without the Chevalley certificate.

    "flip" negates [e_a, e_b] and its mirror, "flip+omega" also their image
    [e_-a, e_-b] under the Chevalley involution, which then stays an
    automorphism, and "scale" doubles [e_a, e_b].  "cartan" moves [h_a, e_b]
    off <beta, alpha_a^vee> by 1.  Each of these breaks Jacobi.  "sign",
    "sign+omega" and "rescale" only change the basis, by e_a -> -e_a, by
    e_{±a} -> -e_{±a} and by e_a -> 2 e_a, so Jacobi and invariance hold;
    only "sign+omega" keeps the involution an automorphism.
    """
    table = [[list(entry) for entry in row] for row in alg.table]
    neg = alg.root_data._neg

    def times(x, y, f):
        for u, v in ((x, y), (y, x)):
            table[u][v] = [(k, c * f) for k, c in table[u][v]]

    if kind == "cartan":
        c = dict(table[a][b]).get(b, 0) + 1
        table[a][b], table[b][a] = [(b, c)], [(b, -c)]
    elif kind in ("flip", "flip+omega", "scale"):
        times(a, b, 2 if kind == "scale" else -1)
        if kind == "flip+omega" and {neg[a], neg[b]} != {a, b}:
            times(neg[a], neg[b], -1)
    else:
        s = {a: 2} if kind == "rescale" else {a: -1, neg[a]: -1} if kind == "sign+omega" else {a: -1}
        table = [
            [[(k, c * Q(s.get(x, 1) * s.get(y, 1), s.get(k, 1))) for k, c in table[x][y]] for y in range(alg.dim)]
            for x in range(alg.dim)
        ]
    return lie.LieAlgebra(alg.basis_labels, table, alg.rank, alg.root_data, name=kind)
