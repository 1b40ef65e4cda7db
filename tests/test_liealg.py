from fractions import Fraction

import pytest

from confcoh import linalg
from confcoh.errors import NotEquivariant, RepNotValid
from confcoh.liealg import (
    LiePresentation,
    Rep,
    abelian,
    adjoint_rep,
    check_equivariant,
    equivariant_maps,
    quotient_rep,
    sl2,
    sl2_irrep,
    sl3,
    sym_power_rep,
    trivial_rep,
    wedge2_rep,
)
from confcoh.poly import mat_mul, mat_sub


def test_sl2_structure_constants():
    g = sl2()
    e, f, h = 0, 1, 2
    assert g.bracket(e, f) == (0, 0, 1)       # [e,f] = h
    assert g.bracket(h, e) == (2, 0, 0)       # [h,e] = 2e
    assert g.bracket(h, f) == (0, -2, 0)      # [h,f] = -2f


def test_sl3_closes_and_validates():
    g = sl3()
    assert g.dim == 8
    # [e1, e2] = e3 in the unit-matrix basis
    assert g.bracket(0, 1)[2] == 1


def _all_pairs_constants(mats):
    """Structure constants by one commutator solve for every ordered pair
    (i, j), i = j included: an exact oracle for from_matrices."""
    n, size = len(mats), len(mats[0])
    columns = [{(r, s): Fraction(m[r][s]) for r in range(size)
                for s in range(size) if m[r][s]} for m in mats]
    constants = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            comm = mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
            target = {(r, s): comm[r][s].const_value() for r in range(size)
                      for s in range(size) if comm[r][s]}
            x = linalg.solve_columns(columns, target)
            assert x is not None
            constants[i][j] = tuple(x.get(k, Fraction(0)) for k in range(n))
    return constants


def _sl3_matrices():
    def unit(r, s):
        m = [[0] * 3 for _ in range(3)]
        m[r][s] = 1
        return m

    return [unit(0, 1), unit(1, 2), unit(0, 2), unit(1, 0), unit(2, 1),
            unit(2, 0), [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]


def test_from_matrices_matches_the_all_pairs_solve(monkeypatch):
    sl2_mats = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]]
    want = [_all_pairs_constants(sl2_mats), _all_pairs_constants(_sl3_matrices())]
    solves = []
    solve = linalg.solve_columns
    monkeypatch.setattr(linalg, "solve_columns",
                        lambda *args: solves.append(1) or solve(*args))
    got = [sl2().c, sl3().c]
    # one solve per pair i < j: 3 for sl2, 28 for sl3
    assert len(solves) == 3 + 28
    assert got == want
    assert all(type(x) is Fraction for c in got for row in c for v in row for x in v)


def test_from_matrices_refuses_matrices_that_do_not_close():
    e, f = [[0, 1], [0, 0]], [[0, 0], [1, 0]]  # [e, f] = h is missing
    with pytest.raises(ValueError, match="do not close"):
        LiePresentation.from_matrices(("e", "f"), [e, f])
    with pytest.raises(ValueError, match="do not close"):
        LiePresentation.from_matrices(("e1", "e2"), _sl3_matrices()[:2])


def test_abelian_trivially_valid():
    g = abelian(3)
    assert all(all(not c for c in g.bracket(i, j)) for i in range(3) for j in range(3))


def test_corrupted_constants_rejected():
    g = sl2()
    bad = [[list(g.c[i][j]) for j in range(3)] for i in range(3)]
    # [e,f] = e (antisymmetry kept) breaks Jacobi: [h,[e,f]] = 2e but
    # [[h,e],f] + [e,[h,f]] = 2e - 2e = 0
    bad[0][1] = [Fraction(1), Fraction(0), Fraction(0)]
    bad[1][0] = [Fraction(-1), Fraction(0), Fraction(0)]
    with pytest.raises(ValueError):
        LiePresentation(g.names, bad)


def test_adjoint_rep_validates():
    for g in (sl2(), sl3()):
        adjoint_rep(g)


def test_sl2_irreps_validate():
    g = sl2()
    for m in range(7):
        rep = sl2_irrep(g, m)
        assert rep.dim == m + 1


def test_bad_rep_matrices_raise():
    g = sl2()
    mats = sl2_irrep(g, 2).mats
    mats[0][0][0] += 1
    with pytest.raises(RepNotValid):
        Rep(g, mats)


def test_wedge2_and_sym_powers_validate():
    g = sl2()
    ad = adjoint_rep(g)
    wedge2_rep(ad)
    sym_power_rep(ad, 2)
    sym_power_rep(ad, 3)
    g3 = sl3()
    wedge2_rep(adjoint_rep(g3))


def test_sym2_sl2_splits_as_V4_plus_trivial():
    g = sl2()
    sym2, _ = sym_power_rep(adjoint_rep(g), 2)
    v4 = sl2_irrep(g, 4)
    assert len(equivariant_maps(sym2, v4)) == 1
    assert len(equivariant_maps(sym2, trivial_rep(g))) == 1
    assert len(equivariant_maps(sym2, sl2_irrep(g, 2))) == 0


def test_equivariant_map_checker():
    g = sl2()
    ad = adjoint_rep(g)
    maps = equivariant_maps(ad, sl2_irrep(g, 2))
    assert len(maps) == 1
    check_equivariant(ad, sl2_irrep(g, 2), maps[0])
    bad = [row[:] for row in maps[0]]
    bad[0][0] += 1
    with pytest.raises(NotEquivariant):
        check_equivariant(ad, sl2_irrep(g, 2), bad)


def test_wedge2_sl3_mod_adjoint_quotient():
    g = sl3()
    ad = adjoint_rep(g)
    w2, _ = wedge2_rep(ad)
    embeddings = equivariant_maps(ad, w2)
    assert len(embeddings) == 1
    t = embeddings[0]
    sub = [[t[r][c] for r in range(28)] for c in range(8)]
    quot, comp, project = quotient_rep(w2, sub)
    assert quot.dim == 20
    # the quotient contains no copy of the adjoint
    assert len(equivariant_maps(ad, quot)) == 0


def test_quotient_rep_of_a_direct_sum():
    g = sl2()
    v2 = sl2_irrep(g, 2)
    # V(2) + V(0), the trivial summand last
    total = Rep(g, [[row + [0] for row in m] + [[0] * 4] for m in v2.mats])
    quot, comp, project = quotient_rep(total, [[0, 0, 0, 1]])
    assert comp == [0, 1, 2]
    assert quot.mats == v2.mats
    assert project([1, 2, 3, 4]) == [1, 2, 3]
    # the line through v0 + w is not invariant: f v0 = v1
    with pytest.raises(ValueError, match="not invariant"):
        quotient_rep(total, [[1, 0, 0, 1]])
