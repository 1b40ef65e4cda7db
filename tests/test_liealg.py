from fractions import Fraction

import pytest

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
