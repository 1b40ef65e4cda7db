import random
from fractions import Fraction
from itertools import product

import pytest

from confcoh.algebra import (
    adjoint_module,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
    check_module,
)
from confcoh.calculus import EXT, contract_lambda
from confcoh.cochain import REDUCED, Cochain, d_reduced, random_skew_cochain
from confcoh.engine import ComplexSpec, truncation_sweep, verify_cocycle
from confcoh.errors import NotACocycle, NotReducedCocycle
from confcoh.extensions import (
    ExtendedAlgebra,
    cochain_from_datum,
    coboundary_gamma,
    coboundary_splitting_images,
    conformal_hom_ok,
    datum_from_cochain,
    deform,
    extend_algebra,
    extend_module,
    extend_module_by_trivial,
    invariants_h0,
    split_module_isomorphic,
    trivial_extension_isomorphic,
)
from confcoh.liealg import (
    abelian,
    adjoint_rep,
    equivariant_maps,
    quotient_rep,
    sl2,
    sl2_irrep,
    sl3,
    sym_power_rep,
    trivial_rep,
    wedge2_rep,
)
from confcoh.poly import DEL, RatPoly, lam, zero_vec

VIR = build_vir()
C = build_trivial(1, 0)
D = RatPoly.var(DEL)
L1, L2 = RatPoly.var(lam(1)), RatPoly.var(lam(2))


def test_virasoro_central_extension():
    ext = extend_algebra(VIR, C, {(0, 0): (L1 ** 3,)})
    assert ext.algebra.ngens == 2
    assert ext.algebra.del_scalars == (None, Fraction(0))


def test_central_extension_from_engine_representative():
    spec = ComplexSpec(VIR, C, REDUCED)
    rep = truncation_sweep(spec, 2, 8, representatives=True).rows[2].representatives[0]
    extend_algebra(VIR, C, rep)
    # the representative restricted to lam2 = -lam1 doubles the cubic
    datum = datum_from_cochain(rep)
    assert datum[(0, 0)][0].coeff_of_lams((3,)) != 0


def test_extension_validity_iff_cocycle():
    rng = random.Random(101)
    fixtures = [
        (VIR, C),
        (VIR, build_trivial(1, 1)),
        (build_current(sl2()), build_trivial(1, 0)),
    ]
    outcomes = {True: 0, False: 0}
    for alg, mod in fixtures:
        spec = ComplexSpec(alg, mod, REDUCED)
        for _ in range(34):
            gamma = random_skew_cochain(alg, mod, 2, 4, rng, variant=REDUCED)
            is_cocycle = verify_cocycle(spec, gamma).is_cocycle
            ext = ExtendedAlgebra(alg, mod, gamma)
            valid = ext.check()[0]
            assert valid == is_cocycle
            outcomes[valid] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_extension_coboundary_gives_split_isomorphism():
    # c = d f for a 1-cochain f: (x, a) -> (x + f-correction, a) is an
    # isomorphism from the twisted extension onto the untwisted one
    from confcoh.cochain import d_reduced

    rng = random.Random(103)
    m10 = build_m_delta_alpha(1, 0)
    for mod in (m10, adjoint_module(VIR)):
        f = random_skew_cochain(VIR, mod, 1, 3, rng, variant=REDUCED)
        c = d_reduced(f)
        twisted = extend_algebra(VIR, mod, c)
        split = extend_algebra(
            VIR, mod, {(0, 0): zero_vec(mod.dim)}
        )
        # correction per generator: the one-parameter form of f at lam -> -d
        section = [-RatPoly.var(DEL)]
        correction = [f.value_with_params((0,), section)]
        images = coboundary_splitting_images(twisted, correction)
        assert conformal_hom_ok(twisted.algebra, split.algebra, images)


def test_builtin_extension_cocycles_sl2_and_sl3():
    g2 = sl2()
    cur2 = build_current(g2)
    sym2, basis = sym_power_rep(adjoint_rep(g2), 2)
    v4 = sl2_irrep(g2, 4)
    phi = equivariant_maps(sym2, v4)[0]
    idx = {b: k for k, b in enumerate(basis)}
    poly = L1 * (D + L1) * (D + 2 * L1)
    datum = {
        (i, j): tuple(
            poly * phi[r][idx[tuple(sorted((i, j)))]] for r in range(5)
        )
        for i in range(3)
        for j in range(3)
    }
    extend_algebra(cur2, build_m_u(g2, v4), datum)

    g3 = sl3()
    cur3 = build_current(g3)
    ad3 = adjoint_rep(g3)
    w2, pairs = wedge2_rep(ad3)
    embed = equivariant_maps(ad3, w2)[0]
    sub = [[embed[r][c] for r in range(28)] for c in range(8)]
    quot, _, project = quotient_rep(w2, sub)
    mod = build_m_u(g3, quot)
    index = {p: k for k, p in enumerate(pairs)}
    poly = L1 * (D + L1)
    datum = {}
    for i in range(8):
        for j in range(8):
            vec = [Fraction(0)] * 28
            if i != j:
                a, b = min(i, j), max(i, j)
                vec[index[(a, b)]] = Fraction(1 if i < j else -1)
            proj = project(vec)
            datum[(i, j)] = tuple(poly * x for x in proj)
    extend_algebra(cur3, mod, datum)


def test_extension_rejects_corrupted_builtin_cocycle():
    g2 = sl2()
    cur2 = build_current(g2)
    v4 = sl2_irrep(g2, 4)
    sym2, basis = sym_power_rep(adjoint_rep(g2), 2)
    phi = equivariant_maps(sym2, v4)[0]
    idx = {b: k for k, b in enumerate(basis)}
    poly = L1 * (D + L1)  # wrong polynomial factor for sl2
    datum = {
        (i, j): tuple(
            poly * phi[r][idx[tuple(sorted((i, j)))]] for r in range(5)
        )
        for i in range(3)
        for j in range(3)
    }
    with pytest.raises(NotACocycle):
        extend_algebra(cur2, build_m_u(g2, v4), datum)


def test_datum_cochain_round_trip():
    rng = random.Random(107)
    mod = build_m_delta_alpha(2, 0)
    gamma = random_skew_cochain(VIR, mod, 2, 4, rng, variant=REDUCED)
    datum = datum_from_cochain(gamma)
    back = cochain_from_datum(VIR, mod, datum)
    assert back == gamma


def _datum_from_cochain_oracle(cocycle):
    """The section lam2 := -lam1 - d_M by substitution, one pair at a time."""
    if cocycle.q != 2 or cocycle.variant != REDUCED:
        raise ValueError("expected a reduced 2-cochain")
    module = cocycle.module
    n = cocycle.algebra.ngens
    section = [L1, -L1 - module.del_poly()]
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = cocycle.value_with_params((i, j), section)
    return table


def _datum_cochains():
    """Reduced 2-cochains over Cur sl2 and Vir, free and scalar modules; some
    with non-integral coefficients, some whose values carry d or mu."""
    rng = random.Random(109)
    g = sl2()
    cur2 = build_current(g)
    fixtures = [
        (cur2, adjoint_module(cur2)),
        (cur2, build_m_u(g, sl2_irrep(g, 2))),
        (cur2, build_trivial(1, Fraction(-7, 3))),
        (VIR, build_m_delta_alpha(1, 0)),
        (VIR, build_m_delta_alpha(2, Fraction(1, 3))),
        (VIR, C),
        (VIR, build_trivial(1, 5)),
    ]
    for alg, mod in fixtures:
        yield random_skew_cochain(alg, mod, 2, 4, rng, variant=REDUCED)
        yield random_skew_cochain(alg, mod, 2, 3, rng,
                                  variant=REDUCED).scale(Fraction(2, 3))
        # values carrying d: a basic representative read as a reduced one
        with_d = random_skew_cochain(alg, mod, 2, 3, rng, max_del=3)
        with_d = with_d.copy_with(values={
            t: tuple(p * (D - 2) ** 2 for p in v)
            for t, v in with_d.values.items()
        })
        yield with_d.copy_with(variant=REDUCED).scale(Fraction(-5, 4))
        # values carrying the contraction parameter mu
        three = random_skew_cochain(alg, mod, 3, 3, rng, variant=REDUCED)
        yield contract_lambda(tuple(RatPoly.const(k + 1)
                                    for k in range(alg.ngens)), three)


def test_datum_from_cochain_matches_oracle():
    seen_d = seen_mu = 0
    for gamma in _datum_cochains():
        assert gamma.q == 2 and gamma.variant == REDUCED
        got = datum_from_cochain(gamma)
        assert got == _datum_from_cochain_oracle(gamma)
        for vec in got.values():
            for p in vec:
                assert all(type(c) is Fraction for c in p.terms.values())
        seen_d += gamma.has_del()
        seen_mu += any(EXT in p.variables()
                       for v in gamma.values.values() for p in v)
    assert seen_d >= 7 and seen_mu >= 1


def test_part2_extension_and_coboundary_iso():
    m10 = build_m_delta_alpha(1, 0)
    f = (RatPoly.const(1),)
    ext = extend_module_by_trivial(VIR, m10, f)
    assert ext.check() == (True, None)
    # f = d g: isomorphic to the direct sum via (m, 1) -> (m + g, 1)
    g_elem = (RatPoly.const(5),)
    split = extend_module_by_trivial(VIR, m10, zero_vec(1))
    shifted = extend_module_by_trivial(VIR, m10, (5 * D,))
    assert trivial_extension_isomorphic(split, shifted, g_elem)
    # f = 0 is the direct sum: gamma vanishes
    assert all(p.is_zero() for vec in split.gamma for p in vec)


def test_part2_h0_feed_through():
    # compute H^0 with the engine and feed a representative through
    m = build_m_delta_alpha(0, 0)
    spec = ComplexSpec(VIR, m, REDUCED)
    table = truncation_sweep(spec, 0, 8, representatives=True)
    assert table.dims()[0] == 0  # H^0(Vir, M_{0,0}) = 0: only d-multiples
    vecs, stab = invariants_h0(VIR, m, 5)
    assert vecs == [] and stab
    m2 = build_m_delta_alpha(1, 0)
    table2 = truncation_sweep(ComplexSpec(VIR, m2, REDUCED), 0, 8,
                              representatives=True)
    assert table2.dims()[0] == 1
    rep = table2.rows[0].representatives[0]
    f = rep.values[()]
    ext = extend_module_by_trivial(VIR, m2, f)
    assert ext.check()[0]


def test_part2_rejects_non_cocycle():
    m = build_m_delta_alpha(0, 1)
    # a_lam v = (d + 1) v is not divisible by (d + lam)
    with pytest.raises(NotReducedCocycle):
        extend_module_by_trivial(VIR, m, (RatPoly.const(1),))


def test_invariants_h0():
    assert invariants_h0(VIR, build_m_delta_alpha(1, 0), 4) == ([], True)
    assert invariants_h0(VIR, build_m_delta_alpha(-2, 1), 4) == ([], True)
    vecs, stab = invariants_h0(VIR, build_trivial(1, 0), 4)
    assert stab and len(vecs) == 1
    g = sl2()
    cur = build_current(g)
    assert invariants_h0(cur, build_m_u(g, adjoint_rep(g)), 4) == ([], True)
    vecs, stab = invariants_h0(cur, build_m_u(g, trivial_rep(g)), 3)
    # the invariants form a free rank-one C[d]-module: truncations grow
    assert not stab and len(vecs) == 6


def test_part3_extension_and_split_case():
    for alpha in (0, 1):
        m_top = build_m_delta_alpha(1, alpha)
        n_bot = build_m_delta_alpha(0, alpha)
        gamma = [[[3 * L1]]]
        module = extend_module(VIR, m_top, n_bot, gamma)
        assert check_module(VIR, module)[0]
        beta = [[RatPoly.const(7)]]
        assert split_module_isomorphic(VIR, m_top, n_bot, gamma, beta)
    with pytest.raises(NotACocycle):
        extend_module(VIR, build_m_delta_alpha(1, 0), build_m_delta_alpha(0, 0),
                      [[[L1 ** 2]]])


def test_part3_gamma_equals_zero_is_direct_sum():
    m_top = build_m_delta_alpha(1, 0)
    n_bot = build_m_delta_alpha(2, 0)
    module = extend_module(VIR, m_top, n_bot, [[[RatPoly.zero()]]])
    assert module.action[0][0][1].is_zero()


def test_part3_coboundary_datum_is_valid():
    m_top = build_m_delta_alpha(1, 0)
    n_bot = build_m_delta_alpha(0, 0)
    beta = [[D ** 2 + 1]]
    gamma = coboundary_gamma(VIR, m_top, n_bot, beta)
    extend_module(VIR, m_top, n_bot, gamma)


def test_part3_no_conformal_linear_map_from_torsion():
    # gamma into a free module must satisfy (d + lam) gamma(n) = 0 when n is
    # torsion with d n = 0; over a polynomial ring this forces gamma = 0
    p = (D + L1) * (D - 2 * L1 + 1)
    quot, rem = p.div_linear(DEL, -L1)
    assert not rem  # sanity: division is exact only for multiples
    q2, r2 = (D ** 2 + 1).div_linear(DEL, -L1)
    assert r2  # a non-multiple has a remainder: (d+lam) x = 0 => x = 0


def test_deform_zero_datum_is_undeformed():
    n = VIR.ngens
    zero_gamma = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    defo = deform(VIR, zero_gamma)
    assert defo.check_jacobi_mod_eps2() == (True, None)
    assert defo.check_jacobi_integrated() == (True, None)


def test_deform_validity_iff_cocycle():
    rng = random.Random(109)
    for alg in (VIR, build_current(sl2())):
        adj = adjoint_module(alg)
        spec = ComplexSpec(alg, adj, REDUCED)
        seen = {True: 0, False: 0}
        for _ in range(20):
            gamma = random_skew_cochain(alg, adj, 2, 3, rng, variant=REDUCED)
            is_cocycle = verify_cocycle(spec, gamma).is_cocycle
            ok = deform(alg, gamma).check_jacobi_mod_eps2()[0]
            assert ok == is_cocycle
            seen[ok] += 1
        assert seen[False] > 0


def test_deformation_from_a_cochain_matches_its_datum_table():
    # the cochain's terms go to the residual directly; the RatPoly table of
    # datum_from_cochain must give the same residual entries and verdicts
    rng = random.Random(181)
    for alg in (VIR, build_current(sl2())):
        adj = adjoint_module(alg)
        spec = ComplexSpec(alg, adj, REDUCED)
        n = alg.ngens
        gammas = [random_skew_cochain(alg, adj, 2, 3, rng, variant=REDUCED)
                  for _ in range(3)]
        gammas += [d_reduced(random_skew_cochain(alg, adj, 1, 3, rng,
                                                 variant=REDUCED))
                   for _ in range(2)]
        verdicts = set()
        for gamma in gammas:
            datum = datum_from_cochain(gamma)
            table = [[datum[(i, j)] for j in range(n)] for i in range(n)]
            from_cochain, from_table = deform(alg, gamma), deform(alg, table)
            assert from_cochain.gamma == table
            for i, j, k, m in product(range(n), repeat=4):
                assert (from_cochain.jacobi_residual(i, j, k, m)
                        == from_table.jacobi_residual(i, j, k, m))
            verdict = from_cochain.check_jacobi_mod_eps2()
            assert verdict == from_table.check_jacobi_mod_eps2()
            assert verdict[0] == verify_cocycle(spec, gamma).is_cocycle
            verdicts.add(verdict[0])
        assert verdicts == {True, False}


def test_deform_coboundaries_are_valid_on_current_sl2():
    # the positive direction of BKV's correspondence, which random reduced
    # 2-cochains on Cur sl2 almost never reach: coboundaries d(beta) of
    # reduced adjoint 1-cochains are cocycles and first-order deformations;
    # adding a basis 2-cochain that is not a cocycle breaks both
    cur2 = build_current(sl2())
    adj = adjoint_module(cur2)
    spec = ComplexSpec(cur2, adj, REDUCED)
    rng = random.Random(113)
    bump = Cochain.from_basis_element(cur2, adj, 2, REDUCED, ((1, 0), (0, 0)), 0)
    assert not verify_cocycle(spec, bump).is_cocycle
    for _ in range(4):
        beta = random_skew_cochain(cur2, adj, 1, 3, rng, variant=REDUCED)
        gamma = d_reduced(beta)
        assert not gamma.is_zero()
        assert verify_cocycle(spec, gamma).is_cocycle
        assert deform(cur2, gamma).check_jacobi_mod_eps2()[0]
        perturbed = gamma + bump
        assert not verify_cocycle(spec, perturbed).is_cocycle
        assert not deform(cur2, perturbed).check_jacobi_mod_eps2()[0]


def test_deform_abelian_toward_lie_bracket():
    # first order is unobstructed over an abelian base; the bracket's own
    # Jacobi identity is the integrated (eps^2) condition
    base = build_current(abelian(3))
    g = sl2()
    gamma = [
        [tuple(RatPoly.const(g.c[i][j][k]) for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    defo = deform(base, gamma)
    assert defo.check_jacobi_mod_eps2()[0]
    assert defo.check_jacobi_integrated()[0]
    bad = [
        [list(gamma[i][j]) for j in range(3)]
        for i in range(3)
    ]
    bad[0][1] = (RatPoly.const(1), RatPoly.zero(), RatPoly.zero())
    bad[1][0] = (RatPoly.const(-1), RatPoly.zero(), RatPoly.zero())
    defo_bad = deform(base, [[tuple(bad[i][j]) for j in range(3)] for i in range(3)])
    assert defo_bad.check_jacobi_mod_eps2()[0]  # eps-linear part still holds
    assert not defo_bad.check_jacobi_integrated()[0]
