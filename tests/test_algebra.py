import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from confcoh.algebra import (
    ConformalAlgebra,
    ConformalModule,
    action_eval,
    adjoint_module,
    bracket_eval,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
    check_associativity,
    check_bimodule,
    check_jacobi,
    check_module,
    check_skew_symmetry,
    dual_numbers_current,
    regular_bimodule,
)
from confcoh.errors import RepNotValid
from confcoh.liealg import (
    LiePresentation,
    Rep,
    abelian,
    adjoint_rep,
    sl2,
    sl2_irrep,
    sl3,
)
from confcoh.poly import (
    DEL,
    RatPoly,
    bracket_residual,
    lam,
    left_matrices,
    terms_poly,
)

D = RatPoly.var(DEL)
L1 = RatPoly.var(lam(1))


def test_vir_bracket_table():
    vir = build_vir()
    assert vir.bracket(0, 0) == (D + 2 * L1,)


def test_vir_passes_axioms():
    vir = build_vir()
    assert check_skew_symmetry(vir) == (True, None)
    assert check_jacobi(vir) == (True, None)


def test_vir_mutated_bracket_fails_skew():
    bad = ConformalAlgebra(("L",), [[(D + 3 * L1,)]])
    ok, witness = check_skew_symmetry(bad)
    assert not ok
    assert witness[:3] == (0, 0, 0)


def test_current_sl2_passes_axioms():
    cur = build_current(sl2())
    assert check_skew_symmetry(cur)[0]
    assert check_jacobi(cur)[0]


def test_current_sl3_passes_axioms():
    cur = build_current(sl3())
    assert check_skew_symmetry(cur)[0]
    assert check_jacobi(cur)[0]


def test_current_abelian_trivially_valid():
    cur = build_current(abelian(2))
    assert check_skew_symmetry(cur)[0]
    assert check_jacobi(cur)[0]


def test_jacobi_checker_tracks_presentation():
    # corrupt one structure constant; the conformal Jacobi check must fail
    g = sl2()
    cur = build_current(g)
    table = [[list(cur.table[i][j]) for j in range(3)] for i in range(3)]
    table[0][1] = [RatPoly.const(1), RatPoly.zero(), RatPoly.zero()]
    table[1][0] = [RatPoly.const(-1), RatPoly.zero(), RatPoly.zero()]
    bad = ConformalAlgebra(g.names, table)
    assert check_skew_symmetry(bad)[0]
    assert not check_jacobi(bad)[0]


def test_m_delta_alpha_action_and_axiom():
    m = build_m_delta_alpha(1, 0)
    assert m.action[0][0][0] == D + L1
    assert check_module(build_vir(), m) == (True, None)
    for delta, alpha in [(0, 0), (-1, 0), (1, 1), (2, 0), (Fraction(1, 2), Fraction(3, 2))]:
        assert check_module(build_vir(), build_m_delta_alpha(delta, alpha))[0]


def test_m_u_adjoint_passes_module_axiom():
    g = sl2()
    cur = build_current(g)
    m = build_m_u(g, adjoint_rep(g))
    assert m.dim == 3
    assert check_module(cur, m)[0]
    for k in range(0, 8, 2):
        assert check_module(cur, build_m_u(g, sl2_irrep(g, k)))[0]


def test_trivial_and_ca_modules():
    vir = build_vir()
    c = build_trivial(1, 0)
    ca = build_trivial(1, 1)
    assert check_module(vir, c)[0]
    assert check_module(vir, ca)[0]
    assert ca.del_poly() == RatPoly.const(1)


def test_bracket_eval_sesquilinearity():
    vir = build_vir()
    dL = (D,)
    L = (RatPoly.const(1),)
    got = bracket_eval(vir, dL, L)
    assert got == (-L1 * (D + 2 * L1),)
    assert bracket_eval(vir, (RatPoly.zero(),), L) == (RatPoly.zero(),)


def test_bracket_eval_current():
    cur = build_current(sl2())
    zero, one = RatPoly.zero(), RatPoly.const(1)
    e = (one, zero, zero)
    f = (zero, one, zero)
    assert bracket_eval(cur, e, f) == (zero, zero, one)  # [e,f] = h


def test_bracket_eval_random_skew():
    # [a_lam b] = -[b_{-lam-d} a] for random d-polynomial elements
    import random

    rng = random.Random(7)
    for alg in (build_vir(), build_current(sl2())):
        n = alg.ngens
        for _ in range(8):
            a = tuple(
                sum((rng.randint(-2, 2) * D ** k for k in range(4)), RatPoly.zero())
                for _ in range(n)
            )
            b = tuple(
                sum((rng.randint(-2, 2) * D ** k for k in range(4)), RatPoly.zero())
                for _ in range(n)
            )
            lhs = bracket_eval(alg, a, b)
            rhs = bracket_eval(alg, b, a, param=-L1 - D)
            assert lhs == tuple(-p for p in rhs)


def test_action_eval_m_delta_alpha():
    m = build_m_delta_alpha(1, 0)
    v = (RatPoly.const(1),)
    L = (RatPoly.const(1),)
    assert action_eval(m, L, v) == (D + L1,)
    # sesquilinearity: (d L)_lam v = -lam (d + lam) v
    assert action_eval(m, (D,), v) == (-L1 * (D + L1),)


def test_action_eval_scalar_module_is_zero():
    m = build_trivial(1, 1)
    assert action_eval(m, (RatPoly.const(1),), (RatPoly.const(1),)) == (RatPoly.zero(),)


def test_adjoint_module_passes_axiom():
    vir = build_vir()
    assert check_module(vir, adjoint_module(vir))[0]
    cur = build_current(sl2())
    assert check_module(cur, adjoint_module(cur))[0]


def test_dual_numbers_current_is_associative_bimodule():
    alg = dual_numbers_current()
    assert check_associativity(alg) == (True, None)
    bim = regular_bimodule(alg)
    assert check_bimodule(alg, bim) == (True, None)


def test_matrix_units_current_is_associative_bimodule(mat2_current):
    # Cur M_2(Q) is not commutative: e12 e21 = e11, e21 e12 = e22
    assert mat2_current.table[1][2] != mat2_current.table[2][1]
    assert check_associativity(mat2_current) == (True, None)
    bim = regular_bimodule(mat2_current)
    assert check_bimodule(mat2_current, bim) == (True, None)
    # the left action used as the right one (and back) is rejected
    for left, right, side in ((bim.right_action, bim.right_action, "left"),
                              (bim.action, bim.action, "right")):
        swapped = ConformalModule("free", 4, action=left, right_action=right)
        ok, witness = check_bimodule(mat2_current, swapped)
        assert not ok and witness[0] == side


def test_non_associative_fixture_detected():
    # x*x = one is not associative with x*one = 0
    mult = [[[0, 0], [0, 0]] for _ in range(2)]
    mult[0][0] = [1, 0]
    mult[1][1] = [1, 0]
    from confcoh.algebra import build_assoc_current

    bad = build_assoc_current(("one", "x"), mult)
    assert not check_associativity(bad)[0]


# -- the support-driven checkers against full scans of every entry -----------


def _full_scan_module(algebra, module):
    """check_module reading every (i, j, r, s) in order: an exact oracle."""
    act, dim = module.action, module.dim
    residual = bracket_residual(act, act, algebra.table, [D] * dim, True)
    for i, j, r, s in product(range(algebra.ngens), range(algebra.ngens),
                              range(dim), range(dim)):
        entry = residual(i, j, r, s)
        if entry:
            return False, (i, j, (r, s), terms_poly(entry))
    return True, None


def _random_action(rng, n, dim):
    def entry():
        if rng.random() < 0.5:
            return RatPoly.zero()
        return (rng.randint(-2, 2) * D + rng.randint(-2, 2) * L1
                + rng.randint(-1, 1) * L1 * L1 + rng.randint(-3, 3))

    return [[[entry() for _ in range(dim)] for _ in range(dim)] for _ in range(n)]


def test_check_module_reports_the_first_entry_of_a_full_scan():
    rng = random.Random(182)
    cur2 = build_current(sl2())
    m_v2 = build_m_u(sl2(), sl2_irrep(sl2(), 2))
    failed = 0
    for alg in (build_vir(), cur2):
        for dim in (2, 3):
            for _ in range(6):
                module = ConformalModule("free", dim,
                                         action=_random_action(rng, alg.ngens, dim))
                got = check_module(alg, module)
                assert got == _full_scan_module(alg, module)
                failed += not got[0]
    assert failed > 12
    # one wrong entry of M_V(2) at a time: each is reported where a full
    # scan first sees it
    for g, r, s in product(range(3), range(3), range(3)):
        action = [[list(row) for row in m] for m in m_v2.action]
        action[g][r][s] = action[g][r][s] + L1
        module = ConformalModule("free", 3, action=action)
        assert check_module(cur2, module) == _full_scan_module(cur2, module)


def _full_scan_lie(constants):
    """LiePresentation's Jacobi message by reading every entry: an oracle."""
    n = len(constants)
    table = [[tuple(RatPoly.const(x) for x in v) for v in row] for row in constants]
    ad = left_matrices(table)
    residual = bracket_residual(ad, ad, table, [RatPoly.zero()] * n, True)
    for (i, j), k, l in product(combinations(range(n), 2), range(n), range(n)):
        if residual(i, j, l, k):
            return f"not a Lie algebra: Jacobi fails at ({i},{j},{k})"
    return None


def test_lie_jacobi_failure_is_the_first_of_a_full_scan():
    rng = random.Random(183)
    g3 = sl3()
    for _ in range(12):
        bad = [[list(g3.c[i][j]) for j in range(8)] for i in range(8)]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(8), 2)
            k = rng.randrange(8)
            bad[i][j][k] += 1
            bad[j][i][k] -= 1
        with pytest.raises(ValueError) as info:
            LiePresentation(g3.names, bad)
        assert str(info.value) == _full_scan_lie(bad)


def test_rep_failure_is_the_first_pair_of_a_full_scan():
    rng = random.Random(184)
    g3 = sl3()
    ad = adjoint_rep(g3)
    for _ in range(40):
        mats = [[row[:] for row in m] for m in ad.mats]
        x, r, s = rng.randrange(8), rng.randrange(8), rng.randrange(8)
        mats[x][r][s] += rng.choice([1, -1, Fraction(1, 2)])
        consts = [[[RatPoly.const(v) for v in row] for row in m] for m in mats]
        residual = bracket_residual(consts, consts, g3.poly_table,
                                    [RatPoly.zero()] * 8, True)
        want = next((f"[rho_{i}, rho_{j}] != rho([x_{i}, x_{j}])"
                     for i, j in combinations(range(8), 2)
                     if any(residual(i, j, a, b)
                            for a, b in product(range(8), repeat=2))), None)
        with pytest.raises(RepNotValid) as info:
            Rep(g3, mats)
        assert str(info.value) == want


def test_left_bimodule_failures_are_seen_on_every_entry(mat2_current):
    # one wrong entry of the left action at a time: the left identity's
    # first failing pair by a full scan is reported, unless the right or
    # mixed identity fails at a pair no later
    bim = regular_bimodule(mat2_current)
    table = mat2_current.table
    for g, r, s in product(range(4), range(4), range(4)):
        left = [[list(row) for row in m] for m in bim.action]
        left[g][r][s] = left[g][r][s] + 1
        residual = bracket_residual(left, left, table, [D] * 4, False)
        first = next(((i, j) for i, j in product(range(4), repeat=2)
                      if any(residual(i, j, a, b)
                             for a, b in product(range(4), repeat=2))), None)
        ok, witness = check_bimodule(mat2_current, ConformalModule(
            "free", 4, action=left, right_action=bim.right_action))
        if first is None:
            continue
        assert not ok
        kind, pair = witness
        assert (kind == "left" and pair == first) or (
            kind in ("right", "mixed") and pair <= first)
