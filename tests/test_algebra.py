from fractions import Fraction


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
from confcoh.liealg import abelian, adjoint_rep, sl2, sl2_irrep, sl3
from confcoh.poly import DEL, RatPoly, lam, unit_vec

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
    e = unit_vec(3, 0)
    f = unit_vec(3, 1)
    assert bracket_eval(cur, e, f) == unit_vec(3, 2)  # [e,f] = h


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
