"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Tolerances are exact equality (the ground field is Q); stated runtime
budgets are asserted.  Each test prints one summary line (visible with -s
and in the verbose log).  Criterion 2's fixture ranges are calibrated to the
two-minute budget: the full stated range runs for vir and cur:sl2; cur:sl3
runs basic/reduced at lam-degree <= 4 and the non-symmetric variants are
sampled at a fixed seed (the per-slice matrix composition invariant covers
the same identity exhaustively in test_engine).
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from confcoh.algebra import (
    adjoint_module,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
    check_jacobi,
    check_module,
    check_skew_symmetry,
    dual_numbers_current,
    regular_bimodule,
)
from confcoh.annihilation import ce_differential_eval, phi_eval
from confcoh.calculus import contract_lambda, homotopy_k, lie_theta, wedge
from confcoh.cochain import (
    BASIC,
    CYCLIC,
    HOCHSCHILD,
    REDUCED,
    Cochain,
    _split_values,
    cyclic_symmetrize,
    d_basic,
    d_cyclic,
    d_hochschild,
    d_leibniz,
    d_reduced,
    random_plain_cochain,
    random_skew_cochain,
    sorted_tuples,
)
from confcoh.engine import (
    ComplexSpec,
    cochain_coords,
    graded_bidegree_dims,
    sl2_example_cocycle,
    slice_pairs,
    basis_cochain,
    apply_differential,
    truncation_sweep,
    verify_cocycle,
)
from confcoh.errors import NotACocycle
from confcoh.extensions import (
    ExtendedAlgebra,
    deform,
    extend_algebra,
    extend_module,
    extend_module_by_trivial,
    split_module_isomorphic,
    trivial_extension_isomorphic,
)
from confcoh.liealg import (
    adjoint_rep,
    equivariant_maps,
    quotient_rep,
    sl2,
    sl2_irrep,
    sl3,
    sym_power_rep,
    wedge2_rep,
)
from confcoh.linalg import solve_columns
from confcoh.poly import DEL, RatPoly, lam, zero_vec
from confcoh.skew import skew_basis

D = RatPoly.var(DEL)
L1, L2, L3 = (RatPoly.var(lam(i)) for i in (1, 2, 3))


def _report(n, summary):
    print(f"criterion {n:>2}: PASS  {summary}", flush=True)


@pytest.fixture(scope="module")
def vir():
    return build_vir()


@pytest.fixture(scope="module")
def sl2_g():
    return sl2()


@pytest.fixture(scope="module")
def sl3_g():
    return sl3()


@pytest.fixture(scope="module")
def cur2(sl2_g):
    return build_current(sl2_g)


@pytest.fixture(scope="module")
def cur3(sl3_g):
    return build_current(sl3_g)


@pytest.fixture(scope="module")
def sl3_wedge_quotient(sl3_g):
    ad = adjoint_rep(sl3_g)
    w2, pairs = wedge2_rep(ad)
    embed = equivariant_maps(ad, w2)[0]
    sub = [[embed[r][c] for r in range(w2.dim)] for c in range(sl3_g.dim)]
    quot, _, project = quotient_rep(w2, sub)
    return quot, pairs, project


def test_criterion_01_axiom_suite(vir, cur2, cur3, sl2_g, sl3_g):
    start = time.perf_counter()
    for alg in (vir, cur2, cur3):
        assert check_skew_symmetry(alg) == (True, None)
        assert check_jacobi(alg) == (True, None)
    scalar_mods = [build_trivial(1, 0), build_trivial(1, 1)]
    for alg in (vir, cur2, cur3):
        for mod in scalar_mods:
            assert check_module(alg, mod) == (True, None)
    for pair in [(1, 0), (0, 0), (-1, 0), (1, 1), (2, 0)]:
        assert check_module(vir, build_m_delta_alpha(*pair)) == (True, None)
    assert check_module(cur2, build_m_u(sl2_g, adjoint_rep(sl2_g)))[0]
    for m in (2, 3, 4, 5, 6):
        assert check_module(cur2, build_m_u(sl2_g, sl2_irrep(sl2_g, m)))[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"axiom suite exact, {elapsed:.2f}s < 5s")


def test_criterion_02_d_squared_fuzz(vir, cur2, cur3, sl2_g):
    start = time.perf_counter()
    checked = 0

    def basis_cochains(alg, mod, variant, qmax, dmax, del_powers=(0,)):
        for q in range(qmax + 1):
            for d in range(dmax + 1):
                for elem in skew_basis(q, d, alg.ngens).elements:
                    for u in range(mod.dim):
                        base = Cochain.from_basis_element(alg, mod, q, variant,
                                                          elem, u)
                        for e in del_powers:
                            if e == 0:
                                yield base
                            else:
                                factor = D ** e
                                yield base.copy_with(values={
                                    t: tuple(factor * p for p in v)
                                    for t, v in base.values.items()
                                })

    lie_fixtures = [
        (vir, build_trivial(1, 0), 6),
        (vir, build_trivial(1, 1), 6),
        (vir, build_m_delta_alpha(1, 0), 6),
        (cur2, build_trivial(1, 0), 6),
        (cur2, build_trivial(1, 1), 6),
        (cur2, build_m_u(sl2_g, adjoint_rep(sl2_g)), 4),
        (cur3, build_trivial(1, 0), 3),
    ]
    for alg, mod, dmax in lie_fixtures:
        dels = (0, 1) if mod.is_free() else (0,)
        for gamma in basis_cochains(alg, mod, BASIC, 3, dmax, dels):
            assert d_basic(d_basic(gamma)).is_zero()
            checked += 1
        for gamma in basis_cochains(alg, mod, REDUCED, 3, dmax):
            assert d_reduced(d_reduced(gamma)).is_zero()
            checked += 1

    # Leibniz: full skew bases forgotten to plain storage, plus seeded
    # non-symmetric samples
    rng = random.Random(271)
    from confcoh.cochain import as_leibniz

    for alg, mod, dmax in [(vir, build_trivial(1, 0), 6),
                           (vir, build_m_delta_alpha(1, 0), 6)]:
        for gamma in basis_cochains(alg, mod, BASIC, 3, dmax):
            plain = as_leibniz(gamma)
            assert d_leibniz(d_leibniz(plain)).is_zero()
            checked += 1
    for q in (1, 2):
        for _ in range(4):
            gamma = random_plain_cochain(cur2, build_trivial(1, 0), q, 4, rng)
            assert d_leibniz(d_leibniz(gamma)).is_zero()
            checked += 1
    for _ in range(2):
        gamma = random_plain_cochain(cur2, build_trivial(1, 0), 3, 3, rng)
        assert d_leibniz(d_leibniz(gamma)).is_zero()
        checked += 1
    for _ in range(2):
        gamma = random_plain_cochain(cur3, build_trivial(1, 0), 2, 3, rng,
                                     density=0.1)
        assert d_leibniz(d_leibniz(gamma)).is_zero()
        checked += 1

    # Hochschild and cyclic on the associative fixture
    assoc = dual_numbers_current()
    bim = regular_bimodule(assoc)
    for q in (0, 1, 2):
        for gamma in (random_plain_cochain(assoc, bim, q, 4, rng,
                                           variant=HOCHSCHILD)
                      for _ in range(4)):
            assert d_hochschild(d_hochschild(gamma)).is_zero()
            checked += 1
    for _ in range(2):
        gamma = random_plain_cochain(assoc, bim, 3, 3, rng, variant=HOCHSCHILD)
        assert d_hochschild(d_hochschild(gamma)).is_zero()
        checked += 1
    c_mod = build_trivial(1, 0)
    for q in (1, 2, 3):
        for _ in range(3):
            gamma = cyclic_symmetrize(
                random_plain_cochain(assoc, c_mod, q, 4, rng, variant=CYCLIC)
            )
            dg = d_cyclic(gamma)
            assert dg.validate() is None  # cyclic invariance preserved
            assert d_cyclic(dg).is_zero()
            checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"d^2 = 0 on {checked} cochains, {elapsed:.1f}s < 120s")


def _proportional_mod_ideal(rep_poly, target_poly, q, ideal_degree):
    """rep = c*target + (sum lam)*w with w skew of the given degree, c != 0."""
    columns = [dict()]
    # column 0: the target
    columns[0] = {mono: c for mono, c in target_poly.terms.items()}
    total = sum((RatPoly.var(lam(s + 1)) for s in range(q)), RatPoly.zero())
    for elem in skew_basis(q, ideal_degree, 1).elements:
        from confcoh.skew import element_value

        w = total * element_value(elem, q)
        columns.append({mono: c for mono, c in w.terms.items()})
    target = {mono: c for mono, c in rep_poly.terms.items()}
    sol = solve_columns(columns, target)
    return sol is not None and sol.get(0)


def test_criterion_03_virasoro_trivial(vir):
    start = time.perf_counter()
    c_mod = build_trivial(1, 0)
    reduced = truncation_sweep(ComplexSpec(vir, c_mod, REDUCED), 4, 8,
                               representatives=True)
    assert reduced.dims() == [1, 0, 1, 1, 0]
    basic = truncation_sweep(ComplexSpec(vir, c_mod, BASIC), 4, 8)
    assert basic.dims() == [1, 0, 0, 1, 0]
    rep2 = reduced.rows[2].representatives[0].values[(0, 0)][0]
    assert _proportional_mod_ideal(rep2, L1 ** 3 - L2 ** 3, 2, 2)
    rep3 = reduced.rows[3].representatives[0].values[(0, 0, 0)][0]
    vandermonde = (L1 - L2) * (L1 - L3) * (L2 - L3)
    assert _proportional_mod_ideal(rep3, vandermonde, 3, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"Vir/C dims and representatives exact, {elapsed:.1f}s < 30s")


def test_criterion_04_density_modules_vanish(vir):
    for delta, alpha in [(1, 1), (0, 2), (-1, 1)]:
        spec = ComplexSpec(vir, build_m_delta_alpha(delta, alpha), REDUCED)
        table = truncation_sweep(spec, 3, 10)
        assert table.dims() == [0, 0, 0, 0]
        assert all(row.stabilized for row in table.rows)
        assert all(row.mode == "window" for row in table.rows)
    _report(4, "H(Vir, M_{D,a}) = 0 for a != 0, stabilized at 10/11/12")


def test_criterion_05_density_modules_alpha_zero(vir):
    start = time.perf_counter()
    expected = {
        (1, 0): [1, 2, 1, 0],
        (0, 0): [0, 1, 2, 1],
        (-1, 0): [0, 1, 2, 1],
        (2, 0): [0, 0, 0, 0],
    }
    for (delta, alpha), dims in expected.items():
        spec = ComplexSpec(vir, build_m_delta_alpha(delta, alpha), REDUCED)
        table = truncation_sweep(spec, 3, 8)
        assert table.dims() == dims, (delta, alpha, table.dims())
        assert all(row.stabilized for row in table.rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, f"density-module dimension table exact, {elapsed:.1f}s < 300s")


def test_criterion_06_current_trivial(cur2):
    c_mod = build_trivial(1, 0)
    basic_spec = ComplexSpec(cur2, c_mod, BASIC)
    # the engine's own degree-0 subcomplex: the Lie algebra cohomology of sl2
    bidegree = graded_bidegree_dims(basic_spec, 4, 6)
    ce_dims = [bidegree.get((q, 0), 0) for q in range(5)]
    assert ce_dims == [1, 0, 0, 1, 0]
    basic = truncation_sweep(basic_spec, 3, 8)
    assert basic.dims() == [1, 0, 0, 1]
    reduced = truncation_sweep(ComplexSpec(cur2, c_mod, REDUCED), 3, 8)
    assert reduced.dims() == [1, 0, 1, 1]
    # H^q(reduced) = H^q(g) + H^(q+1)(g), with the right side computed above
    for q in range(4):
        assert reduced.dims()[q] == ce_dims[q] + ce_dims[q + 1]
    ca = truncation_sweep(ComplexSpec(cur2, build_trivial(1, 1), REDUCED), 2, 8)
    assert ca.dims() == [0, 0, 0]
    _report(6, "Cur sl2 trivial/C_a tables exact; H(sl2) from the degree-0 "
               "subcomplex")


def test_criterion_07_current_sl2_modules(cur2, sl2_g):
    dims_by_m = {}
    for m in (0, 2, 4, 6):
        mod = build_m_u(sl2_g, sl2_irrep(sl2_g, m))
        table = truncation_sweep(ComplexSpec(cur2, mod, REDUCED), 2, 8)
        dims_by_m[m] = table.dims()
    for n in range(3):
        for m in (0, 2, 4, 6):
            expect = 1 if m in (2 * n, 2 * (n - 3)) else 0
            assert dims_by_m[m][n] == expect, (n, m)
    # the n=1, m=2 class agrees with the constructed cocycle up to scale
    v2 = sl2_irrep(sl2_g, 2)
    phi = equivariant_maps(adjoint_rep(sl2_g), v2)[0]
    alpha = sl2_example_cocycle(sl2_g, v2, 1, phi_n=phi)
    mod = build_m_u(sl2_g, v2)
    spec = ComplexSpec(cur2, mod, REDUCED)
    assert verify_cocycle(spec, alpha).is_cocycle
    table = truncation_sweep(spec, 1, 8, representatives=True)
    rep = table.rows[1].representatives[0]
    columns = []
    placements = {}
    for d in range(4):
        for pair in slice_pairs(spec, 0, d):
            columns.append(cochain_coords(
                apply_differential(spec, basis_cochain(spec, 0, pair)),
                placements,
            ))
    columns.append(cochain_coords(_split_values(rep), placements))
    sol = solve_columns(columns, cochain_coords(_split_values(alpha), placements))
    assert sol is not None and sol.get(len(columns) - 1)
    _report(7, "dim H^n(Cur sl2, M_V(m)) = [m in {2n, 2(n-3)}] and the n=1 "
               "class matches the constructed cocycle")


def test_criterion_08_current_sl3_representatives(cur3, sl3_g,
                                                  sl3_wedge_quotient):
    mod_ad = build_m_u(sl3_g, adjoint_rep(sl3_g))
    values = {}
    for t in sorted_tuples(8, 1):
        vec = [RatPoly.zero()] * 8
        vec[t[0]] = L1
        values[t] = tuple(vec)
    alpha1 = Cochain(cur3, mod_ad, 1, REDUCED, values)
    res1 = verify_cocycle(ComplexSpec(cur3, mod_ad, REDUCED), alpha1)
    assert res1.is_cocycle and not res1.is_coboundary

    quot, pairs, project = sl3_wedge_quotient
    mod_q = build_m_u(sl3_g, quot)
    index = {p: k for k, p in enumerate(pairs)}
    values = {}
    for t in sorted_tuples(8, 2):
        i, j = t
        vec28 = [Fraction(0)] * 28
        if i != j:
            vec28[index[(min(i, j), max(i, j))]] = Fraction(1 if i < j else -1)
        values[t] = tuple(L1 * L2 * x for x in project(vec28))
    alpha2 = Cochain(cur3, mod_q, 2, REDUCED, values)
    assert alpha2.validate() is None
    res2 = verify_cocycle(ComplexSpec(cur3, mod_q, REDUCED), alpha2)
    assert res2.is_cocycle and not res2.is_coboundary
    _report(8, "Cur sl3 H^1/H^2 representatives: cocycles, not coboundaries")


def test_criterion_09_annihilation_bridge(vir, cur2, sl2_g):
    fixtures = [
        (vir, build_trivial(1, 0), 0, "vir/C"),
        (vir, build_m_delta_alpha(1, 0), 1, "vir/M_{1,0}"),
        (cur2, build_m_u(sl2_g, sl2_irrep(sl2_g, 2)), 1, "cur sl2/M_V(2)"),
    ]
    rng = random.Random(314)
    per_q = {0: 13, 1: 13, 2: 12, 3: 12}  # 50 per fixture
    for alg, mod, max_del, label in fixtures:
        pair_pool = [(a, m) for a in range(alg.ngens) for m in range(7)]
        for q, count in per_q.items():
            for _ in range(count):
                gamma = random_skew_cochain(alg, mod, q, 3, rng,
                                            max_del=max_del)
                dg = d_basic(gamma)
                for combo in combinations_with_replacement(pair_pool, q + 1):
                    gens = tuple(p[0] for p in combo)
                    levels = tuple(p[1] for p in combo)
                    assert phi_eval(dg, gens, levels) == ce_differential_eval(
                        gamma, gens, levels
                    ), (label, q, gens, levels)
    _report(9, "transport identity on all level tuples <= 6, q <= 3, "
               "50 cochains per fixture")


def test_criterion_10_calculus_identities(vir, cur2, sl2_g):
    c_mod = build_trivial(1, 0)
    rng = random.Random(159)

    def random_element(alg):
        return tuple(
            sum((rng.randint(-2, 2) * D ** e for e in range(3)), RatPoly.zero())
            for _ in range(alg.ngens)
        )

    fixtures = [
        (vir, c_mod, 0, 6),
        (vir, build_m_delta_alpha(2, 1), 1, 6),
        (cur2, build_m_u(sl2_g, adjoint_rep(sl2_g)), 1, 4),
        (cur2, build_trivial(1, 0), 0, 6),
    ]
    for alg, mod, max_del, degmax in fixtures:
        for q in (0, 1, 2, 3):
            gamma = random_skew_cochain(alg, mod, q, degmax, rng,
                                        max_del=max_del)
            elements = [
                tuple(RatPoly.const(1 if k == i else 0)
                      for k in range(alg.ngens))
                for i in range(alg.ngens)
            ] + [random_element(alg)]
            for a in elements:
                theta = lie_theta(a, gamma)
                parts = contract_lambda(a, d_basic(gamma))
                if q >= 1:
                    parts = parts + d_basic(contract_lambda(a, gamma))
                assert parts == theta
                assert d_basic(theta) == lie_theta(a, d_basic(gamma))
    # wedge graded commutativity and associativity over trivial coefficients
    u1 = random_skew_cochain(vir, c_mod, 1, 5, rng, density=1.0)
    u2 = random_skew_cochain(vir, c_mod, 2, 5, rng, density=1.0)
    u1b = random_skew_cochain(vir, c_mod, 1, 4, rng, density=1.0)
    assert wedge(u1, u2) == wedge(u2, u1).scale((-1) ** (1 * 2))
    assert wedge(u1, u1b) == wedge(u1b, u1).scale(-1)
    assert wedge(u1, wedge(u2, u1b)) == wedge(wedge(u1, u2), u1b)
    # homotopy identity on every homogeneous slice, q <= 4, deg <= 8
    for q in range(1, 5):
        for d in range(9):
            for elem in skew_basis(q, d, 1).elements:
                c = Cochain.from_basis_element(vir, c_mod, q, BASIC, elem, 0)
                got = d_basic(homotopy_k(c)) + homotopy_k(d_basic(c))
                assert got == c.scale(d - q)
    _report(10, "Cartan, d-theta, wedge algebra, and homotopy identities "
                "exact on the stated ranges")


def test_criterion_11_constructive_round_trips(vir, cur2, cur3, sl2_g, sl3_g,
                                               sl3_wedge_quotient):
    rng = random.Random(1793)
    c_mod = build_trivial(1, 0)
    # validity <=> cocycle, 100 mutations for vir and cur:sl2 (cur:sl3 runs
    # 12: one Jacobi sweep of the 9-generator extension costs seconds)
    outcomes = {True: 0, False: 0}
    for alg, count in ((vir, 100), (cur2, 100), (cur3, 12)):
        spec = ComplexSpec(alg, c_mod, REDUCED)
        for _ in range(count):
            gamma = random_skew_cochain(alg, c_mod, 2, 3, rng, variant=REDUCED,
                                        density=0.3 if alg is cur3 else 0.6)
            is_cocycle = verify_cocycle(spec, gamma).is_cocycle
            valid = ExtendedAlgebra(alg, c_mod, gamma).check()[0]
            assert valid == is_cocycle
            outcomes[valid] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0

    # the builtin current-algebra cocycles (the CLI's remark81 data) build
    # valid abelian extensions for sl2 and sl3
    sym2, basis2 = sym_power_rep(adjoint_rep(sl2_g), 2)
    v4 = sl2_irrep(sl2_g, 4)
    phi = equivariant_maps(sym2, v4)[0]
    idx = {b: k for k, b in enumerate(basis2)}
    poly = L1 * (D + L1) * (D + 2 * L1)
    datum = {
        (i, j): tuple(poly * phi[r][idx[tuple(sorted((i, j)))]]
                      for r in range(5))
        for i in range(3) for j in range(3)
    }
    extend_algebra(cur2, build_m_u(sl2_g, v4), datum)
    quot, pairs, project = sl3_wedge_quotient
    index = {p: k for k, p in enumerate(pairs)}
    poly3 = L1 * (D + L1)
    datum3 = {}
    for i in range(8):
        for j in range(8):
            vec28 = [Fraction(0)] * 28
            if i != j:
                vec28[index[(min(i, j), max(i, j))]] = Fraction(
                    1 if i < j else -1
                )
            datum3[(i, j)] = tuple(poly3 * x for x in project(vec28))
    extend_algebra(cur3, build_m_u(sl3_g, quot), datum3)

    # deform validity <=> 2-cocycle with adjoint coefficients
    seen = {True: 0, False: 0}
    for alg in (vir, cur2):
        adj = adjoint_module(alg)
        spec = ComplexSpec(alg, adj, REDUCED)
        for _ in range(20):
            gamma = random_skew_cochain(alg, adj, 2, 3, rng, variant=REDUCED)
            ok = deform(alg, gamma).check_jacobi_mod_eps2()[0]
            assert ok == verify_cocycle(spec, gamma).is_cocycle
            seen[ok] += 1
    assert seen[True] > 0 and seen[False] > 0

    # part 2 and part 3 extensions with constructed isomorphisms
    m10 = build_m_delta_alpha(1, 0)
    ext = extend_module_by_trivial(vir, m10, (RatPoly.const(1),))
    assert ext.check() == (True, None)
    split = extend_module_by_trivial(vir, m10, zero_vec(1))
    shifted = extend_module_by_trivial(vir, m10, (3 * D,))
    assert trivial_extension_isomorphic(split, shifted, (RatPoly.const(3),))
    m_top = build_m_delta_alpha(1, 0)
    n_bot = build_m_delta_alpha(0, 0)
    gamma_mats = [[[5 * L1]]]
    block = extend_module(vir, m_top, n_bot, gamma_mats)
    assert check_module(vir, block)[0]
    assert split_module_isomorphic(vir, m_top, n_bot, gamma_mats,
                                   [[D - RatPoly.const(2)]])
    with pytest.raises(NotACocycle):
        extend_module(vir, m_top, n_bot, [[[L1 ** 3]]])
    _report(11, "extension/deformation round-trips exact; mutations break "
                "exactly the non-cocycles")
