import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

import pytest

from confcoh import annihilation, cli
from confcoh.algebra import (
    ConformalModule,
    adjoint_module,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
)
from confcoh.annihilation import (
    _add_term,
    _divided_power,
    _phi_read,
    _vec,
    act_level_on_value,
    ann_bracket,
    canonical_phi,
    ce_differential_eval,
    level_image,
    phi_eval,
    phi_on_pool,
    v_minus_action,
)
from confcoh.cochain import (
    BASIC,
    REDUCED,
    Cochain,
    as_leibniz,
    d_basic,
    del_action,
    random_skew_cochain,
    term_sums,
)
from confcoh.extensions import extend_algebra
from confcoh.liealg import adjoint_rep, sl2, sl2_irrep, sl3
from confcoh.poly import (
    DEL,
    RatPoly,
    _mono_mul,
    exact,
    from_terms,
    lam,
    param,
    vec_is_zero,
    zero_vec,
)

VIR = build_vir()
CUR2 = build_current(sl2())
D = RatPoly.var(DEL)
L1 = RatPoly.var(lam(1))


def bracket_add(out, other, scale=1):
    for k, v in other.items():
        out[k] = out.get(k, Fraction(0)) + scale * v
    return {k: v for k, v in out.items() if v}


def test_vir_bracket_is_vector_fields():
    # [L_m, L_n] = (m - n) L_{m+n-1}
    for m in range(7):
        for n in range(7):
            got = ann_bracket(VIR, (0, m), (0, n))
            expect = {}
            if m != n:
                expect = {(0, m + n - 1): Fraction(m - n)}
            assert got == expect


def test_current_bracket_is_loop_algebra():
    g = sl2()
    for m in range(4):
        for n in range(4):
            got = ann_bracket(CUR2, (0, m), (1, n))  # [e_m, f_n]
            assert got == {(2, m + n): Fraction(1)}
            assert ann_bracket(CUR2, (0, m), (0, n)) == {}


def test_bracket_antisymmetry_and_jacobi():
    fixtures = [(VIR, 1, 6), (CUR2, 3, 4), (build_current(sl3()), 8, 2)]
    for alg, gens, max_level in fixtures:
        basis = [(i, m) for i in range(gens) for m in range(max_level + 1)]
        for x in basis:
            for y in basis:
                xy = ann_bracket(alg, x, y)
                yx = ann_bracket(alg, y, x)
                assert xy == {k: -v for k, v in yx.items()}
        rng = random.Random(19)
        for _ in range(25):
            x, y, z = (rng.choice(basis) for _ in range(3))
            lhs = {}
            for k, v in ann_bracket(alg, y, z).items():
                lhs = bracket_add(lhs, ann_bracket(alg, x, k), v)
            rhs = {}
            for k, v in ann_bracket(alg, x, y).items():
                rhs = bracket_add(rhs, ann_bracket(alg, k, z), v)
            for k, v in ann_bracket(alg, x, z).items():
                rhs = bracket_add(rhs, ann_bracket(alg, y, k), v)
            assert lhs == rhs, (x, y, z)


def test_mutated_bracket_breaks_jacobi():
    from confcoh.algebra import ConformalAlgebra

    bad = ConformalAlgebra(("L",), [[(D + 3 * L1,)]])
    # the conformal bracket fails skew-symmetry, and its level bracket
    # fails antisymmetry too
    xy = ann_bracket(bad, (0, 1), (0, 2))
    yx = ann_bracket(bad, (0, 2), (0, 1))
    assert xy != {k: -v for k, v in yx.items()}


def derivation_t(x):
    """T(a_n) = -n a_(n-1)."""
    i, m = x
    if m == 0:
        return {}
    return {(i, m - 1): Fraction(-m)}


def test_derivation_t():
    assert derivation_t((0, 3)) == {(0, 2): Fraction(-3)}
    assert derivation_t((0, 0)) == {}


def test_t_is_a_derivation_of_the_bracket():
    rng = random.Random(23)
    basis = [(0, m) for m in range(7)]
    for _ in range(20):
        x, y = rng.choice(basis), rng.choice(basis)
        lhs = {}
        for k, v in ann_bracket(VIR, x, y).items():
            lhs = bracket_add(lhs, derivation_t(k), v)
        rhs = {}
        for k, v in derivation_t(x).items():
            rhs = bracket_add(rhs, ann_bracket(VIR, k, y), v)
        for k, v in derivation_t(y).items():
            rhs = bracket_add(rhs, ann_bracket(VIR, x, k), v)
        assert lhs == rhs


def test_level_action_current_module():
    g = sl2()
    m = build_m_u(g, adjoint_rep(g))
    # a_m (u t^n) = (a u) t^{m+n} for current modules: e_2 (f t^1) = h t^3
    got = v_minus_action(m, (0, 2), (1, 1))
    assert got == {(2, 3): Fraction(1)}
    # a_0 preserves levels
    got0 = v_minus_action(m, (2, 0), (0, 4))
    assert set(lev for (_, lev) in got0) == {4}


def test_level_action_vir_density_module():
    # L_1 (v t^0) = ((d + alpha) v)_1 + (Delta v)_0
    #             = -v_0 + alpha v_1 + Delta v_0 = (Delta - 1) v_0 + alpha v_1
    m = build_m_delta_alpha(1, 0)
    assert v_minus_action(m, (0, 1), (0, 0)) == {}
    m2 = build_m_delta_alpha(3, 2)
    got = v_minus_action(m2, (0, 1), (0, 0))
    assert got == {(0, 0): Fraction(2), (0, 1): Fraction(2)}


def test_level_action_is_a_module_action():
    rng = random.Random(29)
    fixtures = [
        build_m_delta_alpha(1, 0),
        build_m_delta_alpha(2, 3),
    ]
    for m in fixtures:
        basis_g = [(0, lev) for lev in range(6)]
        basis_v = [(0, lev) for lev in range(6)]
        for _ in range(30):
            x, y = rng.choice(basis_g), rng.choice(basis_g)
            v = rng.choice(basis_v)
            lhs = {}
            for k, c in v_minus_action(m, y, v).items():
                lhs = bracket_add(lhs, v_minus_action(m, x, k), c)
            for k, c in v_minus_action(m, x, v).items():
                lhs = bracket_add(lhs, v_minus_action(m, y, k), -c)
            rhs = {}
            for k, c in ann_bracket(VIR, x, y).items():
                rhs = bracket_add(rhs, v_minus_action(m, k, v), c)
            assert lhs == rhs, (x, y, v)


def test_phi_reads_divided_power_coefficients():
    gamma = Cochain(VIR, build_trivial(1, 0), 1, BASIC, {(0,): (L1,)})
    assert phi_eval(gamma, (0,), (1,)) == (RatPoly.const(1),)
    assert phi_eval(gamma, (0,), (0,)) == (RatPoly.zero(),)
    assert phi_eval(gamma, (0,), (5,)) == (RatPoly.zero(),)
    gamma2 = Cochain(VIR, build_trivial(1, 0), 1, BASIC, {(0,): (L1 ** 3,)})
    # lam^3 = 3! lam^(3)
    assert phi_eval(gamma2, (0,), (3,)) == (RatPoly.const(6),)


def test_phi_finite_support():
    rng = random.Random(31)
    gamma = random_skew_cochain(VIR, build_trivial(1, 0), 2, 4, rng)
    bound = gamma.lam_degree()
    for levels in product(range(bound + 1, bound + 3), repeat=2):
        assert phi_eval(gamma, (0, 0), levels) == (RatPoly.zero(),)


def _pool(alg, levels):
    return [(g, m) for g in range(alg.ngens) for m in range(levels + 1)]


def _check_transport(alg, mod, qs, levels, trials, seed, max_del):
    """phi(d gamma) against the scattered continuous differential on every
    tuple of the pool, phi(d gamma) read tuple by tuple through phi_eval."""
    rng = random.Random(seed)
    pool = _pool(alg, levels)
    for q in qs:
        for _ in range(trials):
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=max_del)
            dg = d_basic(gamma)
            ce = ce_differential_eval(gamma, pool)
            for pairs in combinations_with_replacement(pool, q + 1):
                gens = tuple(p[0] for p in pairs)
                lev = tuple(p[1] for p in pairs)
                assert phi_eval(dg, gens, lev) == _vec(ce.get(pairs, {}),
                                                       mod.dim), (gens, lev)


def test_transport_identity_vir_trivial():
    _check_transport(VIR, build_trivial(1, 0), (0, 1, 2, 3), 5, 3, 37, 0)


def test_transport_identity_vir_density():
    _check_transport(VIR, build_m_delta_alpha(1, 0), (0, 1, 2), 4, 3, 41, 1)


def test_transport_identity_current_v2():
    g = sl2()
    _check_transport(
        build_current(g), build_m_u(g, sl2_irrep(g, 2)), (1, 2), 3, 2, 43, 1
    )


def del_functional_eval(gamma, gens, levels):
    """The d-action on functionals: d_M . beta(x) - sum_i beta(..., T x_i, ...)."""
    module = gamma.module
    base = phi_eval(gamma, gens, levels)
    if module.is_free():
        dpoly = RatPoly.var(DEL)
        total = tuple(dpoly * p for p in base)
    else:
        total = tuple(RatPoly.const(module.del_scalar) * p for p in base)
    for i in range(len(gens)):
        for (gen, lev), coeff in derivation_t((gens[i], levels[i])).items():
            val = phi_eval(
                gamma,
                gens[:i] + (gen,) + gens[i + 1:],
                levels[:i] + (lev,) + levels[i + 1:],
            )
            total = tuple(a - coeff * b for a, b in zip(total, val))
    return total


def test_del_transport():
    rng = random.Random(47)
    for mod, max_del in [
        (build_trivial(1, 0), 0),
        (build_trivial(1, 2), 0),
        (build_m_delta_alpha(1, 0), 1),
    ]:
        for q in (1, 2):
            gamma = random_skew_cochain(VIR, mod, q, 3, rng, max_del=max_del)
            dg = del_action(gamma)
            for levels in product(range(4), repeat=q):
                assert phi_eval(dg, (0,) * q, levels) == del_functional_eval(
                    gamma, (0,) * q, levels
                )


# -- the tabled evaluators against the reference ones ----------------------------
#
# The reference evaluators below recompute every j-th product by scanning the
# polynomial terms, and read phi through Cochain.value_on (lam relabelling by
# substitution), on every call.  The tabled evaluators must agree with them
# exactly, with Fraction coefficients.


def _jth_product_oracle(algebra, i, j, order):
    vec = algebra.table[i][j]
    out = []
    for p in vec:
        out.append(Fraction(factorial(order)) * p.coeff_of_lams((order,)))
    return tuple(out)


def _ann_bracket_oracle(algebra, x, y):
    (i, m), (j, n) = x, y
    out = {}
    for order in range(m + 1):
        prod = _jth_product_oracle(algebra, i, j, order)
        if all(not p for p in prod):
            continue
        image = level_image(prod, m + n - order)
        c = comb(m, order)
        for key, coeff in image.items():
            _add_term(out, key, c * coeff)
    return out


def _module_jth_product_oracle(module, i, j):
    mats = module.action[i]
    out = []
    for r in range(module.dim):
        out.append(
            tuple(
                Fraction(factorial(j)) * mats[r][c].coeff_of_lams((j,))
                for c in range(module.dim)
            )
        )
    return out


def _v_minus_action_oracle(module, x, vec_level):
    (i, m), (b, n) = x, vec_level
    out = {}
    for order in range(m + 1):
        mats = _module_jth_product_oracle(module, i, order)
        column = tuple(mats[r][b] for r in range(module.dim))
        if all(not p for p in column):
            continue
        image = level_image(column, m + n - order)
        c = comb(m, order)
        for key, coeff in image.items():
            _add_term(out, key, c * coeff)
    return out


def _phi_eval_oracle(gamma, gens, levels):
    value = gamma.value_on(tuple(gens))
    fact = Fraction(1)
    for m in levels:
        fact *= factorial(m)
    return tuple(fact * p.coeff_of_lams(tuple(levels)) for p in value)


def _central():
    """Vir + C with the cocycle lam^3: its second generator is torsion."""
    return extend_algebra(VIR, build_trivial(1, 0), {(0, 0): (L1 ** 3,)}).algebra


def _assert_fraction_dict(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.values())


def _assert_fraction_vec(got, want):
    assert got == want
    for p in got:
        assert all(type(c) is Fraction for c in p.terms.values())


def test_ann_bracket_matches_oracle():
    central = _central()
    assert central.del_scalars == (None, Fraction(0))
    for alg in (VIR, CUR2, central):
        basis = [(i, m) for i in range(alg.ngens) for m in range(7)]
        for x, y in product(basis, repeat=2):
            want = _ann_bracket_oracle(alg, x, y)
            # the second call reads the filled table
            first = ann_bracket(alg, x, y)
            _assert_fraction_dict(first, want)
            second = ann_bracket(alg, x, y)
            assert second is first
            _assert_fraction_dict(second, want)


def test_level_bracket_memo_survives_the_transport():
    """The continuous differential only reads the tabled level brackets: after
    it has run over a full level range, every kept dict is still the oracle's,
    and no table of the conformal differential's kernel has been filled."""
    g = sl2()
    fixtures = [
        (build_vir(), build_m_delta_alpha(1, 0), 3, 5),
        (build_current(g), build_m_u(g, sl2_irrep(g, 2)), 2, 3),
    ]
    rng = random.Random(59)
    for alg, mod, q, levels in fixtures:
        assert alg._level_brackets == {}
        pool = _pool(alg, levels)
        gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=1)
        ce = ce_differential_eval(gamma, pool)
        assert alg._read_plans == alg._bracket_expansions == {}
        assert mod._action_expansions == {}
        dg = d_basic(gamma)
        for pairs in combinations_with_replacement(pool, q + 1):
            gens = tuple(p[0] for p in pairs)
            lev = tuple(p[1] for p in pairs)
            assert _vec(ce.get(pairs, {}), mod.dim) == phi_eval(dg, gens, lev)
        kept = alg._level_brackets
        assert len(kept) == len(pool) * (len(pool) + 1) // 2
        for (x, y), got in kept.items():
            _assert_fraction_dict(got, _ann_bracket_oracle(alg, x, y))
            assert ann_bracket(alg, x, y) is got


def _act_level_oracle(module, i, m, value):
    """Action of a_m on an M-element (tuple of d-polynomials): m! [lam^m] a_lam v."""
    if not module.is_free():
        return zero_vec(module.dim)
    return _divided_power(module.act(i, RatPoly.var(lam(1)), value), m)


def _module_values(dim, rng):
    """M-elements with d-powers up to 3, Fraction coefficients, zero entries,
    and one carrying the parameter mu."""
    mu = RatPoly.var(param("mu"))
    out = [zero_vec(dim)]
    for _ in range(6):
        vec = []
        for _ in range(dim):
            p = RatPoly.zero()
            for e in range(4):
                if rng.random() < 0.6:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    p = p + c * D ** e
            vec.append(p)
        out.append(tuple(vec))
    out.append(tuple((D ** 3 - mu * D + 2) * (k + 1) for k in range(dim)))
    return out


def test_act_level_on_value_matches_oracle():
    g = sl2()
    fixtures = [
        build_m_delta_alpha(1, 0),
        build_m_delta_alpha(2, Fraction(1, 3)),
        build_m_u(g, sl2_irrep(g, 2)),
        build_m_u(g, adjoint_rep(g)),
    ]
    rng = random.Random(61)
    for mod in fixtures:
        ngens = len(mod.action)
        for value in _module_values(mod.dim, rng):
            for i, m in product(range(ngens), range(7)):
                want = _act_level_oracle(mod, i, m, value)
                _assert_fraction_vec(act_level_on_value(mod, i, m, value), want)


def test_act_level_on_value_scalar_module_is_zero():
    for mod in (build_trivial(1, 0), build_trivial(2, Fraction(5, 2))):
        value = tuple(RatPoly.const(k + 1) for k in range(mod.dim))
        for m in range(4):
            assert act_level_on_value(mod, 0, m, value) == zero_vec(mod.dim)


def test_v_minus_action_matches_oracle():
    g = sl2()
    # Vir + C acting through L, the central generator acting by zero
    central_m = ConformalModule(
        "free", 1, action=[[[D + 2 * L1]], [[RatPoly.zero()]]]
    )
    fixtures = [
        (VIR, build_m_delta_alpha(1, 0)),
        (VIR, build_m_delta_alpha(2, Fraction(1, 3))),
        (VIR, adjoint_module(VIR)),
        (CUR2, build_m_u(g, adjoint_rep(g))),
        (CUR2, build_m_u(g, sl2_irrep(g, 2))),
        (_central(), central_m),
    ]
    for alg, mod in fixtures:
        gens = [(i, m) for i in range(alg.ngens) for m in range(7)]
        vecs = [(b, n) for b in range(mod.dim) for n in range(7)]
        for x, v in product(gens, vecs):
            want = _v_minus_action_oracle(mod, x, v)
            for _ in range(2):
                _assert_fraction_dict(v_minus_action(mod, x, v), want)


def _phi_cochains():
    """Basic, reduced and Leibniz cochains, with their differentials, over
    Vir, Cur sl2 and the central extension; some with non-integral
    coefficients."""
    rng = random.Random(53)
    g = sl2()
    fixtures = [
        (VIR, build_trivial(1, 0), 0, 3),
        (VIR, build_m_delta_alpha(1, 0), 1, 3),
        (CUR2, build_m_u(g, sl2_irrep(g, 2)), 1, 2),
        (CUR2, build_trivial(1, 2), 0, 3),
        (_central(), build_trivial(1, 0), 0, 3),
    ]
    for alg, mod, max_del, qmax in fixtures:
        for q in range(qmax + 1):
            basic = random_skew_cochain(alg, mod, q, 3, rng, max_del=max_del)
            reduced = random_skew_cochain(alg, mod, q, 3, rng, variant=REDUCED)
            for c in (basic, reduced.scale(Fraction(2, 3))):
                yield c
                yield as_leibniz(c)
            if q < qmax:
                yield d_basic(basic)


def test_phi_eval_matches_oracle():
    variants = set()
    for gamma in _phi_cochains():
        variants.add(gamma.variant)
        ngens, q = gamma.algebra.ngens, gamma.q
        for gens in product(range(ngens), repeat=q):
            for levels in product(range(7), repeat=q):
                _assert_fraction_vec(phi_eval(gamma, gens, levels),
                                     _phi_eval_oracle(gamma, gens, levels))
    assert variants == {BASIC, REDUCED, "leibniz"}


def _ce_differential_oracle(gamma, gens, levels):
    """The continuous differential by RatPoly vector sums, each term read
    through the oracles above: phi through value_on, the level action
    through module.act, the level bracket by scanning the table."""
    module = gamma.module
    q1 = len(gens)
    total = zero_vec(module.dim)
    for i in range(q1):
        inner = _phi_eval_oracle(gamma, gens[:i] + gens[i + 1:],
                                 levels[:i] + levels[i + 1:])
        if vec_is_zero(inner):
            continue
        term = _act_level_oracle(module, gens[i], levels[i], inner)
        if i % 2:
            term = tuple(-p for p in term)
        total = tuple(a + b for a, b in zip(total, term))
    for i in range(q1):
        for j in range(i + 1, q1):
            bracket = _ann_bracket_oracle(gamma.algebra, (gens[i], levels[i]),
                                          (gens[j], levels[j]))
            rest_g = tuple(gens[s] for s in range(q1) if s != i and s != j)
            rest_m = tuple(levels[s] for s in range(q1) if s != i and s != j)
            acc = zero_vec(module.dim)
            for (k, lev), coeff in bracket.items():
                val = _phi_eval_oracle(gamma, (k,) + rest_g, (lev,) + rest_m)
                acc = tuple(a + coeff * b for a, b in zip(acc, val))
            if (i + j) % 2:
                acc = tuple(-p for p in acc)
            total = tuple(a + b for a, b in zip(total, acc))
    return total


def _add_level_action_oracle(acc, module, i, m, comps, scale):
    """Add scale * a_m v into ``acc`` (per component {monomial: coeff}),
    v given by its per-component {monomial: coeff}:
    a_m v = sum_{s <= m} binom(m, s) a_(s) d^(m-s) v, the derivatives taken
    in d term by term, d^e -> e!/(e-r)! d^(e-r)."""
    for u, comp in enumerate(comps):
        for mono, c in comp.items():
            e = mono[0][1] if mono and mono[0][0] == DEL else 0
            rest = mono[1:] if e else mono
            fall = scale * c
            for r in range(min(e, m) + 1):
                if r:
                    fall *= e - r + 1
                left = e - r
                dmono = ((DEL, left),) + rest if left else rest
                coeff = comb(m, r) * fall
                for out, row in zip(
                        acc, annihilation.module_jth_product(module, i, m - r)):
                    entry = row[u]
                    if not entry:
                        continue
                    for m1, c1 in entry.terms.items():
                        key = _mono_mul(m1, dmono)
                        out[key] = out.get(key, 0) + coeff * c1


def _ce_differential_eval_oracle(gamma, gens, levels):
    """The continuous Chevalley-Eilenberg differential of phi(gamma) at one
    level tuple, gathered term by term: q+1 module reads and C(q+1, 2)
    bracket reads.  The module and the bracket are read through the
    ``annihilation`` module, so a test that patches them patches this too."""
    module = gamma.module
    gens, levels = tuple(gens), tuple(levels)
    q1 = len(gens)
    acc = [{} for _ in range(module.dim)]
    if module.is_free():
        for i in range(q1):
            read = _phi_read(gamma, gens[:i] + gens[i + 1:],
                             levels[:i] + levels[i + 1:])
            if read is not None:
                sign, comps = read
                _add_level_action_oracle(acc, module, gens[i], levels[i],
                                         comps, -sign if i % 2 else sign)
    for i in range(q1):
        for j in range(i + 1, q1):
            bracket = annihilation.ann_bracket(
                gamma.algebra, (gens[i], levels[i]), (gens[j], levels[j]))
            if not bracket:
                continue
            rest_g = gens[:i] + gens[i + 1:j] + gens[j + 1:]
            rest_m = levels[:i] + levels[i + 1:j] + levels[j + 1:]
            pair_sign = -1 if (i + j) % 2 else 1
            for (k, lev), coeff in bracket.items():
                read = _phi_read(gamma, (k,) + rest_g, (lev,) + rest_m)
                if read is None:
                    continue
                sign, comps = read
                c = exact(coeff) * sign * pair_sign
                for out, comp in zip(acc, comps):
                    for mono, v in comp.items():
                        out[mono] = out.get(mono, 0) + c * v
    return tuple(map(from_terms, acc))


def test_per_tuple_oracle_matches_ratpoly_oracle():
    """Vir/C, Vir/M_{2,1} and Cur sl2/M_ad, values with d-powers, every
    ordering of the generators (unsorted tuples too), and each cochain also
    scaled by 2/3 and stored on all tuples (Leibniz)."""
    rng = random.Random(79)
    g = sl2()
    fixtures = [
        (VIR, build_trivial(1, 0), 0, 3, 4),
        (VIR, build_m_delta_alpha(2, 1), 2, 2, 4),
        (CUR2, build_m_u(g, adjoint_rep(g)), 1, 2, 2),
    ]
    variants = set()
    nonzero = 0
    for alg, mod, max_del, qmax, top in fixtures:
        for q in range(qmax + 1):
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=max_del)
            for c in (gamma, as_leibniz(gamma.scale(Fraction(2, 3)))):
                variants.add(c.variant)
                for gens in product(range(alg.ngens), repeat=q + 1):
                    for lev in product(range(top + 1), repeat=q + 1):
                        got = _ce_differential_eval_oracle(c, gens, lev)
                        _assert_fraction_vec(
                            got, _ce_differential_oracle(c, gens, lev))
                        nonzero += not vec_is_zero(got)
    assert variants == {BASIC, "leibniz"}
    assert nonzero >= 800


def _transport_fixtures():
    """(algebra, module, max_del, levels, qs, max_deg): free modules with int
    and Fraction parameters, scalar modules (no module term), and Cur sl3
    with its adjoint, whose q = 3 cochains keep to degree 1."""
    g2, g3 = sl2(), sl3()
    cur3 = build_current(g3)
    ad3 = build_m_u(g3, adjoint_rep(g3))
    qs = (0, 1, 2, 3)
    return [
        (VIR, build_trivial(1, 0), 0, 4, qs, 3),
        (VIR, build_m_delta_alpha(1, 0), 1, 4, qs, 3),
        (VIR, build_m_delta_alpha(Fraction(-1, 2), Fraction(3, 4)), 1, 4, qs, 3),
        (VIR, build_trivial(1, -2), 0, 4, qs, 3),
        (CUR2, build_trivial(1, 2), 0, 3, qs, 3),
        (CUR2, build_m_u(g2, sl2_irrep(g2, 2)), 1, 3, qs, 3),
        (CUR2, build_m_u(g2, sl2_irrep(g2, 4)), 1, 2, qs, 3),
        (cur3, ad3, 1, 2, (0, 1, 2), 3),
        (cur3, ad3, 1, 2, (3,), 1),
    ]


def test_ce_differential_eval_matches_oracle():
    """The scattered functional equals the per-tuple oracle on every tuple of
    the pool, repeated pairs included, and phi_on_pool of the kernel's sums
    equals phi_eval of d gamma there."""
    rng = random.Random(83)
    repeated = nonzero = 0
    for alg, mod, max_del, levels, qs, max_deg in _transport_fixtures():
        pool = _pool(alg, levels)
        for q in qs:
            gamma = random_skew_cochain(alg, mod, q, max_deg, rng,
                                        max_del=max_del)
            dg = d_basic(gamma)
            ce = ce_differential_eval(gamma, pool)
            lhs = phi_on_pool(term_sums(alg, mod, q, BASIC,
                                        gamma.kernel_terms()), pool)
            for pairs in combinations_with_replacement(pool, q + 1):
                gens = tuple(p[0] for p in pairs)
                lev = tuple(p[1] for p in pairs)
                want = _ce_differential_eval_oracle(gamma, gens, lev)
                _assert_fraction_vec(_vec(ce.get(pairs, {}), mod.dim), want)
                assert _vec(lhs.get(pairs, {}), mod.dim) == phi_eval(dg, gens,
                                                                     lev)
                repeated += len(set(pairs)) < len(pairs)
                nonzero += pairs in ce
            tuples = set(combinations_with_replacement(pool, q + 1))
            assert set(ce) <= tuples and set(lhs) <= tuples
    assert repeated > 0 and nonzero >= 1000


def test_canonical_phi_refuses_a_non_skew_cochain():
    """On a repeated-generator tuple the reads of one support tuple must agree
    up to sign; a cochain whose reads disagree, lack a partner or sit on a
    repeated pair raises, in canonical_phi and in the functional."""
    mod = build_trivial(1, 0)
    L2 = RatPoly.var(lam(2))
    good = Cochain(VIR, mod, 2, BASIC, {(0, 0): (L1 - L2,)})
    assert canonical_phi(good) == {((0, 0), (0, 1)): {(0, ()): -1}}
    for value in (L1 - 2 * L2, L1, L1 * L2):
        bad = Cochain(VIR, mod, 2, BASIC, {(0, 0): (value,)})
        with pytest.raises(AssertionError):
            canonical_phi(bad)
        with pytest.raises(AssertionError):
            ce_differential_eval(bad, _pool(VIR, 3))


# -- injected faults: the CLI and the per-tuple oracle fail at one tuple ----------


def _oracle_first_failure(algebra_spec, module_spec, qmax, levels, seed):
    """The first (q, gens, levels) at which annih-compare's comparison fails
    when the continuous side is gathered tuple by tuple through the oracle."""
    algebra, name, g = cli.parse_algebra(algebra_spec)
    module, _ = cli.parse_module(module_spec, name, g)
    rng = random.Random(seed)
    pool = _pool(algebra, levels)
    for q in range(qmax + 1):
        for _ in range(3):
            gamma = random_skew_cochain(algebra, module, q, 3, rng,
                                        max_del=1 if module.is_free() else 0)
            dg = d_basic(gamma)
            for pairs in combinations_with_replacement(pool, q + 1):
                gens = tuple(p[0] for p in pairs)
                lev = tuple(p[1] for p in pairs)
                if phi_eval(dg, gens, lev) != _ce_differential_eval_oracle(
                        gamma, gens, lev):
                    return {"q": q, "gens": list(gens), "levels": list(lev)}
    return None


def _patched_bracket(monkeypatch, key, extra):
    real = annihilation.ann_bracket

    def bracket(algebra, x, y):
        out = real(algebra, x, y)
        if (x, y) == key:
            out = dict(out)
            for z, c in extra.items():
                out[z] = out.get(z, 0) + c
        return out

    monkeypatch.setattr(annihilation, "ann_bracket", bracket)


def _patched_module_product(monkeypatch, key):
    real = annihilation.module_jth_product

    def product(module, i, j):
        rows = real(module, i, j)
        if (i, j) == key:
            rows = [tuple(p + 1 if c == 0 else p for c, p in enumerate(row))
                    for row in rows]
        return rows

    monkeypatch.setattr(annihilation, "module_jth_product", product)


@pytest.mark.parametrize("fault, algebra, module", [
    (lambda mp: _patched_bracket(mp, ((0, 1), (0, 3)), {(0, 2): 1}),
     "vir", "mda:1,0"),
    (lambda mp: _patched_bracket(mp, ((0, 2), (0, 2)), {(0, 3): 1}),
     "vir", "trivial"),
    (lambda mp: _patched_bracket(mp, ((1, 1), (1, 1)), {(2, 2): 1}),
     "cur:sl2", "mu:V2"),
    (lambda mp: _patched_module_product(mp, (0, 1)), "vir", "mda:1,0"),
    (lambda mp: _patched_module_product(mp, (2, 0)), "cur:sl2", "mu:V2"),
], ids=["bracket", "vir-self-bracket", "cur-self-bracket", "vir-module",
        "cur-module"])
def test_injected_faults_fail_where_the_oracle_fails(monkeypatch, capsys, fault,
                                                     algebra, module):
    fault(monkeypatch)
    args = (algebra, module, 2, 3, 5)
    want = _oracle_first_failure(*args)
    assert want is not None
    code = cli.main(["annih-compare", "--algebra", algebra, "--module", module,
                     "--qmax", "2", "--levels", "3", "--seed", "5"])
    got = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_AXIOM
    assert got == {"identity": "annihilation-transport", "ok": False, **want}
