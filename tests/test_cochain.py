import random
from fractions import Fraction

import pytest

from confcoh.algebra import (
    ConformalModule,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
    dual_numbers_current,
    regular_bimodule,
)
from confcoh.calculus import contract_lambda
from confcoh.cochain import (
    BASIC,
    CYCLIC,
    HOCHSCHILD,
    HOCHSCHILD_REDUCED,
    LEIBNIZ,
    REDUCED,
    Cochain,
    _d_lie,
    _d_values,
    all_tuples,
    as_leibniz,
    cochain_from_obj,
    cochain_to_obj,
    cyclic_symmetrize,
    d_basic,
    d_cyclic,
    d_hochschild,
    d_leibniz,
    d_reduced,
    del_action,
    differential,
    lam_sum,
    lam_var,
    random_plain_cochain,
    random_skew_cochain,
    reduce_cochain,
    sorted_tuples,
)
from confcoh.errors import WrongModuleKind
from confcoh.extensions import extend_algebra
from confcoh.liealg import adjoint_rep, sl2, sl2_irrep, sl3
from confcoh.poly import (
    DEL,
    RatPoly,
    lam,
    mat_apply,
    mat_subst,
    param,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_subst,
    zero_vec,
)
from confcoh.skew import skew_basis

D = RatPoly.var(DEL)
L1, L2, L3 = (RatPoly.var(lam(i)) for i in (1, 2, 3))

VIR = build_vir()
C = build_trivial(1, 0)
CA = build_trivial(1, 1)
M10 = build_m_delta_alpha(1, 0)


def vir_c_cochain(q, poly, variant=BASIC):
    return Cochain(VIR, C, q, variant, {(0,) * q: (poly,)})


def lam_cochain():
    return vir_c_cochain(1, L1)


def vandermonde3():
    return (L1 - L2) * (L1 - L3) * (L2 - L3)


# -- evaluation rules ---------------------------------------------------------


def test_eval_antilinearity_first_power():
    c = vir_c_cochain(1, RatPoly.const(1))
    assert c.eval_on_elements([(D,)]) == (-L1,)


def test_eval_antilinearity_second_power():
    c = vir_c_cochain(1, RatPoly.const(1))
    assert c.eval_on_elements([(D ** 2,)]) == (L1 ** 2,)


def test_composite_slot_parameter_identity():
    # feeding [a_lam b] with slot parameter lam+mu equals feeding
    # [a_{-d-mu} b]: antilinearity makes the two readings agree
    rng = random.Random(3)
    ext_a = RatPoly.var(param("exta"))
    ext_b = RatPoly.var(param("extb"))
    gamma = random_skew_cochain(VIR, M10, 2, 4, rng, max_del=2)
    bracket = VIR.table[0][0]
    via_lam = tuple(p.subst_many({lam(1): ext_a}) for p in bracket)
    via_del = tuple(p.subst_many({lam(1): -D - ext_b}) for p in bracket)
    slot_param = ext_a + ext_b
    lhs = gamma.slot_insert(via_lam, slot_param, (0,), [L1], pos=0)
    rhs = gamma.slot_insert(via_del, slot_param, (0,), [L1], pos=0)
    assert lhs == rhs


def test_value_on_permutation_rule():
    cur = build_current(sl2())
    rng = random.Random(5)
    gamma = random_skew_cochain(cur, build_trivial(1, 0), 2, 3, rng)
    v01 = gamma.value_on((0, 1))
    v10 = gamma.value_on((1, 0))
    swap = {lam(1): L2, lam(2): L1}
    assert v10 == tuple(-p.subst_many(swap) for p in v01)


# -- the Lie differential -------------------------------------------------------


def test_d_basic_vir_c_q1():
    got = d_basic(lam_cochain())
    assert got.values[(0, 0)] == (L2 ** 2 - L1 ** 2,)


def test_d_basic_q0_is_module_action():
    c = Cochain(VIR, M10, 0, BASIC, {(): (RatPoly.const(1),)})
    got = d_basic(c)
    assert got.values[(0,)] == (D + L1,)


def test_d_basic_vandermonde_is_closed():
    c = vir_c_cochain(3, vandermonde3())
    assert d_basic(c).is_zero()


def test_d_basic_output_is_skew():
    cur = build_current(sl2())
    rng = random.Random(11)
    for q in (1, 2):
        gamma = random_skew_cochain(cur, build_m_u(sl2(), adjoint_rep(sl2())), q, 3, rng)
        assert d_basic(gamma).validate() is None


def test_d_squared_zero_basic_samples():
    rng = random.Random(23)
    fixtures = [
        (VIR, C),
        (VIR, CA),
        (VIR, M10),
        (build_current(sl2()), build_trivial(1, 0)),
        (build_current(sl2()), build_m_u(sl2(), adjoint_rep(sl2()))),
    ]
    for alg, mod in fixtures:
        for q in (0, 1, 2):
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=1)
            assert d_basic(d_basic(gamma)).is_zero()


def test_d_reduced_mda_unit_cochain():
    # paper closed form: d(1) = (Delta-1)(lam1 - lam2) for M_{Delta,alpha=0}
    for delta in (0, 1, 2):
        m = build_m_delta_alpha(delta, 0)
        c = Cochain(VIR, m, 1, REDUCED, {(0,): (RatPoly.const(1),)})
        got = d_reduced(c)
        expect = (delta - 1) * (L1 - L2)
        if expect:
            assert got.values[(0, 0)] == (expect,)
        else:
            assert got.is_zero()


def test_d_reduced_vir_c_p1_to_p2():
    c = vir_c_cochain(1, L1 ** 2, variant=REDUCED)
    got = d_reduced(c)
    p2 = (L1 + L2) * (L1 ** 2 - L2 ** 2)
    assert got.values[(0, 0)] == (-p2,)


def test_d_reduced_vir_c_cubic_to_p3():
    # the two-sum differential sends lam1^3 - lam2^3 to minus
    # (lam1+lam2+lam3) * Vandermonde: checked by hand at (2,1,0) and (3,1,0)
    c = vir_c_cochain(2, L1 ** 3 - L2 ** 3, variant=REDUCED)
    got = d_reduced(c)
    p3 = (L1 + L2 + L3) * vandermonde3()
    assert got.values[(0, 0, 0)] == (-p3,)


def test_reduce_examples():
    c = Cochain(VIR, M10, 1, BASIC, {(0,): (D + L1,)})
    assert reduce_cochain(c).is_zero()
    c2 = Cochain(VIR, M10, 1, BASIC, {(0,): (L1 ** 2,)})
    assert reduce_cochain(c2).values == {(0,): (L1 ** 2,)}
    m = build_m_delta_alpha(2, 3)
    c3 = Cochain(VIR, m, 1, BASIC, {(0,): (D + 3 + 2 * L1,)})
    assert reduce_cochain(c3).values[(0,)] == (3 + L1,)


def test_reduce_rejects_scalar_modules():
    with pytest.raises(WrongModuleKind):
        reduce_cochain(vir_c_cochain(1, L1))


def test_reduce_compatible_with_differential():
    rng = random.Random(31)
    for mod in (M10, build_m_delta_alpha(-1, 2)):
        for q in (0, 1, 2):
            gamma = random_skew_cochain(VIR, mod, q, 3, rng, max_del=2)
            left = reduce_cochain(d_basic(gamma))
            right = d_reduced(reduce_cochain(gamma))
            assert left == right


def test_del_action_values():
    c = vir_c_cochain(2, L1 - L2)
    assert del_action(c).values[(0, 0)] == ((L1 + L2) * (L1 - L2),)
    c2 = Cochain(VIR, CA, 1, BASIC, {(0,): (RatPoly.const(1),)})
    assert del_action(c2).values[(0,)] == (1 + L1,)
    c3 = Cochain(VIR, M10, 0, BASIC, {(): (RatPoly.const(1),)})
    assert del_action(c3).values[()] == (D,)


def test_del_action_commutes_with_differential():
    rng = random.Random(37)
    for alg, mod in [(VIR, M10), (VIR, CA), (build_current(sl2()), build_trivial(1, 0))]:
        for q in (1, 2):
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=1)
            assert d_basic(del_action(gamma)) == del_action(d_basic(gamma))


def test_del_action_injective_on_slice_bases():
    for alg, mod in [(VIR, C), (VIR, CA), (VIR, M10)]:
        for q in (1, 2):
            for d in range(4):
                for elem in skew_basis(q, d, alg.ngens).elements:
                    c = Cochain.from_basis_element(alg, mod, q, BASIC, elem, 0)
                    assert not del_action(c).is_zero()


def _d_lie_oracle(c):
    """The two-sum differential through slot_insert / value_with_params /
    RatPoly substitution, term by term, on every sorted output tuple: the
    reference for _d_lie."""
    A, M, q = c.algebra, c.module, c.q
    out_q = q + 1
    values = {}
    module_acts = M.is_free()
    # a bracket term reads a stored tuple containing the other q - 1 slots
    near = {key[:s] + key[s + 1:] for key in c.values for s in range(q)}
    for T in sorted_tuples(A.ngens, out_q):
        total = zero_vec(M.dim)
        if module_acts:
            for i in range(out_q):
                rest = T[:i] + T[i + 1:]
                inner = c.value_on(rest)
                if vec_is_zero(inner):
                    continue
                relabel = {
                    lam(s + 1): lam_var(s + 2) for s in range(i, q)
                }
                if relabel:
                    inner = vec_subst(inner, relabel)
                term = M.act(T[i], lam_var(i + 1), inner)
                if i % 2:
                    term = vec_scale(-1, term)
                total = vec_add(total, term)
        for i in range(out_q):
            for j in range(i + 1, out_q):
                if T[:i] + T[i + 1:j] + T[j + 1:] not in near:
                    continue
                br = A.table[T[i]][T[j]]
                if all(not p for p in br):
                    continue
                if i > 0:
                    br = tuple(p.subst_many({lam(1): lam_var(i + 1)}) for p in br)
                fparam = lam_var(i + 1) + lam_var(j + 1)
                rest_gens = tuple(T[s] for s in range(out_q) if s != i and s != j)
                rest_params = [
                    lam_var(s + 1) for s in range(out_q) if s != i and s != j
                ]
                term = c.slot_insert(br, fparam, rest_gens, rest_params, pos=0)
                if (i + j) % 2:
                    term = vec_scale(-1, term)
                total = vec_add(total, term)
        if not vec_is_zero(total):
            values[T] = total
    return values


def _assert_equal_exactly(got, want):
    """Equal value dicts with Fraction coefficients; 1 if nonzero."""
    assert got == want
    for vec in got.values():
        for p in vec:
            assert all(type(x) is Fraction for x in p.terms.values())
    return int(bool(got))


def _assert_matches_oracle(c):
    _assert_equal_exactly(_d_values(_d_lie(c), c.q + 1), _d_lie_oracle(c))


def _oracle_fixtures():
    cur2, cur3 = build_current(sl2()), build_current(sl3())
    central = extend_algebra(VIR, C, {(0, 0): (L1 ** 3,)}).algebra
    # (algebra, module, highest lam-degree per q)
    return [
        (VIR, C, 4),
        (VIR, build_trivial(1, 3), 3),
        (VIR, build_trivial(1, Fraction(1, 2)), 3),
        (VIR, M10, 3),
        (VIR, build_m_delta_alpha(2, Fraction(1, 3)), 3),
        (cur2, C, 2),
        (cur2, build_m_u(sl2(), adjoint_rep(sl2())), 1),
        (cur3, C, 1),
        (central, C, 2),  # a torsion generator: d acts on it by 0
    ]


def test_table_driven_d_lie_matches_oracle_on_bases():
    checked = 0
    for alg, mod, dmax in _oracle_fixtures():
        for q in range(4):
            for d in range(dmax + 1):
                for elem in skew_basis(q, d, alg.ngens).elements:
                    for u in range(mod.dim):
                        for variant in (BASIC, REDUCED):
                            base = Cochain.from_basis_element(
                                alg, mod, q, variant, elem, u
                            )
                            _assert_matches_oracle(base)
                            checked += 1
                        if mod.is_free():
                            for e in (1, 2):
                                _assert_matches_oracle(base.copy_with(
                                    variant=BASIC,
                                    values={t: tuple(D ** e * p for p in v)
                                            for t, v in base.values.items()},
                                ))
                                checked += 1
    assert checked > 500


def test_table_driven_d_lie_matches_oracle_with_parameters():
    # contract_lambda outputs carry the external parameter mu in their values
    rng = random.Random(67)
    mu = param("mu")
    with_mu = 0
    for alg, mod, _ in _oracle_fixtures():
        for q in (1, 2, 3):
            gamma = random_skew_cochain(
                alg, mod, q, 2, rng, max_del=1 if mod.is_free() else 0,
            )
            _assert_matches_oracle(gamma)
            for i in range(alg.ngens):
                a = tuple(
                    RatPoly.const(1 if k == i else 0) for k in range(alg.ngens)
                )
                a = tuple(p * (1 + D) if k == i else p for k, p in enumerate(a))
                contracted = contract_lambda(a, gamma)
                _assert_matches_oracle(contracted)
                with_mu += any(
                    mu in p.variables()
                    for v in contracted.values.values() for p in v
                )
    assert with_mu > 20


def _d_reduced_oracle(c):
    """The former d_reduced: the differential's values, then the cut
    d := -(lam1 + ... + lam_{q+1}) by RatPoly substitution."""
    values = _d_values(_d_lie(c), c.q + 1)
    if c.module.is_free():
        cut = {DEL: -lam_sum(c.q + 1)}
        values = {t: vec_subst(v, cut) for t, v in values.items()}
    return c.copy_with(values=values, q=c.q + 1)


def test_d_reduced_cut_matches_oracle():
    # random reduced cochains and their contractions, whose values carry the
    # external parameter mu next to d; the cut must keep mu in place
    rng = random.Random(71)
    mu = param("mu")
    g = sl2()
    fixtures = _oracle_fixtures() + [
        (build_current(g), build_m_u(g, sl2_irrep(g, 4)), 1),
    ]
    cut = with_mu = 0
    for alg, mod, _ in fixtures:
        for q in (0, 1, 2, 3):
            gamma = random_skew_cochain(alg, mod, q, 2, rng, variant=REDUCED)
            inputs = [gamma]
            for i in range(alg.ngens if q else 0):
                a = tuple(
                    RatPoly.const(1) + D if k == i else RatPoly.zero()
                    for k in range(alg.ngens)
                )
                inputs.append(contract_lambda(a, gamma))
            for c in inputs:
                got = d_reduced(c)
                _assert_equal_exactly(got.values, _d_reduced_oracle(c).values)
                cut += mod.is_free() and not got.is_zero()
                with_mu += any(mu in p.variables()
                               for v in got.values.values() for p in v)
    assert cut > 25 and with_mu > 40


# -- Leibniz -------------------------------------------------------------------


def test_leibniz_agrees_with_basic_on_skew():
    rng = random.Random(41)
    for q in (1, 2, 3):
        gamma = random_skew_cochain(VIR, C, q, 4, rng)
        assert d_leibniz(as_leibniz(gamma)) == as_leibniz(d_basic(gamma))
    cur = build_current(sl2())
    for q in (1, 2):
        gamma = random_skew_cochain(cur, build_trivial(1, 0), q, 3, rng)
        assert d_leibniz(as_leibniz(gamma)) == as_leibniz(d_basic(gamma))


def test_leibniz_d_squared_zero_on_plain_cochains():
    rng = random.Random(43)
    for alg, mod in [(VIR, C), (VIR, M10), (build_current(sl2()), build_trivial(1, 0))]:
        for q in (1, 2):
            gamma = random_plain_cochain(alg, mod, q, 4, rng)
            assert d_leibniz(d_leibniz(gamma)).is_zero()


def _d_leibniz_oracle(c):
    """d_leibniz through slot_insert / value_with_params / M.act, term by
    term, on every ordered output tuple: the reference for d_leibniz."""
    A, M, q = c.algebra, c.module, c.q
    out_q = q + 1
    values = {}
    module_acts = M.is_free()
    for T in all_tuples(A.ngens, out_q):
        total = zero_vec(M.dim)
        if module_acts:
            for i in range(out_q):
                rest = T[:i] + T[i + 1:]
                inner = c.value_on(rest)
                if vec_is_zero(inner):
                    continue
                relabel = {lam(s + 1): lam_var(s + 2) for s in range(i, q)}
                if relabel:
                    inner = vec_subst(inner, relabel)
                term = M.act(T[i], lam_var(i + 1), inner)
                if i % 2:
                    term = vec_scale(-1, term)
                total = vec_add(total, term)
        for i in range(out_q):
            for j in range(i + 1, out_q):
                br = A.table[T[i]][T[j]]
                if all(not p for p in br):
                    continue
                if i > 0:
                    br = tuple(p.subst_many({lam(1): lam_var(i + 1)}) for p in br)
                fparam = lam_var(i + 1) + lam_var(j + 1)
                rest_gens = tuple(T[s] for s in range(out_q) if s != i and s != j)
                rest_params = [
                    lam_var(s + 1) for s in range(out_q) if s != i and s != j
                ]
                term = c.slot_insert(br, fparam, rest_gens, rest_params, pos=j - 1)
                if (i + 1) % 2:
                    term = vec_scale(-1, term)
                total = vec_add(total, term)
        if not vec_is_zero(total):
            values[T] = total
    return c.copy_with(values=values, q=out_q)


def test_d_leibniz_matches_oracle():
    rng = random.Random(71)
    nonzero = 0
    for alg, mod in [(VIR, C), (VIR, M10), (VIR, build_trivial(1, 3)),
                     (build_current(sl2()), C)]:
        for q in range(4):
            plain = [random_plain_cochain(alg, mod, q, 4, rng, density=0.9)
                     for _ in range(2)]
            skew = [as_leibniz(random_skew_cochain(
                alg, mod, q, 3, rng, max_del=1 if mod.is_free() else 0,
            )) for _ in range(2)]
            for gamma in plain + skew:
                assert gamma.variant == LEIBNIZ
                nonzero += _assert_equal_exactly(
                    d_leibniz(gamma).values, _d_leibniz_oracle(gamma).values
                )
    assert nonzero > 30


# -- Hochschild and cyclic -------------------------------------------------------


def test_hochschild_d_squared_zero():
    alg = dual_numbers_current()
    bim = regular_bimodule(alg)
    rng = random.Random(47)
    for q in (0, 1, 2):
        gamma = random_plain_cochain(alg, bim, q, 4, rng, variant=HOCHSCHILD)
        assert d_hochschild(d_hochschild(gamma)).is_zero()


def test_cyclic_symmetrization_and_invariance():
    alg = dual_numbers_current()
    c_mod = build_trivial(1, 0)
    rng = random.Random(53)
    for q in (1, 2, 3):
        raw = random_plain_cochain(alg, c_mod, q, 4, rng, variant=CYCLIC)
        gamma = cyclic_symmetrize(raw)
        assert gamma.validate() is None


def test_cyclic_differential_preserves_invariance_and_squares_to_zero():
    alg = dual_numbers_current()
    c_mod = build_trivial(1, 0)
    rng = random.Random(59)
    for q in (1, 2):
        gamma = cyclic_symmetrize(
            random_plain_cochain(alg, c_mod, q, 3, rng, variant=CYCLIC)
        )
        dg = d_cyclic(gamma)
        assert dg.validate() is None
        assert d_cyclic(dg).is_zero()


def _d_hochschild_oracle(c):
    """d_hochschild through M.act / slot_insert / RatPoly substitution, term
    by term: the reference for d_hochschild."""
    A, M, q = c.algebra, c.module, c.q
    if not A.associative:
        raise ValueError("Hochschild differential needs an associative algebra")
    if M.right_action is None:
        raise WrongModuleKind("Hochschild cochains need a bimodule")
    out_q = q + 1
    values = {}
    for T in all_tuples(A.ngens, out_q):
        total = zero_vec(M.dim)
        # a1 acting on the left
        rest = T[1:]
        inner = c.value_on(rest)
        if not vec_is_zero(inner):
            relabel = {lam(s + 1): lam_var(s + 2) for s in range(q)}
            inner = vec_subst(inner, relabel) if relabel else inner
            total = vec_add(total, M.act(T[0], lam_var(1), inner))
        # adjacent products
        for s in range(q):
            prod = A.table[T[s]][T[s + 1]]
            if all(not p for p in prod):
                continue
            if s > 0:
                prod = tuple(p.subst_many({lam(1): lam_var(s + 1)}) for p in prod)
            fparam = lam_var(s + 1) + lam_var(s + 2)
            rest_gens = T[:s] + T[s + 2:]
            rest_params = [lam_var(r + 1) for r in range(s)] + [
                lam_var(r + 1) for r in range(s + 2, out_q)
            ]
            term = c.slot_insert(prod, fparam, rest_gens, rest_params, pos=s)
            if (s + 1) % 2:
                term = vec_scale(-1, term)
            total = vec_add(total, term)
        # right action at -d - lam_{q+1}
        val = c.value_on(T[:q])
        if not vec_is_zero(val):
            shifted = vec_subst(val, {DEL: D + lam_var(out_q)})
            mat = mat_subst(
                M.right_action[T[q]], {lam(1): -D - lam_var(out_q)}
            )
            term = mat_apply(mat, shifted)
            if out_q % 2:
                term = vec_scale(-1, term)
            total = vec_add(total, term)
        if not vec_is_zero(total):
            values[T] = total
    if c.variant == HOCHSCHILD_REDUCED:
        cut = {DEL: -sum((lam_var(s + 1) for s in range(out_q)), RatPoly.zero())}
        values = {t: vec_subst(v, cut) for t, v in values.items()}
    return c.copy_with(values=values, q=out_q)


def _d_cyclic_oracle(c):
    """d_cyclic through slot_insert / RatPoly substitution, term by term:
    the reference for d_cyclic."""
    A, q = c.algebra, c.q
    if not A.associative:
        raise ValueError("cyclic differential needs an associative algebra")
    n = q - 1
    out_q = q + 1
    values = {}
    for T in all_tuples(A.ngens, out_q):
        total = zero_vec(c.module.dim)
        for s in range(q):
            prod = A.table[T[s]][T[s + 1]]
            if all(not p for p in prod):
                continue
            if s > 0:
                prod = tuple(p.subst_many({lam(1): lam_var(s + 1)}) for p in prod)
            fparam = lam_var(s + 1) + lam_var(s + 2)
            rest_gens = T[:s] + T[s + 2:]
            rest_params = [lam_var(r + 1) for r in range(s)] + [
                lam_var(r + 1) for r in range(s + 2, out_q)
            ]
            term = c.slot_insert(prod, fparam, rest_gens, rest_params, pos=s)
            if s % 2:
                term = vec_scale(-1, term)
            total = vec_add(total, term)
        prod = A.table[T[out_q - 1]][T[0]]
        if any(p for p in prod):
            prod = tuple(p.subst_many({lam(1): lam_var(out_q)}) for p in prod)
            fparam = lam_var(out_q) + lam_var(1)
            rest_gens = T[1:out_q - 1]
            rest_params = [lam_var(r + 1) for r in range(1, out_q - 1)]
            term = c.slot_insert(prod, fparam, rest_gens, rest_params, pos=0)
            if (n + 1) % 2:
                term = vec_scale(-1, term)
            total = vec_add(total, term)
        if not vec_is_zero(total):
            values[T] = total
    return c.copy_with(values=values, q=out_q)


def _lam_del_bimodule():
    """A rank-2 module over the dual numbers whose left and right matrices
    depend on lam1 and d.  It is no bimodule (the axioms fail), but the
    differential and its oracle are compared as algebraic identities, and
    the right action's lam1 := -d - lam_{q+1} shift is exercised only by
    matrices that carry lam1 and d."""
    half = Fraction(1, 2)
    left = [
        [[D + L1, half * L1 ** 2], [1 - D * L1, 3 * D ** 2]],
        [[L1 * D, RatPoly.const(2)], [D - 2 * L1, half * L1]],
    ]
    right = [
        [[L1 - D, D * L1 ** 2], [RatPoly.const(-3), half * D + L1]],
        [[L1 ** 2 + D, half - L1], [D ** 2 * L1, 2 * L1 * D - 1]],
    ]
    return ConformalModule("free", 2, action=left, right_action=right)


def test_d_hochschild_matches_oracle(mat2_current):
    rng = random.Random(73)
    nonzero = 0
    dual = dual_numbers_current()
    # the dual numbers, and Cur M_2(Q), where the order of a product
    # matters, on their regular bimodules; the dual numbers again on
    # matrices in lam1 and d
    for alg, bim in ((dual, regular_bimodule(dual)),
                     (mat2_current, regular_bimodule(mat2_current)),
                     (dual, _lam_del_bimodule())):
        for variant in (HOCHSCHILD, HOCHSCHILD_REDUCED):
            for q in range(4):
                for e in (0, 0, 1, 1, 2):  # values carrying d^e: the shifts
                    gamma = random_plain_cochain(alg, bim, q, 4, rng,
                                                 variant=variant)
                    gamma = gamma.copy_with(values={
                        t: tuple(D ** e * p for p in v)
                        for t, v in gamma.values.items()
                    })
                    nonzero += _assert_equal_exactly(
                        d_hochschild(gamma).values,
                        _d_hochschild_oracle(gamma).values,
                    )
    assert nonzero > 50


def test_d_cyclic_matches_oracle(mat2_current):
    c_mod = build_trivial(1, 0)
    rng = random.Random(79)
    nonzero = 0
    for alg in (dual_numbers_current(), mat2_current):
        for q in (1, 2, 3):
            for _ in range(3):
                raw = random_plain_cochain(alg, c_mod, q, 4, rng, variant=CYCLIC)
                for gamma in (raw, cyclic_symmetrize(raw)):
                    nonzero += _assert_equal_exactly(
                        d_cyclic(gamma).values, _d_cyclic_oracle(gamma).values
                    )
    assert nonzero > 20


# -- serialization ----------------------------------------------------------------


def test_cochain_serialization_round_trip():
    rng = random.Random(61)
    gamma = random_skew_cochain(VIR, M10, 2, 3, rng, max_del=1)
    obj = cochain_to_obj(gamma)
    back = cochain_from_obj(VIR, M10, obj)
    assert back == gamma


def test_differential_dispatch():
    assert differential(lam_cochain()).variant == BASIC
    reduced = vir_c_cochain(1, L1, variant=REDUCED)
    assert differential(reduced).variant == REDUCED
