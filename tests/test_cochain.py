import random
from fractions import Fraction

import pytest

from confcoh.algebra import (
    ConformalAlgebra,
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
    VARIANTS,
    Cochain,
    _KERNEL,
    all_tuples,
    as_leibniz,
    cochain_from_obj,
    cochain_to_obj,
    cyclic_symmetrize,
    d_basic,
    d_reduced,
    del_action,
    differential,
    lam_sum,
    lam_terms,
    lam_var,
    random_skew_cochain,
    reduce_cochain,
    sorted_tuples,
    term_sums,
    terms_to_vec,
)
from confcoh.errors import WrongModuleKind
from confcoh.kernel import (
    LIE,
    _action_expansion,
    _bracket_expansion,
    _d_terms,
    _nonzero_bracket_pairs,
    _split_del,
    read_plan,
)
from confcoh.extensions import extend_algebra
from confcoh.liealg import adjoint_rep, sl2, sl2_irrep, sl3
from confcoh.poly import (
    DEL,
    RatPoly,
    _mono_mul,
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
from confcoh.skew import element_tuple, permutation_sign, skew_basis
from oracles import element_value, random_plain_cochain

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


def _reduce_oracle(c):
    """The former reduce_cochain: d := -(lam1 + ... + lamq) by RatPoly
    substitution on the values."""
    cut = {DEL: -lam_sum(c.q)}
    return c.copy_with(values={t: vec_subst(v, cut) for t, v in c.values.items()},
                       variant=REDUCED)


def test_reduce_matches_ratpoly_oracle():
    rng = random.Random(149)
    nonzero = wide = 0
    for mod in (M10, build_m_delta_alpha(-1, 2), build_m_delta_alpha(2, 1)):
        for q in range(4):
            for max_del in range(4):
                for _ in range(2):
                    gamma = random_skew_cochain(VIR, mod, q, 3, rng,
                                                max_del=max_del)
                    got, want = reduce_cochain(gamma), _reduce_oracle(gamma)
                    assert got == want
                    nonzero += _assert_equal_exactly(got.values, want.values)
        # a contraction by an element carrying lam2: a degree-1 cochain over
        # lam1, lam2 whose d is cut to -lam1, lam2 kept in place
        for _ in range(3):
            gamma = random_skew_cochain(VIR, mod, 2, 2, rng, max_del=2)
            c = contract_lambda((L2 * (1 + D),), gamma)
            got, want = reduce_cochain(c), _reduce_oracle(c)
            assert got == want
            _assert_equal_exactly(got.values, want.values)
            wide += c.width == 2 and c.has_del() and got.width == 2
    assert nonzero > 60 and wide >= 4


def test_reduce_degree_zero_keeps_the_constant_term():
    # d := -(the empty sum) = 0
    c = Cochain(VIR, M10, 0, BASIC, {(): (D ** 2 - 3 * D + 5,)})
    assert reduce_cochain(c).values == {(): (RatPoly.const(5),)}
    assert reduce_cochain(c.scale(0)).is_zero()


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
    reference for the Lie differential's sums (``term_sums``)."""
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


def _d_values(sums, out_q):
    """The former RatPoly route of every differential: cochain values
    {T: vector of RatPoly} from ``_d_terms`` sums."""
    values = {}
    for T, acc in sums.items():
        vec = terms_to_vec(acc, out_q)
        if not vec_is_zero(vec):
            values[T] = vec
    return values


def _assert_equal_exactly(got, want):
    """Equal value dicts with Fraction coefficients; 1 if nonzero."""
    assert got == want
    for vec in got.values():
        for p in vec:
            assert all(type(x) is Fraction for x in p.terms.values())
    return int(bool(got))


def _lie_values(c):
    """d of c through the read plan, before any reduced cut, as values."""
    return _d_values(term_sums(c.algebra, c.module, c.q, BASIC,
                               c.kernel_terms()), c.q + 1)


def _assert_matches_oracle(c):
    _assert_equal_exactly(_lie_values(c), _d_lie_oracle(c))


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
    values = _lie_values(c)
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


# -- the one entry into the kernel ------------------------------------------------


def test_kernel_table_covers_the_variants():
    assert set(_KERNEL) == set(VARIANTS) and len(_KERNEL) == len(VARIANTS)


def test_associative_variants_refuse_a_lie_algebra():
    for variant, name in ((HOCHSCHILD, "Hochschild"),
                          (HOCHSCHILD_REDUCED, "Hochschild"),
                          (CYCLIC, "cyclic")):
        c = Cochain.zero(VIR, M10, 1, variant)
        with pytest.raises(ValueError, match=f"^{name} differential needs "
                           "an associative algebra$"):
            differential(c)


def test_hochschild_refuses_a_module_without_right_action():
    alg = dual_numbers_current()
    bim = regular_bimodule(alg)
    left_only = ConformalModule("free", bim.dim, action=bim.action)
    for mod in (C, left_only):
        for variant in (HOCHSCHILD, HOCHSCHILD_REDUCED):
            with pytest.raises(WrongModuleKind,
                               match="^Hochschild cochains need a bimodule$"):
                differential(Cochain.zero(alg, mod, 1, variant))


def test_differential_refuses_an_unknown_variant():
    with pytest.raises(ValueError, match="^unknown variant bogus$"):
        differential(Cochain.zero(VIR, C, 1, "bogus"))


def test_cochain_refuses_an_unknown_variant():
    # at construction, by either route, not first at the differential
    with pytest.raises(ValueError, match="^unknown variant bogus$"):
        Cochain(VIR, C, 1, "bogus", {})
    with pytest.raises(ValueError, match="^unknown variant bogus$"):
        Cochain.from_terms(VIR, C, 1, "bogus", {})
    c = Cochain(VIR, C, 1, BASIC, {(0,): (L1,)})
    with pytest.raises(ValueError, match="^unknown variant bogus$"):
        c.copy_with(variant="bogus")
    # term_sums keeps its own check for raw terms
    with pytest.raises(ValueError, match="^unknown variant bogus$"):
        term_sums(VIR, C, 1, "bogus", c.terms)
    for variant in VARIANTS:
        assert Cochain.zero(VIR, C, 1, variant).variant == variant


# -- Leibniz -------------------------------------------------------------------


def test_leibniz_agrees_with_basic_on_skew():
    rng = random.Random(41)
    for q in (1, 2, 3):
        gamma = random_skew_cochain(VIR, C, q, 4, rng)
        assert differential(as_leibniz(gamma)) == as_leibniz(d_basic(gamma))
    cur = build_current(sl2())
    for q in (1, 2):
        gamma = random_skew_cochain(cur, build_trivial(1, 0), q, 3, rng)
        assert differential(as_leibniz(gamma)) == as_leibniz(d_basic(gamma))


def test_leibniz_d_squared_zero_on_plain_cochains():
    rng = random.Random(43)
    for alg, mod in [(VIR, C), (VIR, M10), (build_current(sl2()), build_trivial(1, 0))]:
        for q in (1, 2):
            gamma = random_plain_cochain(alg, mod, q, 4, rng)
            assert differential(differential(gamma)).is_zero()


def _d_leibniz_oracle(c):
    """The Leibniz differential through slot_insert / value_with_params /
    M.act, term by term, on every ordered output tuple: its reference."""
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
                    differential(gamma).values, _d_leibniz_oracle(gamma).values
                )
    assert nonzero > 30


# -- Hochschild and cyclic -------------------------------------------------------


def test_hochschild_d_squared_zero():
    alg = dual_numbers_current()
    bim = regular_bimodule(alg)
    rng = random.Random(47)
    for q in (0, 1, 2):
        gamma = random_plain_cochain(alg, bim, q, 4, rng, variant=HOCHSCHILD)
        assert differential(differential(gamma)).is_zero()


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
        dg = differential(gamma)
        assert dg.validate() is None
        assert differential(dg).is_zero()


def _d_hochschild_oracle(c):
    """The Hochschild differential through M.act / slot_insert / RatPoly
    substitution, term by term: its reference."""
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
    """The cyclic differential through slot_insert / RatPoly substitution,
    term by term: its reference."""
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
                        differential(gamma).values,
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
                        differential(gamma).values, _d_cyclic_oracle(gamma).values
                    )
    assert nonzero > 20


# -- the read plan and the expansion tables against their former bodies --------
#
# The former kernel recomputed, per cochain and per output tuple, the read
# tuples, the sort permutations, their signs and the candidate outputs, and
# filled its expansion tables through RatPoly substitution and powers.  Those
# bodies are kept here as exact oracles, with their own caches.

_ORACLE_TABLES = {}


def _bracket_expansion_oracle(algebra, a, b, k, e):
    """table[a][b][k](x, d := -(x+y)) * (x+y)^e through RatPoly."""
    key = (algebra, a, b, k, e)
    if key not in _ORACLE_TABLES:
        x, y = lam_var(1), lam_var(2)
        poly = algebra.table[a][b][k].substitute(DEL, -(x + y))
        _ORACLE_TABLES[key] = [(ex, ey, rest, c) for (ex, ey), rest, c
                               in lam_terms(poly * (x + y) ** e, 2)]
    return _ORACLE_TABLES[key]


def _action_expansion_oracle(module, right, g, r, u, m):
    """action[g][r][u](x, d) * (d + x)^m, or right_action[g][r][u](lam1 :=
    -d - x, d) * (d + x)^m, through RatPoly."""
    key = (module, right, g, r, u, m)
    if key not in _ORACLE_TABLES:
        x = lam_var(1)
        if right:
            poly = module.right_action[g][r][u].substitute(lam(1), -D - x)
        else:
            poly = module.action[g][r][u]
        _ORACLE_TABLES[key] = [(ex, *_split_del(rest), c) for (ex,), rest, c
                               in lam_terms(poly * (D + x) ** m, 1)]
    return _ORACLE_TABLES[key]


def _candidates_oracle(c, module_acts):
    """The former candidate outputs of d(c), rebuilt for every cochain."""
    A = c.algebra
    pairs_for = _nonzero_bracket_pairs(A)
    skew = c.variant in (BASIC, REDUCED)
    candidates = set()
    for key in c.values:
        q = len(key)
        if module_acts:
            for g in range(A.ngens):
                for i in range(1 if skew else q + 1):
                    candidates.add(key[:i] + (g,) + key[i:])
        for p in range(q):
            for (a, b) in pairs_for[key[p]]:
                rest = key[:p] + (b,) + key[p + 1:]
                for i in range(1 if skew else p + 1):
                    candidates.add(rest[:i] + (a,) + rest[i:])
    if skew:
        candidates = {tuple(sorted(T)) for T in candidates}
    return sorted(candidates)


def _d_terms_oracle(c, outputs, actions, products):
    """The former _d_terms body: per output tuple, the read tuples, sort
    permutations, signs and slot lists are recomputed for every cochain."""
    A, M, q = c.algebra, c.module, c.q
    out_q = q + 1
    split = c.kernel_terms()
    skew = c.variant in (BASIC, REDUCED)
    dim = M.dim
    layouts = []
    for i, j, pos, psign in products:
        others = [s for s in range(out_q) if s != i and s != j]
        slots = others[:pos] + [None] + others[pos:]
        layouts.append((i, j, pos, psign, others, slots))
    sums = {}
    for T in outputs:
        acc = [{} for _ in range(dim)]
        for i, sign, right in actions:
            inner = split.get(T[:i] + T[i + 1:])
            if inner is None:
                continue
            g = T[i]
            row = (M.right_action if right else M.action)[g]
            for r in range(dim):
                for u in range(dim):
                    if not row[r][u]:
                        continue
                    comp = acc[r]
                    for (ev, rest), coeff in inner[u].items():
                        m, params = _split_del(rest)
                        coeff *= sign
                        head, tail = ev[:i], ev[i:]
                        for ex, ed, hrest, hc in _action_expansion_oracle(
                            M, right, g, r, u, m
                        ):
                            rest = _mono_mul(params, hrest) if hrest else params
                            if ed:
                                rest = ((DEL, ed),) + rest
                            key = (head + (ex,) + tail, rest)
                            comp[key] = comp.get(key, 0) + coeff * hc
        for i, j, pos, psign, others, slots in layouts:
            a, b = T[i], T[j]
            br = A.table[a][b]
            rest_gens = tuple(T[s] for s in others)
            for k in range(A.ngens):
                if not br[k]:
                    continue
                t = rest_gens[:pos] + (k,) + rest_gens[pos:]
                if skew:
                    perm = sorted(range(q), key=lambda s: (t[s], s))
                    inner = split.get(tuple(t[p] for p in perm))
                else:
                    perm = range(q)
                    inner = split.get(t)
                if inner is None:
                    continue
                sign = permutation_sign(perm) * psign
                bslot = perm.index(pos)
                targets = [
                    (s, slots[p]) for s, p in enumerate(perm) if p != pos
                ]
                for u in range(dim):
                    comp = acc[u]
                    for (ev, rest), coeff in inner[u].items():
                        coeff *= sign
                        lv = [0] * out_q
                        for s, o in targets:
                            lv[o] = ev[s]
                        for ex, ey, grest, gc in _bracket_expansion_oracle(
                            A, a, b, k, ev[bslot]
                        ):
                            lv[i] = ex
                            lv[j] = ey
                            key = (tuple(lv),
                                   _mono_mul(rest, grest) if grest else rest)
                            comp[key] = comp.get(key, 0) + coeff * gc
        if any(acc):
            sums[T] = acc
    return sums


def _oracle_sums(c):
    """The former kernel on c, with the variant's former argument lists."""
    q, out_q = c.q, c.q + 1
    free = c.module.is_free()
    lie_actions = [(i, -1 if i % 2 else 1, False) for i in range(out_q)]
    if c.variant in (BASIC, REDUCED):
        products = [(i, j, 0, -1 if (i + j) % 2 else 1)
                    for i in range(out_q) for j in range(i + 1, out_q)]
        return _d_terms_oracle(c, _candidates_oracle(c, free),
                               lie_actions if free else [], products)
    if c.variant == LEIBNIZ:
        products = [(i, j, j - 1, -1 if (i + 1) % 2 else 1)
                    for i in range(out_q) for j in range(i + 1, out_q)]
        return _d_terms_oracle(c, _candidates_oracle(c, free),
                               lie_actions if free else [], products)
    if c.variant in (HOCHSCHILD, HOCHSCHILD_REDUCED):
        actions = [(0, 1, False), (q, -1 if out_q % 2 else 1, True)]
        products = [(s, s + 1, s, -1 if (s + 1) % 2 else 1) for s in range(q)]
        return _d_terms_oracle(c, _candidates_oracle(c, True), actions,
                               products)
    products = [(s, s + 1, s, -1 if s % 2 else 1) for s in range(q)]
    products.append((q, 0, 0, -1 if q % 2 else 1))
    return _d_terms_oracle(c, all_tuples(c.algebra.ngens, out_q), [],
                           products)


def _plan_sums(c):
    """The kernel on c through its read plan, before any reduced cut."""
    kind, acts = {
        BASIC: (LIE, c.module.is_free()),
        REDUCED: (LIE, c.module.is_free()),
        LEIBNIZ: (LEIBNIZ, c.module.is_free()),
        HOCHSCHILD: (HOCHSCHILD, True),
        HOCHSCHILD_REDUCED: (HOCHSCHILD, True),
        CYCLIC: (CYCLIC, False),
    }[c.variant]
    return _d_terms(c.algebra, c.module, read_plan(c.algebra, kind, c.q, acts),
                    c.kernel_terms())


def _assert_same_sums(got, want):
    """The same output tuples, entry keys (cancelled zeros included) and
    values, with the same types (int where the oracle has an int)."""
    assert list(got) == list(want)
    for T, comps in want.items():
        assert len(got[T]) == len(comps)
        for g, w in zip(got[T], comps):
            assert g == w
            assert all(type(g[key]) is type(x) for key, x in w.items())
    return len(want)


def test_read_plan_matches_the_former_kernel(mat2_current):
    rng = random.Random(83)
    g2, g3 = sl2(), sl3()
    cur2, cur3 = build_current(g2), build_current(g3)
    lie_fixtures = [
        (VIR, C, 3), (VIR, build_trivial(1, Fraction(-7, 3)), 3),
        (VIR, M10, 3), (VIR, build_m_delta_alpha(2, Fraction(1, 3)), 3),
        (cur2, C, 2), (cur2, build_trivial(1, 2), 2),
        (cur2, build_m_u(g2, adjoint_rep(g2)), 2),
        (cur2, build_m_u(g2, sl2_irrep(g2, 4)), 1),
        (cur3, C, 2), (cur3, build_m_u(g3, adjoint_rep(g3)), 1),
    ]
    outputs = multi = 0
    for alg, mod, qmax in lie_fixtures:
        for q in range(qmax + 1):
            for variant in (BASIC, REDUCED):
                gamma = random_skew_cochain(
                    alg, mod, q, 3, rng, variant=variant,
                    max_del=1 if mod.is_free() and variant == BASIC else 0)
                multi += len(gamma.values) > 1
                outputs += _assert_same_sums(_plan_sums(gamma),
                                             _oracle_sums(gamma))
                if q:
                    # as Leibniz cochains: every ordered tuple is stored
                    plain = as_leibniz(gamma)
                    outputs += _assert_same_sums(_plan_sums(plain),
                                                 _oracle_sums(plain))
    for alg, mod in ((VIR, M10), (cur2, C)):
        for q in range(4):
            plain = random_plain_cochain(alg, mod, q, 4, rng, density=0.9)
            outputs += _assert_same_sums(_plan_sums(plain), _oracle_sums(plain))
    for variant in (HOCHSCHILD, HOCHSCHILD_REDUCED):
        for bim in (regular_bimodule(mat2_current), _lam_del_bimodule()):
            alg = mat2_current if bim.dim == 4 else dual_numbers_current()
            for q in range(4):
                gamma = random_plain_cochain(alg, bim, q, 4, rng,
                                             variant=variant)
                gamma = gamma.copy_with(values={
                    t: tuple(D * p for p in v) for t, v in gamma.values.items()
                }) if q % 2 else gamma
                multi += len(gamma.values) > 1
                outputs += _assert_same_sums(_plan_sums(gamma),
                                             _oracle_sums(gamma))
    for alg in (dual_numbers_current(), mat2_current):
        for q in (1, 2, 3):
            raw = random_plain_cochain(alg, C, q, 4, rng, variant=CYCLIC)
            for gamma in (raw, cyclic_symmetrize(raw)):
                multi += len(gamma.values) > 1
                outputs += _assert_same_sums(_plan_sums(gamma),
                                             _oracle_sums(gamma))
    assert multi > 30 and outputs > 2000


def _table(terms):
    """An expansion list as a dict; its keys must not repeat."""
    out = {term[:-1]: term[-1] for term in terms}
    assert len(out) == len(terms)
    return out


def _assert_same_table(got, want):
    got, want = _table(got), _table(want)
    assert got == want
    assert all(type(got[key]) is type(c) for key, c in want.items())
    return len(want)


def test_bracket_expansions_match_the_ratpoly_fills():
    cc = RatPoly.var(param("c"))
    # the Virasoro bracket with a central term c lam^3 / 12 in a named c
    vir_c = ConformalAlgebra(("L",), [[(D + 2 * L1 + Fraction(1, 12) * cc
                                        * L1 ** 3,)]])
    central = extend_algebra(VIR, C, {(0, 0): (L1 ** 3,)}).algebra
    terms = 0
    for alg in (VIR, build_current(sl2()), central, vir_c):
        for a in range(alg.ngens):
            for b in range(alg.ngens):
                for k in range(alg.ngens):
                    if not alg.table[a][b][k]:
                        continue
                    for e in range(6):
                        terms += _assert_same_table(
                            _bracket_expansion(alg, a, b, k, e),
                            _bracket_expansion_oracle(alg, a, b, k, e))
    assert terms > 100


def test_action_expansions_match_the_ratpoly_fills(mat2_current):
    g = sl2()
    modules = [
        (VIR, M10),
        (VIR, build_m_delta_alpha(2, Fraction(1, 3))),
        (VIR, build_m_delta_alpha(Fraction(-5, 2), Fraction(3, 4))),
        (build_current(g), build_m_u(g, sl2_irrep(g, 2))),
        (mat2_current, regular_bimodule(mat2_current)),
        (dual_numbers_current(), _lam_del_bimodule()),
    ]
    terms = fractional = 0
    for alg, mod in modules:
        for right in (False, True) if mod.right_action else (False,):
            mats = mod.right_action if right else mod.action
            for gen in range(alg.ngens):
                for u in range(mod.dim):
                    for m in range(5):
                        rows = dict(_action_expansion(mod, right, gen, u, m))
                        assert list(rows) == [r for r in range(mod.dim)
                                              if mats[gen][r][u]]
                        for r, got in rows.items():
                            want = _action_expansion_oracle(mod, right, gen,
                                                            r, u, m)
                            terms += _assert_same_table(got, want)
                            fractional += any(type(c) is Fraction
                                              for *_, c in want)
    assert terms > 300 and fractional > 20


# -- term storage against the former RatPoly routes ----------------------------


def _random_skew_oracle(algebra, module, q, max_deg, rng, variant=BASIC,
                        max_del=0, density=0.6):
    """The former random_skew_cochain: RatPoly products of each shape's
    value and its coefficient times d^m, summed per component."""
    values = {}
    for d in range(max_deg + 1):
        for elem in skew_basis(q, d, algebra.ngens).elements:
            for b in range(module.dim):
                if rng.random() > density:
                    continue
                coeff = rng.randint(-3, 3)
                if not coeff:
                    continue
                extra = RatPoly.const(coeff)
                if max_del and module.is_free() and variant == BASIC:
                    extra = extra * D ** rng.randint(0, max_del)
                poly = element_value(elem, q) * extra
                t = element_tuple(elem) if q else ()
                vec = values.setdefault(t, list(zero_vec(module.dim)))
                vec[b] = vec[b] + poly
    return Cochain(algebra, module, q, variant,
                   {t: tuple(v) for t, v in values.items()})


def test_random_skew_cochain_matches_ratpoly_oracle():
    g = sl2()
    fixtures = [
        (VIR, C, BASIC, 0, 3),
        (VIR, M10, BASIC, 1, 3),
        (build_current(g), build_m_u(g, adjoint_rep(g)), REDUCED, 1, 3),
        (build_current(sl3()), C, BASIC, 0, 2),
    ]
    nonzero = 0
    for seed, (alg, mod, variant, max_del, max_deg) in enumerate(fixtures):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for q in range(4):
            got = random_skew_cochain(alg, mod, q, max_deg, rng,
                                      variant=variant, max_del=max_del)
            want = _random_skew_oracle(alg, mod, q, max_deg, oracle_rng,
                                       variant=variant, max_del=max_del)
            assert rng.getstate() == oracle_rng.getstate()
            nonzero += _assert_equal_exactly(got.values, want.values)
            assert got == want and got.variant == variant
    assert nonzero >= 12


def test_term_built_cochain_equals_the_ratpoly_built_one():
    mu = RatPoly.var(param("mu"))
    terms = {(0, 0): [{((1, 0), ((DEL, 2),)): 3, ((0, 1), ((DEL, 2),)): -3,
                       ((2, 0), ((param("mu"), 1),)): Fraction(1, 2),
                       ((0, 2), ()): 0}]}
    values = {(0, 0): (3 * D ** 2 * (L1 - L2) + Fraction(1, 2) * mu * L1 ** 2,)}
    built = Cochain.from_terms(VIR, M10, 2, LEIBNIZ, terms)
    parsed = Cochain(VIR, M10, 2, LEIBNIZ, values)
    assert built == parsed and built.terms == parsed.terms
    assert built.values == values
    assert Cochain(VIR, M10, 2, LEIBNIZ, built.values) == built
    # a wider exponent vector whose extra lams are unused is cut to q
    wide = Cochain.from_terms(VIR, M10, 2, LEIBNIZ, {
        t: [{(ev + (0,), rest): c for (ev, rest), c in comp.items()}
            for comp in comps] for t, comps in terms.items()}, width=3)
    assert wide.width == 2 and wide == parsed
    with pytest.raises(ValueError, match="sorted tuples"):
        Cochain.from_terms(VIR, C, 2, BASIC, {(1, 0): [{((0, 0), ()): 1}]})


def test_is_zero_on_sums_that_cancel():
    rng = random.Random(131)
    gamma = random_skew_cochain(VIR, M10, 2, 3, rng, max_del=1)
    assert not gamma.is_zero()
    for zero in (gamma - gamma, gamma + gamma.scale(-1),
                 gamma.scale(Fraction(2, 3)) + gamma.scale(Fraction(-2, 3)),
                 gamma.scale(0), d_basic(d_basic(gamma))):
        assert zero.is_zero() and zero.terms == {} and zero.values == {}
    assert d_basic(vir_c_cochain(3, vandermonde3())).is_zero()
    cancelled = Cochain.from_terms(VIR, C, 1, BASIC, {(0,): [{((1,), ()): 0}]})
    assert cancelled.is_zero() and cancelled == Cochain.zero(VIR, C, 1)


def test_values_view_holds_fractions():
    rng = random.Random(137)
    gamma = random_skew_cochain(VIR, M10, 2, 3, rng, max_del=1)
    halves = gamma.scale(Fraction(1, 2))
    for c in (gamma, d_basic(gamma), halves, gamma + halves,
              contract_lambda((L1 + D,), gamma)):
        assert c.values
        assert all(type(x) is Fraction for v in c.values.values() for p in v
                   for x in p.terms.values())
    assert all(type(x) is int for comps in gamma.terms.values()
               for comp in comps for x in comp.values())


def test_differentials_match_the_former_ratpoly_route():
    # d stores the kernel's sums as terms; the former route turned them into
    # RatPoly values (_d_values) and built the cochain from those
    rng = random.Random(139)
    g = sl2()
    fixtures = [
        (VIR, C, BASIC, 0),
        (VIR, M10, BASIC, 2),
        (VIR, M10, REDUCED, 0),
        (build_current(g), build_m_u(g, adjoint_rep(g)), REDUCED, 0),
        (build_current(g), CA, REDUCED, 0),
    ]
    nonzero = 0
    for alg, mod, variant, max_del in fixtures:
        for q in range(3):
            c = random_skew_cochain(alg, mod, q, 3, rng, variant=variant,
                                    max_del=max_del)
            got = differential(c)
            sums = term_sums(alg, mod, q, variant, c.kernel_terms())
            want = c.copy_with(values=_d_values(sums, q + 1), q=q + 1)
            assert got == want
            nonzero += _assert_equal_exactly(got.values, want.values)
    assert nonzero >= 8


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
