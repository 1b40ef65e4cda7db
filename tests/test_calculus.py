import random
from fractions import Fraction
from itertools import product

import pytest

from confcoh.algebra import (
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
)
from confcoh.calculus import (
    _element_action,
    contract_lambda,
    homotopy_k,
    homotopy_k1,
    lie_theta,
    wedge,
)
from confcoh.algebra import bracket_eval
from confcoh import cochain as cochain_module
from confcoh.cochain import (
    BASIC,
    LEIBNIZ,
    Cochain,
    SlotParam,
    antilinear_feeds,
    as_leibniz,
    d_basic,
    del_action,
    lam_count,
    lam_var,
    random_skew_cochain,
    sorted_tuples,
    terms_to_vec,
)
from confcoh.errors import DegreeZero, WrongContext
from confcoh.liealg import adjoint_rep, sl2
from confcoh.poly import (
    DEL,
    RatPoly,
    lam,
    mat_apply,
    param,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_subst,
    zero_vec,
)
from confcoh.skew import skew_basis

VIR = build_vir()
C = build_trivial(1, 0)
D = RatPoly.var(DEL)
L1, L2, L3 = (RatPoly.var(lam(i)) for i in (1, 2, 3))
MU = RatPoly.var(param("mu"))
L_ELEM = (RatPoly.const(1),)


def vir_c(q, poly):
    return Cochain(VIR, C, q, BASIC, {(0,) * q: (poly,)})


def test_wedge_two_one_cochains():
    assert wedge(vir_c(1, L1), vir_c(1, RatPoly.const(1))).values[(0, 0)] == (
        L1 - L2,
    )


def test_wedge_unit_is_identity():
    rng = random.Random(2)
    unit = vir_c(0, RatPoly.const(1))
    gamma = random_skew_cochain(VIR, build_m_delta_alpha(1, 0), 2, 3, rng, max_del=1)
    assert wedge(unit, gamma) == gamma


def test_wedge_square_of_odd_degree_vanishes():
    u = vir_c(1, L1 ** 2)
    assert wedge(u, u).is_zero()


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(3)
    cochains = {
        q: random_skew_cochain(VIR, C, q, 3, rng, density=1.0) for q in (1, 2)
    }
    u, v = cochains[1], cochains[2]
    assert wedge(u, v) == wedge(v, u).scale((-1) ** (1 * 2))
    w = vir_c(1, L1)
    assert wedge(u, wedge(v, w)) == wedge(wedge(u, v), w)
    u2 = vir_c(1, L1 ** 3)
    assert wedge(u2, u) == wedge(u, u2).scale(-1)


def test_contraction_examples():
    gamma = vir_c(2, L1 - L2)
    got = contract_lambda(L_ELEM, gamma)
    assert got.values[(0,)] == (MU - L1,)
    one = contract_lambda(L_ELEM, vir_c(1, L1 ** 2))
    assert one.values[()] == (MU ** 2,)
    with pytest.raises(DegreeZero):
        contract_lambda(L_ELEM, vir_c(0, RatPoly.const(1)))


def test_wedge_contraction_anticommutator():
    # eps(u) iota(v) + iota(v) eps(u) = iota(v) u for 1-cochains u
    rng = random.Random(5)
    u = vir_c(1, L1 ** 2)
    for q in (1, 2, 3):
        gamma = random_skew_cochain(VIR, C, q, 3, rng, density=1.0)
        lhs = wedge(u, contract_lambda(L_ELEM, gamma)) + contract_lambda(
            L_ELEM, wedge(u, gamma)
        )
        scalar = contract_lambda(L_ELEM, u).values.get((), (RatPoly.zero(),))[0]
        rhs = gamma.scale(scalar)
        assert lhs == rhs


def test_theta_on_zero_cochain():
    m = build_m_delta_alpha(1, 0)
    gamma = Cochain(VIR, m, 0, BASIC, {(): (RatPoly.const(1),)})
    assert lie_theta(L_ELEM, gamma).values[()] == (D + MU,)


def test_cartan_identity_vir_and_current():
    rng = random.Random(7)
    fixtures = [
        (VIR, C, (1, 2, 3), 0),
        (VIR, build_m_delta_alpha(2, 1), (0, 1, 2), 1),
        (build_current(sl2()), build_m_u(sl2(), adjoint_rep(sl2())), (1, 2), 1),
    ]
    for alg, mod, qs, max_del in fixtures:
        for q in qs:
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=max_del)
            for i in range(alg.ngens):
                a = tuple(
                    RatPoly.const(1 if k == i else 0) for k in range(alg.ngens)
                )
                theta = lie_theta(a, gamma)
                parts = contract_lambda(a, d_basic(gamma))
                if q >= 1:
                    parts = parts + d_basic(contract_lambda(a, gamma))
                assert parts == theta


def test_cartan_with_d_polynomial_element():
    rng = random.Random(11)
    gamma = random_skew_cochain(VIR, build_m_delta_alpha(1, 0), 2, 3, rng, max_del=1)
    a = (D ** 2 - 3 * D + RatPoly.const(1),)
    lhs = d_basic(contract_lambda(a, gamma)) + contract_lambda(a, d_basic(gamma))
    assert lhs == lie_theta(a, gamma)


def test_theta_commutes_with_d():
    rng = random.Random(13)
    for alg, mod in [(VIR, C), (build_current(sl2()), build_trivial(1, 0))]:
        gamma = random_skew_cochain(alg, mod, 2, 3, rng)
        a = tuple(
            RatPoly.const(1) if k == 0 else RatPoly.zero()
            for k in range(alg.ngens)
        )
        assert d_basic(lie_theta(a, gamma)) == lie_theta(a, d_basic(gamma))


def test_theta_on_vandermonde_cocycle_is_exact():
    # on a cocycle, theta = d iota + iota d collapses to d iota, so the
    # action on the class is trivial (the cochain itself is not zero)
    van = (L1 - L2) * (L1 - L3) * (L2 - L3)
    gamma = vir_c(3, van)
    assert d_basic(gamma).is_zero()
    theta = lie_theta(L_ELEM, gamma)
    assert theta == d_basic(contract_lambda(L_ELEM, gamma))
    assert d_basic(theta).is_zero()


def test_homotopy_identity_spot_values():
    def dkkd(c):
        return d_basic(homotopy_k(c)) + homotopy_k(d_basic(c))

    p = vir_c(1, L1)
    assert dkkd(p).is_zero()
    p2 = vir_c(1, L1 ** 2)
    assert dkkd(p2) == p2
    van = (L1 - L2) * (L1 - L3) * (L2 - L3)
    assert dkkd(vir_c(3, van)).is_zero()


def test_homotopy_identity_full_slices():
    # (dk + kd) = (deg - q) id on every homogeneous slice, q <= 4, deg <= 8
    for q in range(1, 5):
        for d in range(9):
            for elem in skew_basis(q, d, 1).elements:
                c = Cochain.from_basis_element(VIR, C, q, BASIC, elem, 0)
                got = d_basic(homotopy_k(c)) + homotopy_k(d_basic(c))
                assert got == c.scale(d - q)


def test_homotopy_k1_identity():
    for q in range(1, 4):
        for d in range(7):
            for elem in skew_basis(q, d, 1).elements:
                c = Cochain.from_basis_element(VIR, C, q, BASIC, elem, 0)
                dc = del_action(c)
                got = d_basic(homotopy_k1(dc)) + homotopy_k1(d_basic(dc))
                assert got == dc.scale(d - q)


def test_homotopy_outside_context_rejected():
    cur = build_current(sl2())
    gamma = Cochain(cur, build_trivial(1, 0), 1, BASIC,
                    {(0,): (L1,)})
    with pytest.raises(WrongContext):
        homotopy_k(gamma)
    m = build_m_delta_alpha(1, 0)
    with pytest.raises(WrongContext):
        homotopy_k(Cochain(VIR, m, 1, BASIC, {(0,): (L1,)}))


# -- table-driven slot insertion against RatPoly substitution ----------------
#
# The oracles are the substitution routes of slot insertion: value_on
# relabels a skew value by substitution, the slot parameters are substituted
# into it at once, and the argument's d becomes -slot_param through
# RatPoly.subst_many.  contract_lambda and lie_theta are rebuilt on them.


def _value_with_params_oracle(gamma, t, params):
    base = gamma.value_on(t)
    mapping = {}
    for s, p in enumerate(params):
        v = lam(s + 1)
        if not (len(p.terms) == 1 and p.terms.get(((v, 1),)) == 1):
            mapping[v] = p
    return vec_subst(base, mapping) if mapping else base


def _slot_insert_oracle(gamma, avec, slot_param, rest_gens, rest_params,
                        pos=0):
    total = zero_vec(gamma.module.dim)
    antilinear = {DEL: -slot_param}
    for k, coeff in enumerate(avec):
        if not coeff:
            continue
        scal = coeff.subst_many(antilinear)
        if not scal:
            continue
        t = rest_gens[:pos] + (k,) + rest_gens[pos:]
        params = rest_params[:pos] + [slot_param] + rest_params[pos:]
        val = _value_with_params_oracle(gamma, t, params)
        if not vec_is_zero(val):
            total = vec_add(total, vec_scale(scal, val))
    return total


def _contract_oracle(a, gamma):
    n = gamma.q
    values = {}
    for T in sorted_tuples(gamma.algebra.ngens, n - 1):
        rest_params = [lam_var(s + 1) for s in range(n - 1)]
        val = _slot_insert_oracle(gamma, a, MU, T, rest_params, pos=0)
        if not vec_is_zero(val):
            values[T] = val
    return Cochain(gamma.algebra, gamma.module, n - 1, gamma.variant, values)


def _theta_oracle(a, gamma):
    n = gamma.q
    A, M = gamma.algebra, gamma.module
    brackets = []
    for k in range(A.ngens):
        gen = tuple(RatPoly.const(int(s == k)) for s in range(A.ngens))
        br = bracket_eval(A, a, gen, param=MU)
        brackets.append(None if vec_is_zero(br) else br)
    values = {}
    for T in sorted_tuples(A.ngens, n):
        acc = M.act_element(a, MU, gamma.value_on(T))
        for i in range(n):
            br = brackets[T[i]]
            if br is None:
                continue
            rest = T[:i] + T[i + 1:]
            rest_params = [lam_var(s + 1) for s in range(n) if s != i]
            term = _slot_insert_oracle(gamma, br, MU + lam_var(i + 1), rest,
                                       rest_params, pos=i)
            acc = vec_add(acc, vec_scale(-1, term))
        if not vec_is_zero(acc):
            values[T] = acc
    return Cochain(A, M, n, gamma.variant, values)


def _assert_fraction_vec(got, want):
    assert got == want
    for p in got:
        assert all(type(c) is Fraction for c in p.terms.values())


def _slot_cochains():
    """Skew cochains with d-powers over Vir/C, Vir/M_{2,1} and Cur sl2/M_ad,
    and each one scaled by 2/3 and stored on all tuples (Leibniz)."""
    rng = random.Random(67)
    g = sl2()
    fixtures = [
        (VIR, C, 0),
        (VIR, build_m_delta_alpha(2, 1), 2),
        (build_current(g), build_m_u(g, adjoint_rep(g)), 1),
    ]
    for alg, mod, max_del in fixtures:
        for q in (1, 2, 3):
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=max_del)
            yield gamma
            yield as_leibniz(gamma.scale(Fraction(2, 3)))


def _elements(ngens):
    """Algebra elements: a generator, d-powers with a Fraction coefficient,
    and one carrying lam1 and mu."""
    zero = RatPoly.zero()
    last = ngens - 1
    return [
        tuple(RatPoly.const(int(k == last)) for k in range(ngens)),
        tuple(D ** 2 - 3 * D + 1 if k == 0 else
              Fraction(1, 2) * D ** 3 if k == last else zero
              for k in range(ngens)),
        tuple(D * MU + 2 * L1 - 1 if k == last else zero
              for k in range(ngens)),
    ]


def test_slot_insert_matches_oracle():
    rng = random.Random(71)
    variants = set()
    nonzero = 0
    for gamma in _slot_cochains():
        variants.add(gamma.variant)
        q, ngens = gamma.q, gamma.algebra.ngens
        lams = [lam_var(s + 1) for s in range(q)]
        for rest_gens in product(range(ngens), repeat=q - 1):
            for pos in range(q):
                others = lams[:pos] + lams[pos + 1:]
                slot_params = [MU, MU + lams[pos], lams[0] + 2 * lams[-1],
                               Fraction(1, 2) * MU - D]
                rest_choices = [others, others[::-1],
                                [p + MU for p in others], [-D] * (q - 1)]
                for avec in _elements(ngens):
                    slot = rng.choice(slot_params)
                    rest = rng.choice(rest_choices)
                    want = _slot_insert_oracle(gamma, avec, slot, rest_gens,
                                               rest, pos)
                    got = gamma.slot_insert(avec, slot, rest_gens, rest, pos)
                    _assert_fraction_vec(got, want)
                    nonzero += not vec_is_zero(got)
    assert variants == {BASIC, LEIBNIZ}
    assert nonzero >= 200


def test_value_with_params_matches_oracle():
    rng = random.Random(73)
    nonzero = 0
    for gamma in _slot_cochains():
        q, ngens = gamma.q, gamma.algebra.ngens
        lams = [lam_var(s + 1) for s in range(q)]
        for t in product(range(ngens), repeat=q):
            for params in (lams, lams[::-1], rng.sample(lams, q),
                           [p + MU for p in lams], [-D - p for p in lams]):
                got = gamma.value_with_params(t, params)
                _assert_fraction_vec(got, _value_with_params_oracle(gamma, t,
                                                                    params))
                nonzero += not vec_is_zero(got)
    assert nonzero >= 300


def _assert_same_cochain(got, want):
    """Equal cochains with Fraction coefficients; 1 if nonzero."""
    assert (got.q, got.variant) == (want.q, want.variant)
    assert got.values.keys() == want.values.keys()
    for t, vec in got.values.items():
        _assert_fraction_vec(vec, want.values[t])
    return int(not got.is_zero())


def test_contract_and_theta_match_oracle():
    nonzero = 0
    for gamma in _slot_cochains():
        for a in _elements(gamma.algebra.ngens):
            nonzero += _assert_same_cochain(contract_lambda(a, gamma),
                                            _contract_oracle(a, gamma))
            nonzero += _assert_same_cochain(lie_theta(a, gamma),
                                            _theta_oracle(a, gamma))
    assert nonzero >= 80


# -- term-built iota and theta against their former RatPoly routes ------------
#
# contract_lambda and lie_theta now store the accumulated terms; before,
# each tuple's terms became a RatPoly vector (terms_to_vec), the free-module
# action was added as RatPoly, and the cochain was built from those values.


def _contract_ratpoly_route(a, gamma):
    n = gamma.q
    width = max(n - 1, lam_count(a))
    slot = SlotParam(MU, width)
    params = [slot] + [SlotParam(lam_var(s + 1), width) for s in range(n - 1)]
    feeds = antilinear_feeds(a, slot)
    values = {}
    for T in sorted_tuples(gamma.algebra.ngens, n - 1):
        acc = [{} for _ in range(gamma.module.dim)]
        gamma.add_inserted(acc, feeds, 0, T, params)
        val = terms_to_vec(acc, width)
        if not vec_is_zero(val):
            values[T] = val
    return Cochain(gamma.algebra, gamma.module, n - 1, gamma.variant, values)


def _theta_ratpoly_route(a, gamma):
    n = gamma.q
    A, M = gamma.algebra, gamma.module
    brackets = []
    for k in range(A.ngens):
        gen = tuple(RatPoly.const(int(s == k)) for s in range(A.ngens))
        brackets.append(bracket_eval(A, a, gen, param=MU))
    width = max([n, lam_count(a)] + [lam_count(br) for br in brackets])
    lams = [SlotParam(lam_var(s + 1), width) for s in range(n)]
    slots = [SlotParam(MU + lam_var(i + 1), width) for i in range(n)]
    action = _element_action(M, a)
    values = {}
    for T in sorted_tuples(A.ngens, n):
        acc = [{} for _ in range(M.dim)]
        for i in range(n):
            feeds = antilinear_feeds(brackets[T[i]], slots[i])
            gamma.add_inserted(acc, feeds, i, T[:i] + T[i + 1:],
                               lams[:i] + [slots[i]] + lams[i + 1:], scale=-1)
        val = terms_to_vec(acc, width)
        if action is not None:
            shifted = vec_subst(gamma.value_on(T), {DEL: D + MU})
            val = vec_add(mat_apply(action, shifted), val)
        if not vec_is_zero(val):
            values[T] = val
    return Cochain(A, M, n, gamma.variant, values)


def test_contract_and_theta_match_the_former_ratpoly_routes():
    nonzero = 0
    for gamma in _slot_cochains():
        for a in _elements(gamma.algebra.ngens):
            for got, want in ((contract_lambda(a, gamma),
                               _contract_ratpoly_route(a, gamma)),
                              (lie_theta(a, gamma),
                               _theta_ratpoly_route(a, gamma))):
                assert got == want
                nonzero += _assert_same_cochain(got, want)
    assert nonzero >= 80


def test_theta_reads_are_kept_per_element_and_degree():
    g = sl2()
    cur, mod = build_current(g), build_m_u(g, adjoint_rep(g))
    rng = random.Random(149)
    a = _elements(cur.ngens)[1]
    gamma = random_skew_cochain(cur, mod, 2, 3, rng, max_del=1)
    first = lie_theta(a, gamma)
    reads = cur._slot_reads[a]
    assert lie_theta(list(a), gamma) == first == _theta_oracle(a, gamma)
    assert cur._slot_reads[a] is reads and list(reads.theta) == [2]
    assert lie_theta(a, d_basic(gamma)) == _theta_oracle(a, d_basic(gamma))
    assert sorted(reads.theta) == [2, 3]


def _count_expansions(monkeypatch):
    """{"power": calls, "mul_terms": calls}, counted while the test runs:
    every product of slot-parameter powers and feeds goes through both."""
    calls = {"power": 0, "mul_terms": 0}
    power, mul_terms = SlotParam.power, cochain_module.mul_terms

    def counted_power(self, e):
        calls["power"] += 1
        return power(self, e)

    def counted_mul_terms(xs, ys):
        calls["mul_terms"] += 1
        return mul_terms(xs, ys)

    monkeypatch.setattr(SlotParam, "power", counted_power)
    monkeypatch.setattr(cochain_module, "mul_terms", counted_mul_terms)
    return calls


def test_iota_and_theta_expand_each_product_once_per_algebra(monkeypatch):
    calls = _count_expansions(monkeypatch)
    g = sl2()
    fixtures = [
        (build_vir(), build_m_delta_alpha(1, 0), 1),
        (build_current(g), build_m_u(g, adjoint_rep(g)), 1),
        (build_current(g), build_trivial(1, 0), 0),
    ]
    rng = random.Random(157)
    for alg, mod, max_del in fixtures:
        assert alg._slot_reads == {}  # a fresh algebra starts empty
        a = _elements(alg.ngens)[1]
        for q in (1, 2):
            gamma = random_skew_cochain(alg, mod, q, 3, rng, max_del=max_del)
            other = gamma.scale(Fraction(-2, 3))  # same terms, new coeffs
            for op, oracle in ((contract_lambda, _contract_oracle),
                               (lie_theta, _theta_oracle)):
                first = op(a, gamma)
                before = dict(calls)
                second = op(a, other)
                assert calls == before  # no new product expanded
                assert first == oracle(a, gamma)
                assert second == oracle(a, other)
                assert second == first.scale(Fraction(-2, 3))
        entry = alg._slot_reads[a]
        assert list(alg._slot_reads) == [a]  # one entry serves iota and theta
        assert sorted(entry.iota) == sorted(entry.theta) == [1, 2]
        assert calls["power"] and calls["mul_terms"]


def test_contract_and_theta_match_oracle_on_d_carrying_elements():
    # (dL), L and an element mixing d-powers with mu, over Vir/M_{1,0} with
    # d in the values; two cochains per degree on one algebra, so the second
    # reads products the first expanded
    rng = random.Random(163)
    vir, m = build_vir(), build_m_delta_alpha(1, 0)
    elements = [(D,), L_ELEM, (D ** 2 * MU - Fraction(1, 2) * D + 3,)]
    nonzero = 0
    for q in (1, 2, 3):
        for _ in range(2):
            gamma = random_skew_cochain(vir, m, q, 3, rng, max_del=1)
            for a in elements:
                nonzero += _assert_same_cochain(contract_lambda(a, gamma),
                                                _contract_oracle(a, gamma))
                nonzero += _assert_same_cochain(lie_theta(a, gamma),
                                                _theta_oracle(a, gamma))
    assert nonzero >= 30


def test_contraction_by_lam_carrying_element_keeps_its_values():
    # a carrying lam2 leaves lam2 in the values of a 1-cochain: the values
    # are those of the former route, but the kernel cannot read them
    rng = random.Random(151)
    m = build_m_delta_alpha(2, 1)
    for gamma in (random_skew_cochain(VIR, m, 2, 4, rng, max_del=1,
                                      density=1.0),
                  random_skew_cochain(VIR, C, 2, 4, rng, density=1.0)):
        a = (L2 * D + 3 * L1 - MU,)
        got = contract_lambda(a, gamma)
        want = _contract_ratpoly_route(a, gamma)
        assert (got.q, got.width) == (1, 2)
        assert got.values == want.values and got == want
        assert got.values == _contract_oracle(a, gamma).values
        assert any(lam(2) in p.variables() for v in got.values.values()
                   for p in v)
        with pytest.raises(ValueError, match="degree-1 cochain value uses lam2"):
            d_basic(got)
        # the sum with a cochain of width q goes through the values
        plain = contract_lambda((D,), gamma)
        assert (got + plain).values == {
            t: vec_add(got.value_on(t), plain.value_on(t))
            for t in set(got.values) | set(plain.values)}
