import random
import re
from fractions import Fraction

import pytest

from confcoh import engine
from confcoh.algebra import (
    adjoint_module,
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
)
from confcoh.cochain import (
    BASIC,
    REDUCED,
    Cochain,
    d_reduced,
    del_action,
    lam_sum,
    lam_terms,
    random_skew_cochain,
    term_sums,
)
from confcoh.engine import (
    ComplexSpec,
    SliceComplex,
    apply_differential,
    cartan_weights,
    cochain_coords,
    coords_to_cochain,
    graded_bidegree_dims,
    sl2_example_cocycle,
    slice_pairs,
    truncation_sweep,
    verify_cocycle,
)
from confcoh.errors import NotEquivariant, UnsupportedComplex
from confcoh.liealg import (
    Rep,
    abelian,
    adjoint_rep,
    equivariant_maps,
    sl2,
    sl2_irrep,
    sl3,
    sym_power_rep,
)
from confcoh.poly import DEL, RatPoly, lam, vec_scale
from confcoh.skew import (element_terms, element_tuple, monomial_coordinates,
                          permutation_sign)

VIR = build_vir()
C = build_trivial(1, 0)
L1, L2, L3 = (RatPoly.var(lam(i)) for i in (1, 2, 3))


def _coords(c):
    """Coordinates of a cochain, read through its terms."""
    return cochain_coords(c.kernel_terms(), {})


def _full_slice(spec, q, d):
    """(pairs, columns) of the full slice (q, d): every basis pair, weight 0
    or not, with its differential column read through engine._column."""
    pairs = slice_pairs(spec, q, d)
    return pairs, [engine._column(spec, q, p) for p in pairs]


def _basis_cochain(spec, q, pair):
    """The skew-basis cochain of a slice pair (shape, u)."""
    elem, u = pair
    return Cochain.from_basis_element(spec.algebra, spec.module, q,
                                      spec.variant, elem, u)


def test_unsupported_basic_free():
    with pytest.raises(UnsupportedComplex):
        ComplexSpec(VIR, build_m_delta_alpha(1, 0), BASIC)


def test_coords_round_trip():
    spec = ComplexSpec(build_current(sl2()), build_m_u(sl2(), adjoint_rep(sl2())),
                       REDUCED)
    rng = random.Random(5)
    gamma = random_skew_cochain(spec.algebra, spec.module, 2, 3, rng,
                                variant=REDUCED)
    coords = _coords(gamma)
    assert coords_to_cochain(spec, 2, coords) == gamma


def test_full_slice_vir_c_reduced():
    # q=2 -> 3 at lam-degree 3: one quotient generator mapping onto the
    # Vandermonde direction
    spec = ComplexSpec(VIR, C, REDUCED)
    pairs, cols = _full_slice(spec, 2, 3)
    assert len(pairs) == 2  # raw slice, before the quotient
    nonzero = [c for c in cols if c]
    assert nonzero
    for col in nonzero:
        for (elem, u) in col:
            assert sum(e for _, e in elem) == 4


def test_full_slice_empty_domain():
    spec = ComplexSpec(VIR, C, REDUCED)
    pairs, cols = _full_slice(spec, 3, 1)  # no skew shapes of degree 1 on 3 slots
    assert pairs == [] and cols == []


def test_slice_matrix_composition_is_zero():
    # d_{q+1} o d_q = 0 on every assembled adjacent pair
    fixtures = [
        (ComplexSpec(VIR, C, REDUCED), 4),
        (ComplexSpec(VIR, C, BASIC), 4),
        (ComplexSpec(VIR, build_m_delta_alpha(1, 1), REDUCED), 4),
        (ComplexSpec(build_current(sl2()), build_trivial(1, 0), BASIC), 4),
        (ComplexSpec(build_current(sl3()), build_trivial(1, 0), REDUCED), 2),
    ]
    for spec, dmax in fixtures:
        for q in (0, 1, 2):
            for d in range(dmax + 1):
                pairs, cols = _full_slice(spec, q, d)
                for pair, col in zip(pairs, cols):
                    image = coords_to_cochain(spec, q + 1, col)
                    assert cochain_coords(apply_differential(spec, image), {}) == {}


def test_window_and_graded_agree_on_vir_c():
    store = SliceComplex(ComplexSpec(VIR, C, REDUCED))
    assert store.spec.shift == 1
    for q in range(4):
        hg = sum(store.graded_h(q, d)[0] for d in range(7))
        hw, _ = store.window_h(q, 6)
        assert hg == hw


@pytest.mark.parametrize("qmax, bound", [(-1, 4), (2, -1)])
def test_negative_counts_raise(qmax, bound):
    spec = ComplexSpec(VIR, C, REDUCED)
    with pytest.raises(ValueError):
        truncation_sweep(spec, qmax, bound)
    with pytest.raises(ValueError):
        graded_bidegree_dims(spec, qmax, bound)


def test_slice_ranks_agree_with_bareiss():
    # the sparse rational rank of every stored slice matrix against the
    # dense fraction-free one
    from confcoh.linalg import rank, rank_bareiss

    g = sl2()
    specs = [
        ComplexSpec(VIR, C, REDUCED),
        ComplexSpec(build_current(g), build_trivial(1, 0), REDUCED),
        ComplexSpec(build_current(g), build_m_u(g, sl2_irrep(g, 2)), REDUCED),
    ]
    def dense_rank(vectors):
        keys = list(dict.fromkeys(k for v in vectors for k in v))
        return rank_bareiss([[v.get(k, 0) for k in keys] for v in vectors])

    checked = 0
    for spec in specs:
        store = SliceComplex(spec)
        assert spec.shift is not None
        for q in range(3):
            for d in range(5):
                graded = store._graded_matrix(q, d)
                matrices = [store.columns(q, d), graded]
                if spec.scalar_quotient:
                    # the window cocycle matrix: the degree-(q + 1) image
                    # rows below the columns' top degree, then the columns
                    top = max((sum(e for _, e in elem) for col in store.columns(q, d)
                               for elem, _ in col), default=0)
                    stacked = [row for e in range(top)
                               for row in store.mult_rows(q + 1, e)]
                    matrices += [store.mult_rows(q, d), stacked + store.columns(q, d)]
                for vectors in matrices:
                    assert dense_rank(vectors) == rank(vectors)
                    checked += rank(vectors) > 0
                # the rank graded_h reads, eliminated as rows
                assert store.graded_rank(q, d) == dense_rank(graded)
    assert checked > 0


# -- slice assembly against the former RatPoly routes ---------------------------


def _monomial_coordinates_oracle(value_poly, sorted_tuple):
    """The former skew.monomial_coordinates: every monomial placed afresh."""
    q = len(sorted_tuple)
    coords = {}
    for mono, coeff in value_poly.terms.items():
        exps = [0] * q
        for v, e in mono:
            if v[0] != 0:
                raise ValueError("slice values must only involve lam variables")
            exps[v[1] - 1] = e
        pairs = [(sorted_tuple[s], exps[s]) for s in range(q)]
        order = sorted(range(q), key=lambda s: pairs[s], reverse=True)
        elem = tuple(pairs[s] for s in order)
        if any(elem[i] == elem[i + 1] for i in range(q - 1)):
            raise AssertionError(f"repeated pair with nonzero coefficient: {elem}")
        c = permutation_sign(order) * coeff
        prev = coords.get(elem)
        if prev is None:
            coords[elem] = c
        elif prev != c:
            raise AssertionError(f"inconsistent skew value at {elem}")
    return coords


def _cochain_coords_oracle(c):
    coords = {}
    for t, vec in c.values.items():
        for u, p in enumerate(vec):
            if p:
                for elem, coeff in _monomial_coordinates_oracle(p, t).items():
                    coords[(elem, u)] = coeff
    return coords


def _mult_coords_oracle(spec, q, pair):
    """The former _mult_coords: the basis cochain times (a + sum lam_i) as
    RatPoly products, skew-decomposed again."""
    c = _basis_cochain(spec, q, pair)
    a = spec.module.del_scalar if spec.scalar_quotient else 0
    factor = RatPoly.const(a) + lam_sum(q)
    scaled = c.copy_with(
        values={t: vec_scale(factor, v) for t, v in c.values.items()}
    )
    return _cochain_coords_oracle(scaled)


def _restriction_coords_oracle(spec, c, memo):
    """The restriction to the hyperplane sum lam_i = -a, lam1 := -a - lam2 -
    ... - lamq by RatPoly products with cached powers; keys (tuple,
    monomial, u).  It vanishes exactly on the multiples of (a + sum lam_i):
    the independent route to membership in that image."""
    q = c.q
    out = {}
    for t, vec in c.values.items():
        for u, p in enumerate(vec):
            restricted = {}
            for mono, coeff in p.terms.items():
                image = memo.get((q, mono))
                if image is None:
                    image = memo[(q, mono)] = _restrict_monomial_oracle(
                        spec, q, mono, memo)
                for m, c2 in image:
                    if m not in restricted:
                        restricted[m] = coeff * c2
                        continue
                    total = restricted[m] + coeff * c2
                    if total:
                        restricted[m] = total
                    else:
                        del restricted[m]
            for mono, coeff in restricted.items():
                out[(t, mono, u)] = coeff
    return out


def _restrict_monomial_oracle(spec, q, mono, memo):
    if not mono or mono[0][0] != lam(1):
        return ((mono, Fraction(1)),)
    e = mono[0][1]
    power = memo.get((q, e))
    if power is None:
        repl = -RatPoly.const(spec.module.del_scalar)
        for s in range(1, q):
            repl = repl - RatPoly.var(lam(s + 1))
        power = memo[(q, e)] = repl ** e
    return tuple((RatPoly({mono[1:]: Fraction(1)}) * power).terms.items())


def _assembly_fixtures():
    g, g3 = sl2(), sl3()
    cur2 = build_current(g)
    # (spec, highest lam-degree of the domain slices, q <= 3)
    return [
        (ComplexSpec(VIR, C, REDUCED), 7),
        (ComplexSpec(VIR, build_trivial(1, 5), REDUCED), 6),
        (ComplexSpec(VIR, build_trivial(1, Fraction(1, 2)), REDUCED), 6),
        (ComplexSpec(VIR, build_trivial(1, Fraction(-7, 3)), REDUCED), 6),
        (ComplexSpec(VIR, build_m_delta_alpha(1, 0), REDUCED), 6),
        (ComplexSpec(VIR, build_m_delta_alpha(2, Fraction(1, 3)), REDUCED), 6),
        (ComplexSpec(cur2, C, REDUCED), 3),
        (ComplexSpec(cur2, build_trivial(1, Fraction(-7, 3)), REDUCED), 3),
        (ComplexSpec(cur2, build_m_u(g, sl2_irrep(g, 4)), REDUCED), 1),
        (ComplexSpec(cur2, build_m_u(g, adjoint_rep(g)), REDUCED), 1),
        (ComplexSpec(build_current(g3), C, REDUCED), 1),
    ]


def test_slice_assembly_matches_the_ratpoly_routes():
    # columns through the placement memo and (a + sum lam_i) rows, each
    # against its former RatPoly route; one memo per fixture, as a store
    # keeps them
    counts = {"columns": 0, "mult": 0}
    for spec, dmax in _assembly_fixtures():
        placements = {}
        for q in range(4):
            for d in range(dmax + 1):
                for pair in slice_pairs(spec, q, d):
                    basis = _basis_cochain(spec, q, pair)
                    image = apply_differential(spec, basis)
                    dc = d_reduced(basis)  # every fixture is reduced
                    col = cochain_coords(image, placements)
                    assert col == _cochain_coords_oracle(dc)
                    # exact entries: the sums' ints where integral, or
                    # Fractions; d_reduced's values keep RatPoly's Fractions
                    assert all(type(x) in (int, Fraction) for x in col.values())
                    assert all(type(x) is Fraction for v in dc.values.values()
                               for p in v for x in p.terms.values())
                    counts["columns"] += bool(col)
                    assert engine._mult_coords(spec, pair) == \
                        _mult_coords_oracle(spec, q, pair), (q, pair)
                    counts["mult"] += 1
    assert counts["columns"] > 900 and counts["mult"] > 1000


def test_cancelled_entries_of_the_sums_are_skipped():
    # d of a basis 2-cochain over Vir/C_5 cancels on exponent vectors whose
    # (gen, exp) pairs repeat, such as lam1^2 lam2 lam3 on (L, L, L); the
    # sums keep them as zeros, which read no placement
    spec = ComplexSpec(VIR, build_trivial(1, 5), REDUCED)
    basis = _basis_cochain(spec, 2, (((0, 2), (0, 1)), 0))
    sums = apply_differential(spec, basis)
    assert sums[(0, 0, 0)][0][((2, 1, 1), ())] == 0
    dc = d_reduced(basis)
    coords = cochain_coords(sums, {})
    assert coords and coords == _cochain_coords_oracle(dc)


def _terms(p, q):
    """A degree-q value as monomial_coordinates reads it."""
    return {(ev, rest): c for ev, rest, c in lam_terms(p, q)}


def test_placement_memo_keeps_both_skew_assertions():
    placements = {}
    skew = _terms(L1 - L2, 2)
    assert monomial_coordinates(skew, (0, 0), placements) == {((0, 1), (0, 0)): 1}
    assert monomial_coordinates(skew, (0, 0), placements) == {((0, 1), (0, 0)): 1}
    # a cancelled entry on a repeated pair is skipped, not placed
    assert monomial_coordinates({((1, 1), ()): 0}, (0, 0), placements) == {}
    for _ in range(2):  # a placement already in the memo is checked again
        with pytest.raises(AssertionError, match="inconsistent skew value"):
            monomial_coordinates(_terms(L1 + L2, 2), (0, 0), placements)
        with pytest.raises(AssertionError, match="repeated pair"):
            monomial_coordinates(_terms(L1 * L2, 2), (0, 0), placements)
        with pytest.raises(ValueError, match="only involve lam"):
            monomial_coordinates({((1,), ((DEL, 1),)): 1}, (0,), placements)


def test_verify_cocycle_reuses_the_placements_kept_on_the_algebra(monkeypatch):
    # a placement depends only on (sorted tuple, exponent vector): a second
    # verify_cocycle on the same algebra, and a slice store on it, place no
    # key that is already in the algebra's memo
    from confcoh import skew

    placed = []
    place = skew._placement
    monkeypatch.setattr(skew, "_placement",
                        lambda exps, t: placed.append((t, exps)) or place(exps, t))
    cur2 = build_current(sl2())
    adj = adjoint_module(cur2)
    spec = ComplexSpec(cur2, adj, REDUCED)
    assert cur2._placements == {}  # filled on use
    rng = random.Random(52)
    gamma = d_reduced(random_skew_cochain(cur2, adj, 1, 2, rng, variant=REDUCED))
    assert verify_cocycle(spec, gamma).is_coboundary
    first = set(cur2._placements)
    assert first and set(placed) == first
    del placed[:]
    verify_cocycle(spec, gamma)
    assert placed == []
    for _ in range(3):
        before = set(cur2._placements)
        del placed[:]
        verify_cocycle(spec, random_skew_cochain(cur2, adj, 2, 2, rng,
                                                 variant=REDUCED))
        assert not before & set(placed)
    before = set(cur2._placements)
    del placed[:]
    SliceComplex(spec).columns(1, 2)
    assert not before & set(placed)


def test_window_mode_on_filtered_module():
    spec = ComplexSpec(VIR, build_m_delta_alpha(0, 2), REDUCED)
    table = truncation_sweep(spec, 3, 10)
    assert table.dims() == [0, 0, 0, 0]
    assert all(row.stabilized for row in table.rows)
    assert all(row.mode == "window" for row in table.rows)


def test_betti_representative_normalization_is_deterministic():
    spec = ComplexSpec(VIR, C, REDUCED)
    t1 = truncation_sweep(spec, 3, 8, representatives=True)
    t2 = truncation_sweep(spec, 3, 8, representatives=True)
    assert t1.to_json() == t2.to_json()


def test_verify_cocycle_vandermonde():
    spec = ComplexSpec(VIR, C, REDUCED)
    van = (L1 - L2) * (L1 - L3) * (L2 - L3)
    gamma = Cochain(VIR, C, 3, REDUCED, {(0, 0, 0): (van,)})
    res = verify_cocycle(spec, gamma)
    assert res.is_cocycle and not res.is_coboundary


def test_verify_cocycle_coboundary_with_witness():
    spec = ComplexSpec(VIR, C, BASIC)
    gamma = Cochain(VIR, C, 1, BASIC, {(0,): (L1,)})
    from confcoh.cochain import d_basic

    dgamma = d_basic(gamma)
    res = verify_cocycle(spec, dgamma)
    assert res.is_cocycle and res.is_coboundary
    assert d_basic(res.witness) == dgamma


def test_verify_cocycle_scalar_quotient():
    # lam1^2 - lam2^2 = d(lam1) is a coboundary in the basic complex and
    # lies in the ideal after reduction
    spec = ComplexSpec(VIR, C, REDUCED)
    gamma = Cochain(VIR, C, 2, REDUCED, {(0, 0): (L1 ** 2 - L2 ** 2,)})
    res = verify_cocycle(spec, gamma)
    assert res.is_cocycle and res.is_coboundary


def test_p1_is_a_cocycle_and_a_trivial_class():
    # lam1^2 is the image of the d-action on lam1, so it is both a cocycle
    # and the zero class in the reduced complex
    spec = ComplexSpec(VIR, C, REDUCED)
    gamma = Cochain(VIR, C, 1, REDUCED, {(0,): (L1 ** 2,)})
    res = verify_cocycle(spec, gamma)
    assert res.is_cocycle and res.is_coboundary


def test_verify_rejects_non_cocycle():
    # a unit 1-cochain: its differential restricted to lam2 = -lam1 is
    # -2 lam1, not zero, so it is not even a relative cocycle
    spec = ComplexSpec(VIR, C, REDUCED)
    gamma = Cochain(VIR, C, 1, REDUCED, {(0,): (RatPoly.const(1),)})
    res = verify_cocycle(spec, gamma)
    assert not res.is_cocycle


def test_sl2_cocycle_n1_adjoint():
    g = sl2()
    v2 = sl2_irrep(g, 2)
    ad = adjoint_rep(g)
    phi = equivariant_maps(ad, v2)[0]
    alpha = sl2_example_cocycle(g, v2, 1, phi_n=phi)
    assert alpha.validate() is None
    spec = ComplexSpec(alpha.algebra, alpha.module, REDUCED)
    res = verify_cocycle(spec, alpha)
    assert res.is_cocycle and not res.is_coboundary


def test_sl2_cocycle_n2_v4():
    g = sl2()
    v4 = sl2_irrep(g, 4)
    sym2, _ = sym_power_rep(adjoint_rep(g), 2)
    phi = equivariant_maps(sym2, v4)[0]
    alpha = sl2_example_cocycle(g, v4, 2, phi_n=phi)
    assert alpha.validate() is None
    spec = ComplexSpec(alpha.algebra, alpha.module, REDUCED)
    res = verify_cocycle(spec, alpha)
    assert res.is_cocycle and not res.is_coboundary


def test_sl2_cocycle_n3_trivial_component():
    # phi_{n-3} with n=3 lands in V(0): the class is the degree-0 generator
    g = sl2()
    v0 = sl2_irrep(g, 0)
    sym0, _ = sym_power_rep(adjoint_rep(g), 0)
    phi0 = [[Fraction(1)]]
    alpha = sl2_example_cocycle(g, v0, 3, phi_n=None, phi_n3=phi0)
    assert alpha.validate() is None
    spec = ComplexSpec(alpha.algebra, alpha.module, REDUCED)
    res = verify_cocycle(spec, alpha)
    assert res.is_cocycle and not res.is_coboundary


def test_sl2_cocycle_zero_phis():
    g = sl2()
    v2 = sl2_irrep(g, 2)
    alpha = sl2_example_cocycle(g, v2, 1)
    assert alpha.is_zero()


def test_sl2_cocycle_rejects_non_equivariant():
    g = sl2()
    v2 = sl2_irrep(g, 2)
    bad = [[Fraction(1 if (r + c) % 2 else 0) for c in range(3)] for r in range(3)]
    with pytest.raises(NotEquivariant):
        sl2_example_cocycle(g, v2, 1, phi_n=bad)


def test_vir_c_reduced_classes_localize_in_bidegree():
    # nonzero reduced cohomology of Vir/C sits only at (0,0), (2,3), (3,3)
    spec = ComplexSpec(VIR, C, REDUCED)
    dims = graded_bidegree_dims(spec, 4, 8)
    assert dims == {(0, 0): 1, (2, 3): 1, (3, 3): 1}
    # a sweep at D = 6 sums the same h over d <= D + 2 = 8
    table = truncation_sweep(spec, 4, 6)
    for q in range(5):
        assert table.dims()[q] == sum(h for (p, _), h in dims.items() if p == q)


def _graded_shift_oracle(store, qmax, dtop):
    """The former SliceComplex.graded_shift: the single lam-degree shift of
    the columns with q <= qmax and d <= dtop, or None if the complex is
    filtered."""
    if store.spec.scalar_quotient and store.spec.module.del_scalar != 0:
        return None
    shift = None
    for q in range(qmax + 1):
        for d in range(dtop + 1):
            for col in store.columns(q, d):
                for key in col:
                    s = sum(e for _, e in key[0]) - d
                    if shift is None:
                        shift = s
                    elif shift != s:
                        return None
    if shift is None:
        shift = 0
    return shift if shift >= 0 else None


def _euler_fixtures():
    g = sl2()
    cur2 = build_current(g)
    # (spec, qmax, highest d read at qmax)
    return [
        (ComplexSpec(VIR, C, REDUCED), 4, 10),
        (ComplexSpec(VIR, C, BASIC), 4, 10),
        (ComplexSpec(VIR, build_m_delta_alpha(1, 0), REDUCED), 3, 7),
        (ComplexSpec(VIR, build_m_delta_alpha(-4, 0), REDUCED), 4, 9),
        # shift 0 here: a slice (q, d) is empty once q distinct (generator,
        # exponent) pairs need a degree above d, so q reaches 6
        (ComplexSpec(cur2, C, REDUCED), 6, 4),
        (ComplexSpec(cur2, build_m_u(g, sl2_irrep(g, 2)), REDUCED), 6, 4),
        (ComplexSpec(cur2, build_m_u(g, sl2_irrep(g, 4)), REDUCED), 6, 4),
    ]


@pytest.mark.parametrize("spec, qmax, dtop", _euler_fixtures())
def test_euler_characteristic_along_each_diagonal(spec, qmax, dtop):
    """Along a diagonal d = d0 + q * shift whose quotient slice at q = qmax + 1
    is empty, the complex is finite, so sum (-1)^q (quotient slice dim) equals
    sum (-1)^q h.  graded_h takes h = n - rank(q, d) - rank(q - 1, d - shift)
    from graded_rank; this checks that the rank into (q, d) is the rank of
    the map out of (q - 1, d - shift) along the same diagonal.  It is not an
    independent rank: every rank comes from the same elimination route.
    The same h must come out in any read order: decreasing q on a fresh
    store, and the highest class read cold, with and without
    representatives.
    """
    store = SliceComplex(spec)
    shift = spec.shift
    assert shift is not None

    def quotient_dim(q, d):
        if d < 0:
            return 0
        return len(store.pairs(q, d)) - len(store._quotient(q, d)[1])

    h = {}
    for q in range(qmax + 1):
        for d in range(dtop + 1):
            h[(q, d)] = store.graded_h(q, d)[0]
    # the store has read every column of the range: the spec's shift is theirs
    assert _graded_shift_oracle(store, qmax, dtop) == shift
    backwards = SliceComplex(spec)
    for q in range(qmax, -1, -1):
        for d in range(dtop, -1, -1):
            assert backwards.graded_h(q, d)[0] == h[(q, d)], (q, d)
    cold = max(key for key, n in h.items() if n)
    assert cold[0] > 0
    assert SliceComplex(spec).graded_h(*cold)[0] == h[cold]
    n, reps = SliceComplex(spec).graded_h(*cold, True)
    assert n == len(reps) == h[cold]
    checked = classes = 0
    for d0 in range(-qmax * shift, dtop - qmax * shift + 1):
        if quotient_dim(qmax + 1, d0 + (qmax + 1) * shift):
            continue
        diagonal = [(q, d0 + q * shift) for q in range(qmax + 1)]
        chi = sum((-1) ** q * quotient_dim(q, d) for q, d in diagonal)
        assert chi == sum((-1) ** q * h.get((q, d), 0) for q, d in diagonal), d0
        checked += any(quotient_dim(q, d) for q, d in diagonal)
        classes += sum(h.get(key, 0) for key in diagonal)
    assert checked >= 3 and classes >= 1


def _check_long_exact_sequence_for_c1(algebra, bound):
    # 0 -> basic -(d-action)-> basic -> reduced -> 0 gives the long exact
    # sequence ... -> H^q(basic) -> H^q(basic) -> H^q(reduced) ->
    # H^(q+1)(basic) -> ...; the reduced cohomology with coefficients C_1
    # vanishes, so the d-action is an isomorphism on each H^q(basic) and
    # maps every basic class to a nonzero class
    c1 = build_trivial(1, 1)
    basic_spec = ComplexSpec(algebra, c1, BASIC)
    basic = truncation_sweep(basic_spec, 3, bound, representatives=True)
    reduced = truncation_sweep(ComplexSpec(algebra, c1, REDUCED), 3, bound)
    assert basic.dims() == [1, 0, 0, 1]
    assert {row.mode for row in basic.rows} == {"graded"}
    assert reduced.dims() == [0, 0, 0, 0]
    assert {row.mode for row in reduced.rows} == {"window"}
    assert all(row.stabilized for row in basic.rows + reduced.rows)
    for row in basic.rows:
        assert len(row.representatives) == row.dim
        for gamma in row.representatives:
            res = verify_cocycle(basic_spec, del_action(gamma))
            assert res.is_cocycle and not res.is_coboundary


def test_long_exact_sequence_for_c_a():
    _check_long_exact_sequence_for_c1(VIR, 8)


def test_long_exact_sequence_for_c_a_over_cur_sl2():
    # the same sequence read through the weight-0 slices of Cur sl2
    _check_long_exact_sequence_for_c1(build_current(sl2()), 6)


def test_current_degree_zero_subcomplex_is_chevalley_eilenberg():
    # an independent brute-force CE computation of H(sl2): exterior-power
    # differentials from the structure constants alone
    from itertools import combinations

    from confcoh.linalg import kernel_of_columns, rank

    g = sl2()
    n = g.dim

    def ce_columns(q):
        # d(phi)(x_0..x_q) = sum_{i<j} (-1)^(i+j) phi([x_i,x_j], ...)
        domain = list(combinations(range(n), q))
        codomain_index = {c: k for k, c in enumerate(combinations(range(n), q + 1))}
        cols = []
        for dom in domain:
            col = {}
            for cod, row in codomain_index.items():
                total = Fraction(0)
                for a in range(q + 1):
                    for b in range(a + 1, q + 1):
                        rest = tuple(
                            x for s, x in enumerate(cod) if s != a and s != b
                        )
                        for k in range(n):
                            ck = g.c[cod[a]][cod[b]][k]
                            if not ck or k in rest:
                                continue
                            merged = tuple(sorted((k,) + rest))
                            if merged == dom:
                                # sign: (-1)^(a+b) times the sort of (k,)+rest
                                order = sorted(range(q), key=lambda s: ((k,) + rest)[s])
                                sgn = 1
                                for x in range(q):
                                    for y in range(x + 1, q):
                                        if order[x] > order[y]:
                                            sgn = -sgn
                                total += ((-1) ** (a + b)) * sgn * ck
                if total:
                    col[row] = total
            cols.append(col)
        return cols

    ce_dims = []
    prev_rank = 0
    for q in range(n + 1):
        cols = ce_columns(q)
        kernel = kernel_of_columns(cols) if cols else []
        h = len(kernel) - prev_rank
        ce_dims.append(h)
        prev_rank = rank(cols)
    assert ce_dims[: n + 1] == [1, 0, 0, 1]

    spec = ComplexSpec(build_current(g), build_trivial(1, 0), BASIC)
    bidegree = graded_bidegree_dims(spec, 3, 4)
    engine_degree0 = [bidegree.get((q, 0), 0) for q in range(4)]
    assert engine_degree0 == ce_dims[:4]


def test_graded_slicing_consistent_with_window_sum():
    # per-bidegree dims equal the window computation on the direct sum
    g = sl2()
    spec = ComplexSpec(build_current(g), build_m_u(g, sl2_irrep(g, 2)), REDUCED)
    store = SliceComplex(spec)
    assert spec.shift == 0
    for q in (0, 1, 2):
        hg = sum(store.graded_h(q, d)[0] for d in range(5))
        hw, _ = store.window_h(q, 4)
        assert hg == hw


def _window_h_oracle(store, q, bound, want_reps=False):
    """The separate elimination per window: a kernel over the whole window
    (over a scalar quotient, of the columns restricted to sum lam_i = -a),
    then dim(Z & B) by three ranks, then the representatives; returns (h,
    representatives, cocycle kernel)."""
    from confcoh import linalg

    spec = store.spec
    scalar = spec.scalar_quotient
    domain = []
    zcols = []
    memo = {}
    for d in range(bound + 1):
        domain += store.pairs(q, d)
        zcols += [_restriction_coords_oracle(spec, coords_to_cochain(spec, q + 1, col),
                                             memo) if scalar else col
                  for col in store.columns(q, d)]
    kernel = linalg.kernel_of_columns(zcols)
    zvecs = [{domain[j]: x for j, x in kvec.items()} for kvec in kernel]
    brows = []
    if q > 0:
        for d in range(bound + 1):
            brows += store.columns(q - 1, d)
    if scalar:
        for d in range(bound + 1):
            brows += store.mult_rows(q, d)
    brows = [r for r in brows if r]
    h = len(zvecs) - linalg.intersection_dim(zvecs, brows)
    if not (want_reps and h > 0):
        return h, [], zvecs
    reduced, pivots = linalg.sparse_rref(brows)
    remainders = []
    for v in zvecs:
        rem = linalg.reduce_mod_span(reduced, pivots, v)
        if rem:
            remainders.append(rem)
    normal, _ = linalg.sparse_rref(remainders)
    return h, [coords_to_cochain(store.spec, q, row) for row in normal[:h]], zvecs


def _window_fixtures():
    g = sl2()
    cur = build_current(g)
    out = [pytest.param(ComplexSpec(VIR, build_trivial(1, a), REDUCED), 2, 6,
                        False, id=f"vir/ca:{a}")
           for a in (1, Fraction(1, 2), Fraction(-7, 3))]
    out += [pytest.param(ComplexSpec(cur, build_trivial(1, a), REDUCED), 2, 4,
                         False, id=f"cur_sl2/ca:{a}")
            for a in (-1, 5)]
    out += [pytest.param(ComplexSpec(VIR, build_m_delta_alpha(dl, al), REDUCED),
                         3, 5, False, id=f"vir/mda:{dl},{al}")
            for dl, al in ((1, 1), (2, Fraction(1, 3)))]
    # the bracket of an abelian current algebra is zero, so every cochain is
    # a cocycle, and the quotient by (a + sum lam_i) leaves a class count
    # that grows with the window
    out.append(pytest.param(ComplexSpec(build_current(abelian(2)), build_trivial(1, 2),
                                        REDUCED), 2, 1, True, id="cur_abelian2/ca:2"))
    # graded complexes read through the window route, where h > 0
    out += [pytest.param(ComplexSpec(VIR, C, REDUCED), 3, 3, True, id="vir/trivial"),
            pytest.param(ComplexSpec(cur, build_m_u(g, sl2_irrep(g, 2)), REDUCED),
                         2, 2, True, id="cur_sl2/V2")]
    return out


@pytest.mark.parametrize("spec, qmax, bound, has_classes", _window_fixtures())
def test_window_h_matches_separate_eliminations(spec, qmax, bound, has_classes):
    # the shared top-window kernel and the grown coboundary RREF give the
    # cocycle kernel, the h and the representatives of a separate
    # elimination per window: in the sweep's call order, in a fresh store
    # asked for one bound alone and with the bounds asked from the top down
    oracle_store = SliceComplex(spec)
    sweep = SliceComplex(spec)
    top_down = SliceComplex(spec)
    bounds = (bound, bound + 1, bound + 2)
    oracle = []
    cocycles = {}
    for q in range(qmax + 1):
        expected = {}
        for b in bounds:
            h, reps, cocycles[b] = _window_h_oracle(oracle_store, q, b, True)
            expected[b] = (h, [_coords(c) for c in reps])
        oracle.append(expected)
        sweep.window_cocycles(q, bounds[-1])
        for store, order in ((sweep, bounds), (top_down, bounds[::-1])):
            for b in order:
                h, reps = store.window_h(q, b, True)
                assert (h, [_coords(c) for c in reps]) == expected[b], (q, b)
                assert store.window_cocycles(q, b) == cocycles[b], (q, b)
        for b in bounds:
            fresh = SliceComplex(spec)
            h, reps = fresh.window_h(q, b, True)
            assert (h, [_coords(c) for c in reps]) == expected[b], (q, b)
            assert fresh.window_cocycles(q, b) == cocycles[b], (q, b)
            assert sweep.window_h(q, b) == (expected[b][0], [])
    assert any(e[b][0] for e in oracle for b in bounds) == has_classes
    table = truncation_sweep(spec, qmax, bound, representatives=True)
    if table.rows[0].mode == "window":
        for row, expected in zip(table.rows, oracle):
            hs = [expected[b][0] for b in bounds]
            assert (row.dim, [_coords(c) for c in row.representatives]) == \
                expected[bounds[-1]]
            assert row.stabilized == (hs[0] == hs[1] == hs[2])


def test_window_sweep_eliminates_once_per_degree_for_the_cocycles(monkeypatch):
    # per degree: one kernel over the top window, and seven forward-only
    # eliminations: the kernel's, three coboundary echelon forms grown from
    # bound to bound and three ranks of the remainders.  Back substitution
    # runs for the kernel alone, and for the remainders' RREF at the top
    # bound when representatives are asked for
    from confcoh import linalg

    calls = []
    for name in ("kernel_of_columns", "echelon", "_back_substitute",
                 "sparse_rref"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    spec = ComplexSpec(VIR, build_trivial(1, 1), REDUCED)
    for representatives in (False, True):
        calls.clear()
        table = truncation_sweep(spec, 2, 4, representatives)
        assert {row.mode for row in table.rows} == {"window"}
        assert calls.count("kernel_of_columns") == 3
        assert calls.count("echelon") == 3 * 7
        assert calls.count("sparse_rref") == 3 * representatives
        assert calls.count("_back_substitute") == 3 + 3 * representatives


def test_verify_cocycle_finds_coboundaries_of_nonzero_weight():
    # d of the 0-cochain with value e has h-weight 2: its primitive lies
    # outside the weight-0 pairs that the Betti store reads
    g = sl2()
    spec = ComplexSpec(build_current(g), build_m_u(g, adjoint_rep(g)), REDUCED)
    e = g.names.index("e")
    beta = Cochain(spec.algebra, spec.module, 0, REDUCED,
                   {(): tuple(RatPoly.const(int(u == e)) for u in range(3))})
    gamma = d_reduced(beta)
    assert gamma
    res = verify_cocycle(spec, gamma)
    assert res.is_cocycle and res.is_coboundary
    assert d_reduced(res.witness) == gamma


def _c_a_fixtures():
    cur2, ab2 = build_current(sl2()), build_current(abelian(2))
    out = [pytest.param(ComplexSpec(VIR, build_trivial(1, a), REDUCED), 2, 3, False,
                        id=f"vir/ca:{a}") for a in (Fraction(1, 2), 5, 0)]
    out += [pytest.param(ComplexSpec(cur2, build_trivial(1, a), REDUCED), 2, 2, False,
                         id=f"cur_sl2/ca:{a}") for a in (Fraction(-7, 3), 0)]
    out.append(pytest.param(ComplexSpec(ab2, build_trivial(1, 2), REDUCED), 2, 2, True,
                            id="cur_abelian2/ca:2"))
    return out


@pytest.mark.parametrize("spec, qmax, degmax, abelian", _c_a_fixtures())
def test_verify_cocycle_agrees_with_the_restriction(spec, qmax, degmax, abelian):
    # a reduced cochain over C_a is a cocycle when d of it vanishes on the
    # hyperplane sum lam_i = -a; verify_cocycle decides it against the
    # (a + sum lam_i) image rows instead.  Random cochains c, their d c and
    # (a + sum lam_i) c, the last a cocycle whose d need not be 0
    rng = random.Random(23)
    a = spec.module.del_scalar
    memo = {}
    seen = set()
    for q in range(qmax + 1):
        factor = RatPoly.const(a) + lam_sum(q)
        for _ in range(4):
            c = random_skew_cochain(spec.algebra, spec.module, q, degmax, rng,
                                    variant=REDUCED)
            for gamma in (c, d_reduced(c), c.scale(factor)):
                dc = d_reduced(gamma)
                want = not _restriction_coords_oracle(spec, dc, memo)
                assert verify_cocycle(spec, gamma).is_cocycle == want, (q, gamma)
                seen.add((want, bool(dc)))
    # the abelian bracket is zero: every d c lies in the image, none is 0
    assert seen == ({(True, True)} if abelian else {(False, True), (True, True)})


def test_full_slice_columns_keep_the_cartan_weight():
    g = sl2()
    spec = ComplexSpec(build_current(g), build_m_u(g, sl2_irrep(g, 2)), REDUCED)
    full = slice_pairs(spec, 1, 1)
    weight_zero = SliceComplex(spec).pairs(1, 1)
    assert weight_zero == [p for p in full if p in weight_zero]
    assert 0 < len(weight_zero) < len(full)
    # d commutes with theta(h): the column of a pair of nonzero weight has
    # its entries at pairs of the same weight
    (weights,) = engine.cartan_weights(spec)
    pairs, columns = _full_slice(spec, 1, 1)
    seen = 0
    for pair, column in zip(pairs, columns):
        w = engine._weight(weights, pair)
        if w and column:
            assert {engine._weight(weights, p) for p in column} == {w}, pair
            seen += 1
    assert seen


def _conjugated_v2(g):
    """V(2) in a basis where h acts by a matrix that is not diagonal."""
    p = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    p_inv = [[1, -1, 0], [0, 1, 0], [0, 0, 1]]

    def mul(a, b):
        return [[sum(a[r][k] * b[k][s] for k in range(3)) for s in range(3)]
                for r in range(3)]

    return Rep(g, [mul(mul(p_inv, m), p) for m in sl2_irrep(g, 2).mats])


def _weight_fixtures():
    from confcoh.cli import parse_module

    g2, g3 = sl2(), sl3()
    cur2, cur3 = build_current(g2), build_current(g3)
    out = [pytest.param(ComplexSpec(cur2, C, variant), 3, 4, True,
                        id=f"cur_sl2/trivial/{variant}")
           for variant in (BASIC, REDUCED)]
    out += [pytest.param(ComplexSpec(cur2, build_m_u(g2, sl2_irrep(g2, m)), REDUCED),
                         2, 3, True, id=f"cur_sl2/V{m}") for m in range(7)]
    out += [
        pytest.param(ComplexSpec(cur2, build_m_u(g2, adjoint_rep(g2)), REDUCED),
                     2, 3, True, id="cur_sl2/adjoint"),
        # h is skipped, not trusted, when it acts by a matrix that is not
        # diagonal; sl2 has no other Cartan generator
        pytest.param(ComplexSpec(cur2, build_m_u(g2, _conjugated_v2(g2)), REDUCED),
                     2, 3, False, id="cur_sl2/V2_conjugated"),
        pytest.param(ComplexSpec(cur3, C, REDUCED), 2, 2, True, id="cur_sl3/trivial"),
        pytest.param(ComplexSpec(cur3, build_m_u(g3, adjoint_rep(g3)), REDUCED),
                     1, 2, True, id="cur_sl3/adjoint"),
        pytest.param(ComplexSpec(cur3, parse_module("mu:wedge2modg", "cur:sl3", g3)[0],
                                 REDUCED), 1, 1, True, id="cur_sl3/wedge2modg"),
    ]
    out += [pytest.param(ComplexSpec(cur2, build_trivial(1, a), REDUCED), 2, 4, True,
                         id=f"cur_sl2/ca:{a}") for a in (1, Fraction(-7, 3))]
    # every weight of an abelian current algebra is 0
    out.append(pytest.param(ComplexSpec(build_current(abelian(2)), build_trivial(1, 2),
                                        REDUCED), 2, 1, False, id="cur_abelian2/ca:2"))
    return out


def _betti_reading(spec, qmax, bound):
    """The sweep rows (dim, stabilized, mode, representative coordinates)
    and, for a graded complex, the same per bidegree."""
    def coords(reps):
        return [_coords(c) for c in reps]

    table = truncation_sweep(spec, qmax, bound, representatives=True)
    rows = [(row.dim, row.stabilized, row.mode, coords(row.representatives))
            for row in table.rows]
    store = SliceComplex(spec)
    assert spec.shift == _graded_shift_oracle(store, qmax, bound)
    if spec.shift is None:
        return rows, None
    per_bidegree = {}
    for q in range(qmax + 1):
        for d in range(bound + 1):
            h, reps = store.graded_h(q, d, True)
            per_bidegree[(q, d)] = (h, coords(reps))
    dims = graded_bidegree_dims(spec, qmax, bound)
    assert dims == {key: h for key, (h, _) in per_bidegree.items() if h}
    return rows, per_bidegree


@pytest.mark.parametrize("spec, qmax, bound, filtered", _weight_fixtures())
def test_weight_zero_slices_match_the_full_slices(spec, qmax, bound, filtered,
                                                  monkeypatch):
    # the full slices, with no Cartan weight detected, are the oracle
    assert bool(cartan_weights(spec)) == filtered
    weight_zero = _betti_reading(spec, qmax, bound)
    monkeypatch.setattr(engine, "cartan_weights", lambda spec: [])
    assert _betti_reading(spec, qmax, bound) == weight_zero


@pytest.mark.parametrize("m", range(9))
def test_criterion_7_classes_of_cur_sl2_sit_at_their_bidegrees(m):
    # dim H^n(Cur sl2, M_V(m)) = [m in {2n, 2(n-3)}] for n <= 4: the m = 2n
    # class at d = n(n+1)/2, the m = 2(n-3) class at d = (n-3)(n-2)/2.  H^4
    # of M_V(8) sits at d = 10: a sweep with bound 4 reads d <= 6 only and
    # reports H^4 = 0, stabilized
    g = sl2()
    spec = ComplexSpec(build_current(g), build_m_u(g, sl2_irrep(g, m)), REDUCED)
    want = {}
    for n in range(5):
        if m == 2 * n:
            want[(n, n * (n + 1) // 2)] = 1
        if m == 2 * (n - 3):
            want[(n, (n - 3) * (n - 2) // 2)] = 1
    assert graded_bidegree_dims(spec, 4, 10) == want


def test_goncharova_r3_classes_of_vir_m_minus_14():
    # Delta = 1 - (3r^2 + r)/2 = -14 for r = 3: dims 1, 2, 1 in q = 3, 4, 5
    # at d = (1 - Delta) + r = 18 and 19
    spec = ComplexSpec(VIR, build_m_delta_alpha(-14, 0), REDUCED)
    assert graded_bidegree_dims(spec, 5, 20) == {
        (3, 18): 1, (4, 18): 1, (4, 19): 1, (5, 19): 1}


def test_basic_trivial_table_of_cur_sl3_is_lambda_x3_x5():
    # H(sl3) = Lambda(x_3, x_5): classes in q = 0, 3, 5 and 8, all at d = 0
    spec = ComplexSpec(build_current(sl3()), C, BASIC)
    assert graded_bidegree_dims(spec, 8, 3) == {
        (0, 0): 1, (3, 0): 1, (5, 0): 1, (8, 0): 1}


# -- slice columns from one placement against the former kernel route -----------


def _differential_image(spec, q, pair):
    """The former slice column route: the kernel's sums of d on a basis
    pair, fed as every placement of the shape (``skew.element_terms``) in
    component u."""
    elem, u = pair
    comps = [{} for _ in range(spec.module.dim)]
    comps[u] = element_terms(elem, q)
    return term_sums(spec.algebra, spec.module, q, spec.variant,
                     {element_tuple(elem): comps})


def _orbit_fixtures():
    g, g3 = sl2(), sl3()
    cur2, cur3 = build_current(g), build_current(g3)
    ab2 = build_current(abelian(2))
    # (spec, qmax, highest lam-degree of the domain slices)
    fixtures = [
        (ComplexSpec(VIR, C, REDUCED), 5, 9),
        (ComplexSpec(VIR, C, BASIC), 5, 9),
        (ComplexSpec(VIR, build_m_delta_alpha(1, 0), REDUCED), 4, 7),
        (ComplexSpec(VIR, build_m_delta_alpha(-14, 0), REDUCED), 4, 12),
        (ComplexSpec(VIR, build_m_delta_alpha(0, 2), REDUCED), 3, 7),
        (ComplexSpec(VIR, build_m_delta_alpha(2, Fraction(1, 3)), REDUCED), 3, 7),
        (ComplexSpec(VIR, build_trivial(1, 5), REDUCED), 3, 7),
        (ComplexSpec(VIR, build_trivial(1, Fraction(-7, 3)), REDUCED), 3, 7),
        (ComplexSpec(cur2, C, BASIC), 4, 4),
        (ComplexSpec(cur2, build_trivial(1, Fraction(1, 2)), REDUCED), 3, 4),
        (ComplexSpec(cur3, C, BASIC), 4, 1),
        (ComplexSpec(cur3, build_m_u(g3, adjoint_rep(g3)), REDUCED), 2, 1),
        (ComplexSpec(ab2, C, REDUCED), 3, 4),
        (ComplexSpec(ab2, build_trivial(1, 2), REDUCED), 3, 4),
    ]
    fixtures += [(ComplexSpec(cur2, build_m_u(g, sl2_irrep(g, m)), REDUCED),
                  3 if m < 8 else 4, 2 if m < 8 else 3) for m in range(9)]
    return fixtures


def test_slice_columns_match_the_former_kernel_route():
    # every column of the full slice and of the slice store (its weight-0 pairs)
    # against d of the shape's full skew value read back through the
    # placement memo
    counts = {"columns": 0, "specs": 0}
    for spec, qmax, dmax in _orbit_fixtures():
        store = SliceComplex(spec)
        placements = {}
        sorted_memo = dict(spec.algebra._placements)
        for q in range(qmax + 1):
            for d in range(dmax + 1):
                pairs, cols = _full_slice(spec, q, d)
                want = {}
                for pair, col in zip(pairs, cols):
                    image = _differential_image(spec, q, pair)
                    want[pair] = cochain_coords(image, placements)
                    assert col == want[pair], (q, pair)
                    counts["columns"] += bool(col)
                weight_zero = store.pairs(q, d)
                assert store.columns(q, d) == [want[p] for p in weight_zero]
        counts["specs"] += 1
        # the slice columns place unsorted tuples apart from the sorted-tuple
        # memo, whose entries raise on a repeated pair
        assert spec.algebra._placements == sorted_memo
    assert counts["specs"] == 23
    assert counts["columns"] > 6000


def test_orbit_placements_sort_with_sign_and_drop_repeated_pairs():
    from confcoh.skew import placement as _orbit_placement

    assert _orbit_placement((), ()) == ((), 1)
    assert _orbit_placement((1, 0), (0, 2)) == (((1, 0), (0, 2)), 1)
    assert _orbit_placement((0, 1), (2, 0)) == (((1, 0), (0, 2)), -1)
    # one generator: the exponents alone order the pairs
    assert _orbit_placement((0, 0, 0), (1, 3, 2)) == (
        ((0, 3), (0, 2), (0, 1)), 1)
    assert _orbit_placement((0, 0, 0), (1, 2, 3)) == (
        ((0, 3), (0, 2), (0, 1)), -1)
    assert _orbit_placement((0, 1, 0), (1, 5, 1)) == (None, 0)


def test_doubled_coordinates_are_halved_exactly():
    from confcoh.kernel import _half

    assert _half(4) == 2 and type(_half(4)) is int
    assert _half(-6) == -3
    assert _half(Fraction(3)) == Fraction(3, 2)
    assert _half(Fraction(4, 3)) == Fraction(2, 3)
    assert type(_half(Fraction(2))) is int
    with pytest.raises(AssertionError, match="odd doubled skew coordinate 3"):
        _half(3)


def _gens_algebra(names, brackets):
    from confcoh.algebra import ConformalAlgebra
    from confcoh.poly import parse_poly

    n = len(names)
    table = [[[RatPoly.zero()] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), text in brackets.items():
        table[i][j][k] = parse_poly(text)
    return ConformalAlgebra(names, table)


@pytest.mark.parametrize("names, brackets, failure", [
    (["L"], {(0, 0, 0): "lam1"}, (0, 0, 0)),
    # Vir's bracket with the wrong sign on d
    (["L"], {(0, 0, 0): "2*lam1 - d"}, (0, 0, 0)),
    # [a_lam b] = b with no [b_lam a]
    (["a", "b"], {(0, 1, 1): "1"}, (0, 1, 1)),
    # [b_lam a] = b with no [a_lam b]: the check scans (i, j, k) in order,
    # so the zero entry [a_lam b] meets its nonzero mirror first
    (["a", "b"], {(1, 0, 1): "1"}, (0, 1, 1)),
    # skew in the generators but not in lam: [a_lam b] = lam b = [b_lam a]
    (["a", "b"], {(0, 1, 1): "lam1", (1, 0, 1): "lam1"}, (0, 1, 1)),
])
def test_a_non_skew_bracket_is_refused(names, brackets, failure):
    from confcoh.algebra import check_skew_symmetry

    alg = _gens_algebra(names, brackets)
    ok, witness = check_skew_symmetry(alg)
    assert not ok and witness[:3] == failure
    for module in (C, build_trivial(1, 2)):
        for variant in (BASIC, REDUCED):
            with pytest.raises(UnsupportedComplex, match=re.escape(
                    f"not skew-symmetric at (a, b, k) = {failure}")):
                ComplexSpec(alg, module, variant)


def test_skew_brackets_pass_the_skew_check():
    from confcoh.algebra import check_skew_symmetry

    g = sl2()
    algebras = [VIR, build_current(g), build_current(sl3()),
                build_current(abelian(2)),
                _gens_algebra(["a", "b"], {(0, 1, 1): "lam1 + d",
                                           (1, 0, 1): "lam1"})]
    for alg in algebras:
        assert check_skew_symmetry(alg) == (True, None)
        ComplexSpec(alg, C, REDUCED)
    ComplexSpec(VIR, build_m_delta_alpha(1, 0), REDUCED)
    ComplexSpec(build_current(g), build_m_u(g, adjoint_rep(g)), REDUCED)


# -- the grading read from the spec ----------------------------------------------


def test_the_spec_shift_is_the_degree_of_its_terms():
    g = sl2()
    cur2 = build_current(g)
    assert ComplexSpec(VIR, C, REDUCED).shift == 1
    assert ComplexSpec(VIR, build_trivial(1, 2), BASIC).shift == 1
    assert ComplexSpec(VIR, build_trivial(1, 2), REDUCED).shift is None
    assert ComplexSpec(VIR, build_m_delta_alpha(-4, 0), REDUCED).shift == 1
    assert ComplexSpec(VIR, build_m_delta_alpha(1, 1), REDUCED).shift is None
    assert ComplexSpec(cur2, build_m_u(g, sl2_irrep(g, 2)), REDUCED).shift == 0
    # no nonzero term at all
    assert ComplexSpec(build_current(abelian(2)), C, REDUCED).shift == 0
    with pytest.raises(TypeError):
        ComplexSpec(VIR, C, REDUCED, "", 1)


def test_a_filtered_complex_is_filtered_at_qmax_0():
    # at q = 0 the reduced cut leaves d + 1 + lam1 as the constant 1, so the
    # q = 0 columns of Vir/M_{1,1} alone look homogeneous
    spec = ComplexSpec(VIR, build_m_delta_alpha(1, 1), REDUCED)
    assert _graded_shift_oracle(SliceComplex(spec), 0, 10) == 0
    assert spec.shift is None
    with pytest.raises(UnsupportedComplex, match="filtered"):
        graded_bidegree_dims(spec, 0, 8)


def test_a_filtered_spec_is_refused_before_any_column(monkeypatch):
    def no_column(*args):
        raise AssertionError("a column was read")

    monkeypatch.setattr(engine, "_column", no_column)
    for module in (build_m_delta_alpha(0, 2), build_trivial(1, 5)):
        with pytest.raises(UnsupportedComplex, match="filtered"):
            graded_bidegree_dims(ComplexSpec(VIR, module, REDUCED), 3, 8)


def test_a_torsion_generator_is_refused():
    # Vir with a central term, d acting on C by 0: skew-symmetric and Jacobi
    # as a torsion algebra, refused as such rather than as a non-skew bracket
    from confcoh.algebra import ConformalAlgebra, check_jacobi, check_skew_symmetry
    from confcoh.poly import parse_poly

    zero = RatPoly.zero()
    table = [[(parse_poly("d + 2*lam1"), parse_poly("lam1^3")), (zero, zero)],
             [(zero, zero), (zero, zero)]]
    central = ConformalAlgebra(["L", "C"], table, del_scalars=(None, Fraction(0)))
    assert check_skew_symmetry(central)[0] and check_jacobi(central)[0]
    for variant in (BASIC, REDUCED):
        with pytest.raises(UnsupportedComplex,
                           match="no torsion generator; d acts by a scalar on C$"):
            ComplexSpec(central, C, variant)
