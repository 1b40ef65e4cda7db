import random
from fractions import Fraction

import pytest

from confcoh.algebra import (
    build_current,
    build_m_delta_alpha,
    build_m_u,
    build_trivial,
    build_vir,
)
from confcoh.cochain import BASIC, REDUCED, Cochain, del_action, random_skew_cochain
from confcoh.engine import (
    ComplexSpec,
    SliceComplex,
    assemble,
    cochain_coords,
    coords_to_cochain,
    graded_bidegree_dims,
    sl2_example_cocycle,
    truncation_sweep,
    verify_cocycle,
)
from confcoh.errors import NotEquivariant, UnsupportedComplex
from confcoh.liealg import (
    abelian,
    adjoint_rep,
    equivariant_maps,
    sl2,
    sl2_irrep,
    sym_power_rep,
)
from confcoh.poly import RatPoly, lam

VIR = build_vir()
C = build_trivial(1, 0)
L1, L2, L3 = (RatPoly.var(lam(i)) for i in (1, 2, 3))


def test_unsupported_basic_free():
    with pytest.raises(UnsupportedComplex):
        ComplexSpec(VIR, build_m_delta_alpha(1, 0), BASIC)


def test_coords_round_trip():
    spec = ComplexSpec(build_current(sl2()), build_m_u(sl2(), adjoint_rep(sl2())),
                       REDUCED)
    rng = random.Random(5)
    gamma = random_skew_cochain(spec.algebra, spec.module, 2, 3, rng,
                                variant=REDUCED)
    coords = cochain_coords(gamma)
    assert coords_to_cochain(spec, 2, coords) == gamma


def test_assemble_vir_c_reduced_slice():
    # q=2 -> 3 at lam-degree 3: one quotient generator mapping onto the
    # Vandermonde direction
    spec = ComplexSpec(VIR, C, REDUCED)
    pairs, cols = assemble(spec, 2, 3)
    assert len(pairs) == 2  # raw slice, before the quotient
    nonzero = [c for c in cols if c]
    assert nonzero
    for col in nonzero:
        for (elem, u) in col:
            assert sum(e for _, e in elem) == 4


def test_assemble_empty_domain():
    spec = ComplexSpec(VIR, C, REDUCED)
    pairs, cols = assemble(spec, 3, 1)  # no skew shapes of degree 1 on 3 slots
    assert pairs == [] and cols == []


def test_slice_matrix_composition_is_zero():
    # d_{q+1} o d_q = 0 on every assembled adjacent pair
    from confcoh.liealg import sl3

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
                pairs, cols = assemble(spec, q, d)
                for pair, col in zip(pairs, cols):
                    image = coords_to_cochain(spec, q + 1, col)
                    from confcoh.engine import apply_differential

                    assert apply_differential(spec, image).is_zero() or \
                        cochain_coords(apply_differential(spec, image)) == {}


def test_window_and_graded_agree_on_vir_c():
    store = SliceComplex(ComplexSpec(VIR, C, REDUCED))
    assert store.graded_shift(3, 9) == 1
    for q in range(4):
        hg = sum(store.graded_h(q, d, 1)[0] for d in range(7))
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
    checked = 0
    for spec in specs:
        store = SliceComplex(spec)
        for q in range(3):
            for d in range(5):
                matrices = [store.columns(q, d)]
                if spec.scalar_quotient:
                    matrices += [store.mult_rows(q, d),
                                 store.restricted_columns(q, d)]
                for vectors in matrices:
                    keys = list(dict.fromkeys(k for v in vectors for k in v))
                    dense = [[v.get(k, 0) for k in keys] for v in vectors]
                    assert rank_bareiss(dense) == rank(vectors)
                    checked += rank(vectors) > 0
    assert checked > 0


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


def test_long_exact_sequence_for_c_a():
    # 0 -> basic -(d-action)-> basic -> reduced -> 0 gives the long exact
    # sequence ... -> H^q(basic) -> H^q(basic) -> H^q(reduced) ->
    # H^(q+1)(basic) -> ...; the reduced cohomology of Vir/C_1 vanishes, so
    # the d-action is an isomorphism on each H^q(basic) and maps every basic
    # class to a nonzero class
    c1 = build_trivial(1, 1)
    basic_spec = ComplexSpec(VIR, c1, BASIC)
    basic = truncation_sweep(basic_spec, 3, 8, representatives=True)
    reduced = truncation_sweep(ComplexSpec(VIR, c1, REDUCED), 3, 8)
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
    shift = store.graded_shift(2, 6)
    assert shift == 0
    for q in (0, 1, 2):
        hg = sum(store.graded_h(q, d, shift)[0] for d in range(5))
        hw, _ = store.window_h(q, 4)
        assert hg == hw


def _window_h_oracle(store, q, bound, want_reps=False):
    """The separate elimination per window: a kernel over the whole window,
    then dim(Z & B) by three ranks, then the representatives."""
    from confcoh import linalg

    scalar = store.spec.scalar_quotient
    domain = []
    zcols = []
    for d in range(bound + 1):
        domain += store.pairs(q, d)
        zcols += store.restricted_columns(q, d) if scalar else store.columns(q, d)
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
        return h, []
    reduced, pivots = linalg.sparse_rref(brows)
    remainders = []
    for v in zvecs:
        rem = linalg.reduce_mod_span(reduced, pivots, v)
        if rem:
            remainders.append(rem)
    normal, _ = linalg.sparse_rref(remainders)
    return h, [coords_to_cochain(store.spec, q, row) for row in normal[:h]]


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
    # h and the representatives of a separate elimination per window: in
    # the sweep's call order, in a fresh store asked for one bound alone and
    # with the bounds asked from the top down
    oracle_store = SliceComplex(spec)
    sweep = SliceComplex(spec)
    top_down = SliceComplex(spec)
    bounds = (bound, bound + 1, bound + 2)
    oracle = []
    for q in range(qmax + 1):
        expected = {}
        for b in bounds:
            h, reps = _window_h_oracle(oracle_store, q, b, True)
            expected[b] = (h, [cochain_coords(c) for c in reps])
        oracle.append(expected)
        sweep.window_cocycles(q, bounds[-1])
        for store, order in ((sweep, bounds), (top_down, bounds[::-1])):
            for b in order:
                h, reps = store.window_h(q, b, True)
                assert (h, [cochain_coords(c) for c in reps]) == expected[b], (q, b)
        for b in bounds:
            h, reps = SliceComplex(spec).window_h(q, b, True)
            assert (h, [cochain_coords(c) for c in reps]) == expected[b], (q, b)
            assert sweep.window_h(q, b) == (expected[b][0], [])
    assert any(e[b][0] for e in oracle for b in bounds) == has_classes
    table = truncation_sweep(spec, qmax, bound, representatives=True)
    if table.rows[0].mode == "window":
        for row, expected in zip(table.rows, oracle):
            hs = [expected[b][0] for b in bounds]
            assert (row.dim, [cochain_coords(c) for c in row.representatives]) == \
                expected[bounds[-1]]
            assert row.stabilized == (hs[0] == hs[1] == hs[2])


def test_window_sweep_eliminates_once_per_degree_for_the_cocycles(monkeypatch):
    # per degree: one kernel over the top window, three coboundary RREFs
    # grown from bound to bound and three RREFs of the remainders
    from confcoh import linalg

    calls = []
    for name in ("kernel_of_columns", "sparse_rref"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda rows, real=real, name=name:
                            calls.append(name) or real(rows))
    table = truncation_sweep(ComplexSpec(VIR, build_trivial(1, 1), REDUCED), 2, 4)
    assert {row.mode for row in table.rows} == {"window"}
    assert calls.count("kernel_of_columns") == 3
    assert calls.count("sparse_rref") == 3 * 7
