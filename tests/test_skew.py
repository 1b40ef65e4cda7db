from itertools import product

from confcoh.cochain import lam_terms
from confcoh.poly import RatPoly, lam
from confcoh.skew import (
    element_terms,
    element_tuple,
    monomial_coordinates,
    signed_permutations,
    skew_basis,
)
from oracles import element_value


L = [None] + [RatPoly.var(lam(i)) for i in range(1, 6)]


def _terms(p, q):
    """A degree-q value as monomial_coordinates reads it."""
    return {(ev, rest): c for ev, rest, c in lam_terms(p, q)}


def vandermonde(q):
    out = RatPoly.const(1)
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            out = out * (L[i] - L[j])
    return out


def test_single_generator_q3_degree3_is_vandermonde():
    basis = skew_basis(3, 3, 1)
    assert len(basis.elements) == 1
    value = element_value(basis.elements[0], 3)
    v3 = vandermonde(3)
    # proportional with a rational factor
    ratio = None
    for mono, c in value.terms.items():
        ratio = c / v3.terms[mono]
        break
    assert value == ratio * v3


def test_single_generator_q2_degree2():
    basis = skew_basis(2, 2, 1)
    assert len(basis.elements) == 1
    value = element_value(basis.elements[0], 2)
    assert value == L[1] ** 2 - L[2] ** 2 or value == L[2] ** 2 - L[1] ** 2


def test_q1_degree0_constant_shape():
    basis = skew_basis(1, 0, 1)
    assert len(basis.elements) == 1
    assert element_value(basis.elements[0], 1) == RatPoly.const(1)


def count_partitions_at_most(n, parts):
    """Number of partitions of n into at most ``parts`` parts (0 if n < 0)."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for k in range(1, parts + 1):
        for m in range(k, n + 1):
            table[m] += table[m - k]
    return table[n]


def test_counts_match_partitions_single_generator():
    for q in range(5):
        for d in range(11):
            expect = count_partitions_at_most(d - q * (q - 1) // 2, q)
            assert len(skew_basis(q, d, 1).elements) == expect


def test_elements_change_sign_under_adjacent_transposition():
    for q, d, g in [(2, 3, 2), (3, 4, 2), (2, 2, 3)]:
        for elem in skew_basis(q, d, g).elements:
            t = element_tuple(elem)
            value = element_value(elem, q)
            for s in range(q - 1):
                if t[s] != t[s + 1]:
                    continue
                swap = {lam(s + 1): L[s + 2], lam(s + 2): L[s + 1]}
                assert value.subst_many(swap) == -value


def _element_value_oracle(elem, q):
    """The former element_value: a RatPoly sum over the permutations that
    place the element's pairs on slots of their own generator."""
    if q == 0:
        return RatPoly.const(1)
    t = element_tuple(elem)
    total = RatPoly.zero()
    for perm, sign in signed_permutations(q):
        if any(t[perm[s]] != elem[s][0] for s in range(q)):
            continue
        mono = tuple(
            sorted((lam(perm[s] + 1), elem[s][1]) for s in range(q) if elem[s][1])
        )
        total = total + RatPoly({mono: sign})
    return total


def test_element_terms_are_the_terms_of_element_value():
    checked = 0
    for q in range(5):
        for d in range(7):
            for g in range(1, 4):
                for elem in skew_basis(q, d, g).elements:
                    terms = element_terms(elem, q)
                    value = element_value(elem, q)
                    assert value == _element_value_oracle(elem, q)
                    assert terms == _terms(value, q)
                    assert all(type(c) is int for c in terms.values())
                    checked += 1
    assert checked > 1000


def _element_terms_walk(elem, q):
    """The former element_terms: the walk over all of S_q, keeping the
    permutations that put each pair on a slot of its own generator."""
    t = element_tuple(elem)
    terms = {}
    for perm, sign in signed_permutations(q):
        if any(t[perm[s]] != elem[s][0] for s in range(q)):
            continue
        exps = [0] * q
        for s in range(q):
            exps[perm[s]] = elem[s][1]
        key = (tuple(exps), ())
        terms[key] = terms.get(key, 0) + sign
    return {key: c for key, c in terms.items() if c}


def test_element_terms_match_the_walk_over_all_placements():
    # placements per generator run against the walk over S_q, up to q = 8 on
    # the eight generators of Cur sl3 (the weight-0 slices of its trivial
    # table read d = 0), and on up to three generators at higher degree
    checked = 0
    windows = [(q, d, 8) for q in range(9) for d in range(2 if q < 5 else 1)]
    windows += [(q, d, g) for q in range(6) for d in range(7) for g in (1, 2, 3)]
    for q, d, g in windows:
        for elem in skew_basis(q, d, g).elements:
            assert element_terms(elem, q) == _element_terms_walk(elem, q), elem
            checked += 1
    assert checked > 2400


def skew_symmetrize(raw, q):
    """Plain alternation of a tuple-indexed polynomial family.

    ``raw`` maps every ordered generator q-tuple to a value (RatPoly or a
    tuple of RatPoly); the result maps sorted tuples to the alternating sum
    over simultaneous permutations of slots and lam indices.
    """
    if q == 0:
        return dict(raw)
    keys = set()
    for t in raw:
        keys.add(tuple(sorted(t)))
    out = {}
    for t in sorted(keys):
        total = None
        for perm, sign in signed_permutations(q):
            permuted = tuple(t[perm[s]] for s in range(q))
            val = raw.get(permuted)
            if val is None:
                continue
            relabel = {lam(s + 1): RatPoly.var(lam(perm[s] + 1)) for s in range(q)}
            if isinstance(val, tuple):
                term = tuple(sign * p.subst_many(relabel) for p in val)
                total = term if total is None else tuple(
                    a + b for a, b in zip(total, term)
                )
            else:
                term = sign * val.subst_many(relabel)
                total = term if total is None else total + term
        if total is not None:
            out[t] = total
    return out


def test_alternation_of_symmetric_input_is_zero():
    raw = {(0, 0): L[1] * L[2] + 3}
    out = skew_symmetrize(raw, 2)
    assert not out or all(p.is_zero() for p in out.values() if not isinstance(p, tuple))


def test_alternation_of_skew_input_multiplies_by_factorial():
    raw = {(0, 0): L[1] - L[2]}
    out = skew_symmetrize(raw, 2)
    assert out[(0, 0)] == 2 * (L[1] - L[2])


def test_alternation_of_lam1_on_two_slots():
    raw = {(0, 0): L[1]}
    out = skew_symmetrize(raw, 2)
    assert out[(0, 0)] == L[1] - L[2]


def test_coordinates_round_trip():
    placements = {}  # one memo across every read
    for q, d, g in [(1, 4, 2), (2, 3, 2), (3, 3, 1), (2, 4, 3)]:
        basis = skew_basis(q, d, g)
        for elem in basis.elements:
            coords = monomial_coordinates(_terms(element_value(elem, q), q),
                                          element_tuple(elem), placements)
            assert coords == {elem: 1}


def test_brute_force_alternation_lands_in_span():
    # alternate every monomial shape and reconstruct it from the basis
    for q, d, g in [(2, 4, 1), (3, 5, 1), (2, 3, 2)]:
        lookup = {e: e for e in skew_basis(q, d, g).elements}
        for gens in product(range(g), repeat=q):
            for exps in product(range(d + 1), repeat=q):
                if sum(exps) != d:
                    continue
                mono = tuple(sorted((lam(s + 1), e) for s, e in enumerate(exps) if e))
                raw = {gens: RatPoly({mono: 1})}
                full = {t: RatPoly.zero() for t in product(range(g), repeat=q)}
                full.update(raw)
                out = skew_symmetrize(full, q)
                for t, val in out.items():
                    if val.is_zero():
                        continue
                    coords = monomial_coordinates(_terms(val, q), t, {})
                    for elem in coords:
                        assert elem in lookup
