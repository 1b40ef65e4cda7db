"""Bases of skew-symmetric cochain value shapes, per bidegree.

A degree-homogeneous skew cochain over ``g`` generators is spanned by full
antisymmetrizations of elementary shapes  e_{k_1} lam1^{m_1} ... e_{k_q}
lamq^{m_q}.  Two shapes antisymmetrize to the same element (up to sign) iff
their (generator, exponent) pair multisets agree, and a shape with a repeated
pair antisymmetrizes to zero, so a basis is indexed by strictly-decreasing
pair sequences under the lexicographic pair order (generator index first).

For a single generator this reduces to strictly-decreasing exponent
sequences, i.e. partitions of degree - q(q-1)/2 into at most q parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .poly import RatPoly, lam

_PERM_CACHE = {}


def permutation_sign(perm):
    """The parity of a sequence of distinct numbers, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def signed_permutations(q):
    """All (perm, sign) for S_q; perm maps slot s (0-based) -> perm[s]."""
    out = _PERM_CACHE.get(q)
    if out is None:
        out = _PERM_CACHE[q] = tuple(
            (p, permutation_sign(p)) for p in permutations(range(q))
        )
    return out


@dataclass(frozen=True)
class SkewBasis:
    q: int
    degree: int
    gens: int
    elements: tuple  # strictly-decreasing tuples of (gen, exp) pairs


def skew_basis(q, degree, gens):
    """Enumerate the skew basis in bidegree (q, degree) over ``gens`` generators."""
    if q < 0 or degree < 0 or gens < 1:
        raise ValueError("q >= 0, degree >= 0, gens >= 1 required")
    if q == 0:
        elems = ((),) if degree == 0 else ()
        return SkewBasis(q, degree, gens, elems)

    out = []

    def descend(prefix, slots_left, deg_left, max_pair):
        if slots_left == 0:
            if deg_left == 0:
                out.append(tuple(prefix))
            return
        # Pairs strictly below max_pair in (gen, exp) lex order.
        top_gen, top_exp = max_pair
        for k in range(top_gen, -1, -1):
            e_hi = top_exp - 1 if k == top_gen else deg_left
            for e in range(min(e_hi, deg_left), -1, -1):
                # Remaining slots need distinct pairs below (k, e); the
                # cheapest tail uses exponents 0..slots_left-2 on gen k and
                # below, so prune only on achievable degree.
                prefix.append((k, e))
                descend(prefix, slots_left - 1, deg_left - e, (k, e))
                prefix.pop()

    descend([], q, degree, (gens - 1, degree + 1))
    out.sort()
    return SkewBasis(q, degree, gens, tuple(out))


def element_tuple(elem):
    """The sorted generator tuple on which the element's value lives."""
    return tuple(sorted(k for k, _ in elem))


def element_value(elem, q):
    """Value polynomial of the antisymmetrized basis element on its sorted tuple."""
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


def monomial_coordinates(terms, sorted_tuple, placements):
    """Decompose a skew value on a sorted tuple into basis coordinates.

    ``terms`` is the value as {(lam exponents, rest): coeff}, the format of
    ``cochain._d_terms`` sums; their cancelled zeros are skipped, and a
    nonzero term with a rest (d or a parameter) raises.  Returns {element:
    coefficient}.  Exponent vectors whose (gen, exp) pairs repeat belong to
    no basis element and must carry coefficient zero; the redundant reads
    of one element from its q! placements must agree (both are asserted,
    catching non-skew input).  ``placements`` is the caller's memo of the
    (element, sign) of each (tuple, exponent vector) read so far.
    """
    coords = {}
    for (exps, rest), coeff in terms.items():
        if not coeff:
            continue
        if rest:
            raise ValueError("slice values must only involve lam variables")
        key = (sorted_tuple, exps)
        placed = placements.get(key)
        if placed is None:
            placed = placements[key] = _placement(exps, sorted_tuple)
        elem, sign = placed
        c = coeff if sign == 1 else -coeff
        prev = coords.get(elem)
        if prev is None:
            coords[elem] = c
        elif prev != c:
            raise AssertionError(f"inconsistent skew value at {elem}")
    return coords


def _placement(exps, sorted_tuple):
    """The basis element an exponent vector on a sorted tuple reads, and
    the sign of the sort that places it."""
    q = len(sorted_tuple)
    pairs = [(sorted_tuple[s], exps[s]) for s in range(q)]
    order = sorted(range(q), key=lambda s: pairs[s], reverse=True)
    elem = tuple(pairs[s] for s in order)
    if any(elem[i] == elem[i + 1] for i in range(q - 1)):
        raise AssertionError(f"repeated pair with nonzero coefficient: {elem}")
    return elem, permutation_sign(order)


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


def count_partitions_at_most(n, parts):
    """Number of partitions of n into at most ``parts`` parts (0 if n < 0)."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for k in range(1, parts + 1):
        for m in range(k, n + 1):
            table[m] += table[m - k]
    return table[n]
