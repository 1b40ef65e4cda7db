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

from itertools import permutations, product

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


class SkewBasis:
    __slots__ = ("q", "degree", "gens", "elements")

    def __init__(self, q, degree, gens, elements):
        self.q = q
        self.degree = degree
        self.gens = gens
        self.elements = elements  # strictly-decreasing tuples of (gen, exp) pairs


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


def element_terms(elem, q):
    """The value of the antisymmetrized basis element on its sorted tuple, as
    {(lam exponents, ()): sign}, the term format of ``kernel._d_terms``.

    Its placements put each pair on a slot of its own generator: pair s
    goes to slot perm[s], with the sign of perm.  The element's pairs
    decrease and the sorted tuple increases, so the pairs of one generator
    are one run of the element, and its slots one run of the tuple, after
    the slots of the smaller generators: a run whose last pair is at index
    j - 1 starts at slot q - j.  A placement maps each run onto its slots in order,
    which inverts every two pairs of different runs, then permutes within
    the runs; its sign is the product.  S_0 has one placement, the empty
    one, so q = 0 gives {((), ()): 1}.  Pairs of one generator have
    distinct exponents, so no two placements give the same exponent vector.
    """
    exps = [0] * q
    runs = []  # (first element index, first slot, length) of the longer runs
    inversions = 0
    i = 0
    while i < q:
        j = i + 1
        while j < q and elem[j][0] == elem[i][0]:
            j += 1
        slot = q - j
        inversions += (j - i) * slot
        for a in range(i, j):
            exps[slot + a - i] = elem[a][1]
        if j - i > 1:
            runs.append((i, slot, j - i))
        i = j
    sign = -1 if inversions % 2 else 1
    if not runs:
        return {(tuple(exps), ()): sign}
    terms = {}
    for choice in product(*(signed_permutations(n) for _, _, n in runs)):
        placed = sign
        for (first, slot, _), (perm, psign) in zip(runs, choice):
            placed *= psign
            for a, b in enumerate(perm):
                exps[slot + b] = elem[first + a][1]
        terms[(tuple(exps), ())] = placed
    return terms


def monomial_coordinates(terms, sorted_tuple, placements):
    """Decompose a skew value on a sorted tuple into basis coordinates.

    ``terms`` is the value as {(lam exponents, rest): coeff}, the format of
    ``kernel._d_terms`` sums; their cancelled zeros are skipped, and a
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
    elem, sign = placement(sorted_tuple, exps)
    if elem is None:
        elem = tuple(sorted(zip(sorted_tuple, exps), reverse=True))
        raise AssertionError(f"repeated pair with nonzero coefficient: {elem}")
    return elem, sign


def placement(T, ev):
    """(shape, sign) of the alternation of the monomial with exponents ev
    on the generator tuple T: its (generator, exponent) pairs sorted
    decreasingly and the sign of that sort, or (None, 0) when a pair
    repeats."""
    pairs = list(zip(T, ev))
    order = sorted(range(len(pairs)), key=pairs.__getitem__, reverse=True)
    shape = tuple(pairs[s] for s in order)
    if any(shape[i] == shape[i + 1] for i in range(len(shape) - 1)):
        return None, 0
    return shape, permutation_sign(order)
