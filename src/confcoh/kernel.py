"""The differential kernel that every cochain variant shares.

Every differential is built from three kinds of term, each with a
position and a sign: a generator acting on the value at the other slots
from the left, or (Hochschild) from the right, and a product of two
arguments fed into one slot.  One term loop, ``_d_terms``, adds all three;
each kind of differential lists its actions and products (``_layout``).
What the loop reads depends on the bracket support, q, the storage and
those lists, never on the values, so it is tabled once per algebra: a
``ReadPlan`` gives, for each stored tuple, the output tuples that read it
with their action and product reads (slots, signs, the sort of a skew fed
tuple), filled on first use for the tuples read.  Two expansion tables are
filled the same way, in ints where integral (binomials of the entries'
terms, no RatPoly arithmetic), and kept on the algebra and on the module:

* bracket: table[a][b][k](x, d := -(x+y)) * (x+y)^e -- the bracket fed
  into a slot at parameter x+y, times that slot's lam^e in the value;
* action, keyed by side: action[g][r][u](x, d) * (d + x)^m on the left,
  right_action[g][r][u](lam1 := -d - x, d) * (d + x)^m on the right --
  the sesquilinear shift of a value's d^m under the action at parameter x.

Values come in and sums go out in one term format: per tuple, one {(lam
exponents, rest): coeff} dict per component, rest being the monomial in d
and the named parameters, coefficients Python ints where integral
(``lam_terms`` reads a RatPoly into it).  The sums keep cancelled entries
as zeros.  Both reduced variants cut d := -(lam1 + ... + lam_{q+1}) on the
sums, through the multinomial table of ``poly.multinomials``
(``_cut_del``); parameters such as mu stay in each term's rest.
``cochain.term_sums`` maps each variant to its kind of plan and its cut,
and a cochain stores the sums as its terms.

The engine's slice columns take a shorter route, ``skew_column``: a skew
basis shape is the alternation of one monomial, so d of it is one action
read and one bracket read per slot of that monomial, through the same
expansion tables, each term placed straight into skew-basis coordinates;
no read plan and no sums.  It needs a skew-symmetric bracket, which
``engine.ComplexSpec`` checks through ``algebra.check_skew_symmetry``.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from operator import add

from .poly import DEL, _mono_mul, exact, is_lam, multinomials
from .skew import permutation_sign, placement

# the kinds of read plan: both Lie variants share one, both Hochschild ones
# another; the other names are the cochain variants'
LIE = "lie"
LEIBNIZ = "leibniz"
HOCHSCHILD = "hochschild"
CYCLIC = "cyclic"


# -- the term format -----------------------------------------------------------
#
# A term is (lam exponents over lam1..lam_n, rest, coeff): rest is the
# monomial in d and the named parameters, coeff an int where integral.


def lam_terms(poly, n):
    """The terms of poly, whose lam indices must be at most n."""
    out = []
    for mono, coeff in poly.terms.items():
        ev = [0] * n
        rest = []
        for v, e in mono:
            if is_lam(v):
                if v[1] > n:
                    raise ValueError(
                        f"a degree-{n} cochain value uses lam{v[1]}"
                    )
                ev[v[1] - 1] = e
            else:
                rest.append((v, e))
        out.append((tuple(ev), tuple(rest), exact(coeff)))
    return out


def _split_del(rest):
    """(exponent of d, the rest without d) of a term's rest monomial."""
    if rest and rest[0][0] == DEL:
        return rest[0][1], rest[1:]
    return 0, rest


# -- read plans and expansion tables -------------------------------------------


def _nonzero_bracket_pairs(algebra):
    """{output generator: [(i, j) with nonzero bracket component]}; cached."""
    cache = getattr(algebra, "_nonzero_pairs", None)
    if cache is None:
        n = algebra.ngens
        cache = {k: [] for k in range(n)}
        for i in range(n):
            for j in range(n):
                vec = algebra.table[i][j]
                for k in range(n):
                    if vec[k]:
                        cache[k].append((i, j))
        algebra._nonzero_pairs = cache
    return cache


def _layout(kind, q, acts):
    """(skew, actions, products) of a differential on degree-q cochains.

    * actions (i, sign, right): the generator T[i] acting at lam_{i+1} on
      the value at the other slots, which read lam_1..lam_{i}, lam_{i+2}..
      in order; through ``module.action`` on the left, or
      ``module.right_action`` on the right;
    * products (i, j, pos, sign): [T[i]_lam_{i+1} T[j]] fed into slot
      ``pos`` of the other arguments (kept in order) at lam_{i+1} +
      lam_{j+1}.

    ``acts``: whether the module acts (a free module); Hochschild cochains
    always act, cyclic ones never.  The sequences are documented with the
    differentials in ``cochain``.
    """
    out_q = q + 1
    if kind == LIE:
        products = [(i, j, 0, -1 if (i + j) % 2 else 1)
                    for i in range(out_q) for j in range(i + 1, out_q)]
    elif kind == LEIBNIZ:
        products = [(i, j, j - 1, -1 if (i + 1) % 2 else 1)
                    for i in range(out_q) for j in range(i + 1, out_q)]
    elif kind == HOCHSCHILD:
        products = [(s, s + 1, s, -1 if (s + 1) % 2 else 1) for s in range(q)]
    else:
        products = [(s, s + 1, s, -1 if s % 2 else 1) for s in range(q)]
        products.append((q, 0, 0, -1 if q % 2 else 1))
    if kind == HOCHSCHILD:
        actions = [(0, 1, False), (q, -1 if out_q % 2 else 1, True)]
    elif acts:
        actions = [(i, -1 if i % 2 else 1, False) for i in range(out_q)]
    else:
        actions = []
    return kind == LIE, actions, products


class ReadPlan:
    """What one differential reads, independent of the cochain's values.

    Made per (kind, q, whether the module acts) and kept on the algebra
    (``read_plan``).  For each stored tuple t that a differentiated cochain
    holds, ``reads(t)`` is the sorted list of output tuples T whose d reads
    t, each with its reads of t:

    * action reads (i, sign, right, g): g = T[i] acting at slot i;
    * product reads (i, j, a, b, k, sign, bslot, targets): the component k
      of [a_lam b], a = T[i] and b = T[j], fed into the slot that is the
      stored lam_{bslot+1}; ``targets`` sends each other stored lam_{s+1}
      to its output slot, and ``sign`` carries the product's sign and the
      parity of the sort that stores the fed tuple (skew storage).

    Each output's reads are found once (``_output_reads``); the outputs of
    a stored tuple are those reads, inverted over a superset of candidates
    (the generators inserted by the actions and the pairs (a, b) with a
    nonzero [a_lam b] component replacing a stored k).  Both are filled on
    first use, for the tuples read only.
    """

    __slots__ = ("table", "ngens", "pairs_for", "q", "skew", "actions",
                 "layouts", "_by_output", "_by_stored")

    def __init__(self, algebra, kind, q, acts):
        # the bracket table and its support, not the algebra: a plan kept on
        # the algebra must not refer back to it, or the two form a cycle
        # that outlives the algebra's last user until the collector runs
        self.table = algebra.table
        self.ngens = algebra.ngens
        self.pairs_for = _nonzero_bracket_pairs(algebra)
        self.q = q
        self.skew, self.actions, products = _layout(kind, q, acts)
        out_q = q + 1
        self.layouts = []
        for i, j, pos, sign in products:
            others = [s for s in range(out_q) if s != i and s != j]
            # output slot read by each slot of the fed tuple; None: the bracket
            slots = others[:pos] + [None] + others[pos:]
            self.layouts.append((i, j, pos, sign, others, slots))
        self._by_output = {}
        self._by_stored = {}

    def reads(self, t):
        """[(T, action reads, product reads)] of the outputs T reading t."""
        out = self._by_stored.get(t)
        if out is None:
            out = []
            for T in self._candidates(t):
                found = self._output_reads(T).get(t)
                if found is not None:
                    out.append((T, *found))
            self._by_stored[t] = out
        return out

    def _candidates(self, t):
        """Sorted output tuples that may read the stored tuple t."""
        ngens, pairs_for = self.ngens, self.pairs_for
        out = set()
        if self.skew:
            # sorted outputs: one insertion stands for all
            if self.actions:
                out.update(tuple(sorted(t + (g,))) for g in range(ngens))
            if self.layouts:
                for p in range(self.q):
                    rest = t[:p] + t[p + 1:]
                    out.update(tuple(sorted(rest + ab))
                               for ab in pairs_for[t[p]])
        else:
            for i, _, _ in self.actions:
                out.update(t[:i] + (g,) + t[i:] for g in range(ngens))
            for i, j, pos, _, others, _ in self.layouts:
                rest = t[:pos] + t[pos + 1:]
                for a, b in pairs_for[t[pos]]:
                    T = [None] * (self.q + 1)
                    for s, g in zip(others, rest):
                        T[s] = g
                    T[i], T[j] = a, b
                    out.add(tuple(T))
        return sorted(out)

    def _output_reads(self, T):
        """{stored tuple: (action reads, product reads)} of the output T."""
        found = self._by_output.get(T)
        if found is not None:
            return found
        found = self._by_output[T] = {}
        q = self.q
        for i, sign, right in self.actions:
            stored = T[:i] + T[i + 1:]
            found.setdefault(stored, ([], []))[0].append((i, sign, right, T[i]))
        for i, j, pos, psign, others, slots in self.layouts:
            a, b = T[i], T[j]
            rest = tuple(T[s] for s in others)
            for k, entry in enumerate(self.table[a][b]):
                if not entry:
                    continue
                fed = rest[:pos] + (k,) + rest[pos:]
                # skew values are stored on the sorted tuple: the stored
                # lam_{s+1} reads slot perm[s] of the fed tuple
                perm = (sorted(range(q), key=fed.__getitem__) if self.skew
                        else range(q))
                stored = tuple(fed[p] for p in perm)
                targets = tuple((s, slots[p]) for s, p in enumerate(perm)
                                if p != pos)
                found.setdefault(stored, ([], []))[1].append(
                    (i, j, a, b, k, psign * permutation_sign(perm),
                     perm.index(pos), targets))
        return found


def read_plan(algebra, kind, q, acts):
    """The ReadPlan of one differential, kept on the algebra."""
    key = (kind, q, acts)
    plan = algebra._read_plans.get(key)
    if plan is None:
        plan = algebra._read_plans[key] = ReadPlan(algebra, kind, q, acts)
    return plan


def _bracket_expansion(algebra, a, b, k, e):
    """[(ex, ey, rest, coeff)]: table[a][b][k](x, d := -(x+y)) * (x+y)^e.

    x and y are the parameters of the two bracketed slots; rest is the
    monomial of the named parameters.  Each entry term c x^p d^m becomes
    (-1)^m c x^p (x+y)^(m+e), expanded by binomials, in ints where integral.
    """
    cache = algebra._bracket_expansions
    key = (a, b, k, e)
    terms = cache.get(key)
    if terms is None:
        acc = {}
        for (p,), rest, c in lam_terms(algebra.table[a][b][k], 1):
            m, rest = _split_del(rest)
            if m % 2:
                c = -c
            n = m + e
            for s in range(n + 1):
                term = (p + s, n - s, rest)
                acc[term] = acc.get(term, 0) + c * comb(n, s)
        terms = cache[key] = [(ex, ey, rest, exact(c))
                              for (ex, ey, rest), c in acc.items() if c]
    return terms


def _action_expansion(module, right, g, u, m):
    """[(r, [(ex, ed, rest, coeff)])] over the rows r with a nonzero entry
    in column u: action[g][r][u](x, d) * (d + x)^m, or, on the right,
    right_action[g][r][u](lam1 := -d - x, d) * (d + x)^m.

    The sesquilinear shift of a value term d^m under the action at slot
    parameter x.  An entry term c lam1^p d^n becomes c x^p d^n (d + x)^m on
    the left and (-1)^p c d^n (d + x)^(p+m) on the right, expanded by
    binomials, in ints where integral.
    """
    cache = module._action_expansions
    key = (right, g, u, m)
    rows = cache.get(key)
    if rows is None:
        rows = []
        mat = (module.right_action if right else module.action)[g]
        for r in range(module.dim):
            if not mat[r][u]:
                continue
            acc = {}
            for (p,), rest, c in lam_terms(mat[r][u], 1):
                n, rest = _split_del(rest)
                top = m
                if right:
                    c = -c if p % 2 else c
                    p, top = 0, p + m
                for s in range(top + 1):
                    term = (p + s, n + top - s, rest)
                    acc[term] = acc.get(term, 0) + c * comb(top, s)
            rows.append((r, [(ex, ed, rest, exact(c))
                             for (ex, ed, rest), c in acc.items() if c]))
        cache[key] = rows
    return rows


# -- the term loop and the reduced cut -----------------------------------------


def _d_terms(algebra, module, plan, split):
    """The sums of d on the values ``split`` ({stored tuple: per component
    {(lam exponents, rest): coeff}}): per output tuple, one {(lam
    exponents, rest): coeff} accumulator per component.

    The plan says which outputs read each stored tuple and how; every term
    is expanded through the cached tables above and added straight into the
    accumulators, whose coefficients stay int where integral and may cancel
    to zero; ``cochain`` stores them as a cochain's terms.  The outputs come
    in sorted order.
    """
    out_q = plan.q + 1
    dim = module.dim
    sums = {}
    for t, inner in split.items():
        for T, action_reads, product_reads in plan.reads(t):
            acc = sums.get(T)
            if acc is None:
                acc = sums[T] = [{} for _ in range(dim)]
            for i, sign, right, g in action_reads:
                for u, terms in enumerate(inner):
                    for (ev, rest), coeff in terms.items():
                        m, params = _split_del(rest)
                        coeff *= sign
                        head, tail = ev[:i], ev[i:]
                        for r, expansion in _action_expansion(module, right, g,
                                                              u, m):
                            comp = acc[r]
                            for ex, ed, hrest, hc in expansion:
                                rest = (_mono_mul(params, hrest) if hrest
                                        else params)
                                if ed:
                                    rest = ((DEL, ed),) + rest
                                key = (head + (ex,) + tail, rest)
                                comp[key] = comp.get(key, 0) + coeff * hc
            for i, j, a, b, k, sign, bslot, targets in product_reads:
                for comp, terms in zip(acc, inner):
                    for (ev, rest), coeff in terms.items():
                        coeff *= sign
                        lv = [0] * out_q
                        for s, o in targets:
                            lv[o] = ev[s]
                        for ex, ey, grest, gc in _bracket_expansion(
                            algebra, a, b, k, ev[bslot]
                        ):
                            lv[i] = ex
                            lv[j] = ey
                            key = (tuple(lv),
                                   _mono_mul(rest, grest) if grest else rest)
                            comp[key] = comp.get(key, 0) + coeff * gc
    order = sorted(sums) if len(split) > 1 else sums
    return {T: sums[T] for T in order if any(sums[T])}


def skew_column(algebra, module, q, elem, u, cut):
    """Coordinates {(shape, r): coeff} of d of the skew basis pair (elem, u)
    of a Lie complex, read from one placement of the shape.

    The shape's cochain is the alternation Alt over S_q of the monomial m
    that puts its pairs on slots 0..q-1 in its own (decreasing) order, and
    d commutes with the alternation, so for a skew-symmetric bracket

        d Alt(m) = Alt( A[m] - 1/2 sum_s (-1)^s sum_(a, b) P_s^ab[m] ):

    A[m] is the module action at output slot 0 on m at slots 1..q (over a
    free module); P_s^ab[m] feeds component m_s of [a_lam1 b] into slot s of
    m at lam1 + lam2, the other pairs of m going to slots 2..q in order.
    Alt of a monomial on an unsorted tuple is the basis shape of its pairs
    sorted decreasingly, with the sign of that sort, or zero if a pair
    repeats.  Here the pairs of m left in place stay sorted, so a term is
    placed by inserting its one or two new pairs (``_above``).  Skew
    symmetry makes P_s^ab and P_s^ba alternate to the same thing, so only
    a <= b is read, a < b counting twice; the doubled sums are halved
    exactly at the end, an odd int meaning a non-skew bracket.  ``cut``:
    d := -(lam1 + ... + lam_{q+1}) on the action's d^m, which is symmetric
    and so commutes with Alt; it spreads d^m over every slot, so those terms
    are sorted whole (``skew.placement``).  The bracket expansion puts
    d := -(lam1 + lam2) itself.
    """
    coords = {}  # (shape, component): twice its coefficient
    if module.is_free():
        up = elem[::-1]
        for g in range(algebra.ngens):
            for r, expansion in _action_expansion(module, False, g, u, 0):
                for ex, ed, rest, c in expansion:
                    if rest or (ed and not cut):
                        raise ValueError(
                            "slice values must only involve lam variables")
                    if not ed:
                        x = (g, ex)
                        p = _above(up, x)
                        if p >= 0:
                            key = (elem[:p] + (x,) + elem[p:], r)
                            coords[key] = coords.get(key, 0) + (
                                -2 * c if p % 2 else 2 * c)
                        continue
                    c = -2 * c if ed % 2 else 2 * c
                    T = (g,) + tuple(k for k, _ in elem)
                    ev = (ex,) + tuple(e for _, e in elem)
                    for k, mult in multinomials(q + 1, ed):
                        shape, sign = placement(T, tuple(map(add, ev, k)))
                        if sign:
                            key = (shape, r)
                            coords[key] = coords.get(key, 0) + sign * c * mult
    for s, (slot_sign, pairs) in enumerate(_skew_bracket_pairs(algebra, elem)):
        k, e = elem[s]
        rest = elem[:s] + elem[s + 1:]
        up = rest[::-1]
        for a, b, weight in pairs:
            w = slot_sign * weight
            for ex, ey, grest, c in _bracket_expansion(algebra, a, b, k, e):
                if grest:
                    raise ValueError(
                        "slice values must only involve lam variables")
                # x != y: for a = b a skew bracket has no x^p y^p term
                x, y = (a, ex), (b, ey)
                px, py = _above(up, x), _above(up, y)
                if px < 0 or py < 0:
                    continue
                # the sort of (x, y, rest...) inverts px + py pairs, and
                # one more if x < y
                if x > y:
                    shape = rest[:px] + (x,) + rest[px:py] + (y,) + rest[py:]
                    odd = (px + py) % 2
                else:
                    shape = rest[:py] + (y,) + rest[py:px] + (x,) + rest[px:]
                    odd = not (px + py) % 2
                key = (shape, u)
                coords[key] = coords.get(key, 0) + (-w * c if odd else w * c)
    return {key: _half(c) for key, c in coords.items() if c}


def _skew_bracket_pairs(algebra, elem):
    """Per slot s of a shape: (-(-1)^s, [(a, b, weight)]) over the a <= b
    whose [a_lam b] has a nonzero component elem[s][0], weight 2 for a < b
    and 1 for a = b."""
    cache = getattr(algebra, "_skew_pairs", None)
    if cache is None:
        cache = algebra._skew_pairs = {
            k: [(a, b, 2 if a < b else 1) for a, b in pairs if a <= b]
            for k, pairs in _nonzero_bracket_pairs(algebra).items()}
    return [(1 if s % 2 else -1, cache[k]) for s, (k, _) in enumerate(elem)]


def _above(up, x):
    """The number of pairs above x in a strictly decreasing tuple of pairs,
    given as its reverse ``up``, or -1 if x is one of them."""
    i = bisect_left(up, x)
    if i < len(up) and up[i] == x:
        return -1
    return len(up) - i


def _half(c):
    """c / 2 for a doubled coordinate, exactly; an odd int cannot come
    from a skew-symmetric bracket."""
    if type(c) is int:
        if c & 1:
            raise AssertionError(f"odd doubled skew coordinate {c}")
        return c >> 1
    return exact(c / 2)


def _cut_del(sums, out_q):
    """``_d_terms`` sums, or any terms, with d := -(lam_1 + ... +
    lam_{out_q}), expanded through the multinomial table; parameters stay
    in each term's rest, and exponents past lam_{out_q} in place."""
    out = {}
    for T, acc in sums.items():
        out[T] = cut = [{} for _ in acc]
        for comp, new in zip(acc, cut):
            for (ev, rest), coeff in comp.items():
                if not (rest and rest[0][0] == DEL):
                    key = (ev, rest)
                    new[key] = new.get(key, 0) + coeff
                    continue
                m, rest = rest[0][1], rest[1:]
                if m % 2:
                    coeff = -coeff
                tail = ev[out_q:]
                for k, mult in multinomials(out_q, m):
                    key = (tuple(map(add, ev, k)) + tail, rest)
                    new[key] = new.get(key, 0) + coeff * mult
    return out
