"""Cochains and the differentials of every complex variant.

A degree-q cochain assigns to generator q-tuples a module-valued polynomial
in lam1..lamq (and d, through a free module).  Conformal antilinearity is
not stored; it is the evaluation rule: feeding d^m L^k into a slot with
parameter p multiplies by (-p)^m.  The Lie variants are skew under
simultaneous permutation of slots and lam indices, so their values are
stored on non-decreasing generator tuples only and recovered elsewhere by
the permutation rule; Hochschild/cyclic/Leibniz values are stored on all
tuples.

Variants:

* ``basic`` / ``reduced``  -- the Lie complexes; ``reduced`` values over a
  free module contain no d (the canonical representative with
  d := -(lam1+...+lamq)); over a scalar module they are plain polynomial
  representatives and the quotient by (a + sum lam_i) is taken by the
  engine.
* ``hochschild`` / ``hochschild_reduced`` -- associative coefficients in a
  conformal bimodule.
* ``cyclic``  -- C-valued, invariant up to the sign (-1)^n under cyclic
  shift of the n+1 arguments.
* ``leibniz`` -- no symmetry constraint.

Every differential is built from three kinds of term, each with a
position and a sign: a generator acting on the value at the other slots
from the left, or (Hochschild) from the right, and a product of two
arguments fed into one slot.  One kernel, ``_d_terms``, enumerates all
three; each variant supplies its list of actions and products.  The kernel
is table-driven.  Two expansion tables are filled lazily, on first use,
and kept on the algebra and on the module:

* bracket: table[a][b][k](x, d := -(x+y)) * (x+y)^e -- the bracket fed
  into a slot at parameter x+y, times that slot's lam^e in the value;
* action, keyed by side: action[g][r][u](x, d) * (d + x)^m on the left,
  right_action[g][r][u](lam1 := -d - x, d) * (d + x)^m on the right --
  the sesquilinear shift of a value's d^m under the action at parameter x.

One term format runs from the input values to the elimination: per
tuple, one {(lam exponents, rest): coeff} dict per component, rest being
the monomial in d and the named parameters.  Each value of the input is
split once into it (``_split_values``); every term of the differential is
a table lookup added into dicts of the same format, the kernel's sums,
which keep cancelled entries as zeros.  Integral coefficients stay Python
ints.  The engine reads the sums of ``lie_sums`` directly; the
differentials build RatPoly values from them (``terms_to_vec``), where
coefficients become Fractions, so ``RatPoly.terms`` keeps its {monomial:
Fraction} contract.  Both reduced variants cut d := -(lam1 + ... +
lam_{q+1}) on the sums, through the multinomial table of
``poly.multinomials`` (``_cut_del``); parameters such as mu stay in each
term's rest.

Slot insertion (``slot_insert``, ``value_with_params``, and the calculus
through ``add_inserted``) and the annihilation phi table read the same
split values; slot insertion keeps them on the cochain.
A skew value's stored lam_{s+1} goes to the parameter of slot perm[s] on
its exponent vector, with the permutation's sign.  A bare lam parameter is
a relabel; any other, such as mu + lam_i, is a ``SlotParam`` whose powers
are expanded once, in ints where integral, and the argument's d becomes
-slot_param through the same powers (``antilinear_feeds``).  The terms go
into per-component dicts as above; no RatPoly is substituted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add

from .errors import ParseError, WrongModuleKind
from .poly import (
    DEL,
    RatPoly,
    _mono_mul,
    exact,
    is_lam,
    lam,
    multinomials,
    parse_poly,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_subst,
    zero_vec,
)
from .skew import element_tuple, element_value, permutation_sign, skew_basis

BASIC = "basic"
REDUCED = "reduced"
HOCHSCHILD = "hochschild"
HOCHSCHILD_REDUCED = "hochschild_reduced"
CYCLIC = "cyclic"
LEIBNIZ = "leibniz"
VARIANTS = (BASIC, REDUCED, HOCHSCHILD, HOCHSCHILD_REDUCED, CYCLIC, LEIBNIZ)

_SKEW_VARIANTS = (BASIC, REDUCED)
_DELP = RatPoly.var(DEL)

_LAMV = [None]


def lam_var(i):
    while len(_LAMV) <= i:
        _LAMV.append(RatPoly.var(lam(len(_LAMV))))
    return _LAMV[i]


def lam_sum(q):
    """lam1 + ... + lamq."""
    return sum((lam_var(s + 1) for s in range(q)), RatPoly.zero())


def sorted_tuples(ngens, q):
    return combinations_with_replacement(range(ngens), q)


def all_tuples(ngens, q):
    return product(range(ngens), repeat=q)


class Cochain:
    def __init__(self, algebra, module, q, variant, values):
        self.algebra = algebra
        self.module = module
        self.q = q
        self.variant = variant
        if variant in _SKEW_VARIANTS:
            for t in values:
                if tuple(sorted(t)) != t:
                    raise ValueError("skew cochains store sorted tuples only")
        self.values = {t: v for t, v in values.items() if not vec_is_zero(v)}
        # _split_values(self) for slot insertion, and phi_eval's {tuple:
        # {lam exponents: value}} table; both filled on use
        self._split = None
        self._phi_table = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, algebra, module, q, variant=BASIC):
        return cls(algebra, module, q, variant, {})

    @classmethod
    def from_basis_element(cls, algebra, module, q, variant, elem, u_index):
        """Cochain u_(u_index) x (antisymmetrized skew-basis element)."""
        poly = element_value(elem, q)
        vec = tuple(
            poly if b == u_index else RatPoly.zero() for b in range(module.dim)
        )
        t = element_tuple(elem) if q else ()
        return cls(algebra, module, q, variant, {t: vec})

    def copy_with(self, values=None, variant=None, q=None):
        return Cochain(
            self.algebra,
            self.module,
            self.q if q is None else q,
            self.variant if variant is None else variant,
            self.values if values is None else values,
        )

    # -- vector space structure ---------------------------------------------

    def __add__(self, other):
        if (
            other.q != self.q
            or other.variant != self.variant
            or other.module is not self.module
        ):
            raise ValueError("cochain mismatch")
        out = dict(self.values)
        for t, v in other.values.items():
            out[t] = vec_add(out[t], v) if t in out else v
        return self.copy_with(values=out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self.copy_with(
            values={t: vec_scale(c, v) for t, v in self.values.items()}
        )

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.q == other.q
            and self.variant == other.variant
            and self.values == other.values
        )

    # -- evaluation ----------------------------------------------------------

    def value_on(self, t):
        """Value on an arbitrary generator tuple, in canonical lam1..lamq."""
        st, perm = self._stored(t)
        base = self.values.get(st)
        if base is None:
            return zero_vec(self.module.dim)
        if st == t:
            return base
        sign = permutation_sign(perm)
        relabel = {
            lam(s + 1): lam_var(perm[s] + 1)
            for s in range(self.q)
            if perm[s] != s
        }
        out = vec_subst(base, relabel) if relabel else base
        return out if sign == 1 else vec_scale(-1, out)

    def value_with_params(self, t, params):
        """Value with the s-th slot parameter set to params[s] (simultaneous)."""
        if not t:
            return self.value_on(t)
        n = lam_count(params)
        acc = [{} for _ in range(self.module.dim)]
        self.add_inserted(acc, [(t[0], unit_terms(n))], 0, t[1:],
                          [SlotParam(p, n) for p in params])
        return terms_to_vec(acc, n)

    def slot_insert(self, avec, slot_param, rest_gens, rest_params, pos=0):
        """Feed an algebra-valued polynomial into the slot at ``pos``.

        The argument's d is consumed by conformal antilinearity at the slot
        parameter: d^m L^k contributes (-slot_param)^m gamma(..., L^k, ...).
        """
        # only generators whose fed tuple has a stored value are expanded
        split = self._split_table()
        avec = [
            p if self._stored(rest_gens[:pos] + (k,) + rest_gens[pos:])[0]
            in split else RatPoly.zero()
            for k, p in enumerate(avec)
        ]
        if vec_is_zero(avec):
            return zero_vec(self.module.dim)
        n = lam_count([slot_param, *rest_params, *avec])
        slot = SlotParam(slot_param, n)
        params = [SlotParam(p, n) for p in rest_params]
        params.insert(pos, slot)
        acc = [{} for _ in range(self.module.dim)]
        self.add_inserted(acc, antilinear_feeds(avec, slot), pos, rest_gens,
                          params)
        return terms_to_vec(acc, n)

    def add_inserted(self, acc, feeds, pos, rest_gens, params, scale=1):
        """Add scale * sum_k scal_k * gamma(rest_gens with k at ``pos``), the
        s-th slot at params[s], into ``acc``: per component,
        {(lam exponents, rest): coeff}.

        ``feeds`` is [(k, scal_k terms)] from ``antilinear_feeds`` and
        ``params`` holds one SlotParam per slot of the fed tuple.  A skew
        value is read on the sorted tuple: its stored lam_{s+1} is the slot
        perm[s], so it takes params[perm[s]], and the permutation's sign.
        """
        split = self._split_table()
        for k, scal in feeds:
            stored, perm = self._stored(rest_gens[:pos] + (k,)
                                        + rest_gens[pos:])
            comps = split.get(stored)
            if comps is None:
                continue
            sign = scale * permutation_sign(perm)
            read = [params[p] for p in perm]
            n = read[0].n
            for comp, terms in zip(acc, comps):
                for (ev, rest), coeff in terms.items():
                    # bare lam parameters relabel; the others expand
                    lv = [0] * n
                    powers = []
                    for p, e in zip(read, ev):
                        if not e:
                            continue
                        if p.lam is None:
                            powers.append(p.power(e))
                        else:
                            lv[p.lam] += e
                    parts = [(tuple(lv), rest, coeff * sign)]
                    for terms_e in powers:
                        parts = mul_terms(parts, terms_e)
                    for key_ev, key_rest, c in mul_terms(parts, scal):
                        key = (key_ev, key_rest)
                        comp[key] = comp.get(key, 0) + c

    def _stored(self, t):
        """(stored tuple, perm) for a value on t: the stored lam_{s+1} is
        slot perm[s] of t, the value signed by the parity of perm."""
        if self.variant not in _SKEW_VARIANTS:
            return t, range(self.q)
        perm = sorted(range(self.q), key=t.__getitem__)
        return tuple(t[p] for p in perm), perm

    def _split_table(self):
        """``_split_values`` of this cochain, read once and kept."""
        if self._split is None:
            self._split = _split_values(self)
        return self._split

    def eval_on_elements(self, args):
        """Multilinear, conformally antilinear evaluation on algebra elements."""
        if len(args) != self.q:
            raise ValueError("argument count must equal the cochain degree")
        total = zero_vec(self.module.dim)
        ngens = self.algebra.ngens
        if self.q == 0:
            return self.value_on(())

        def rec(slot, gens, scalar):
            nonlocal total
            if not scalar:
                return
            if slot == self.q:
                val = self.value_on(tuple(gens))
                if not vec_is_zero(val):
                    total = vec_add(total, vec_scale(scalar, val))
                return
            elem = args[slot]
            neg = -lam_var(slot + 1)
            for i in range(ngens):
                p = elem[i]
                if not p:
                    continue
                gens.append(i)
                rec(slot + 1, gens, scalar * p.substitute(DEL, neg))
                gens.pop()

        rec(0, [], RatPoly.const(1))
        return total

    # -- structure ------------------------------------------------------------

    def lam_degree(self):
        best = -1
        for v in self.values.values():
            for p in v:
                d = p.lam_degree()
                if d > best:
                    best = d
        return best

    def has_del(self):
        return any(p.del_degree() > 0 for v in self.values.values() for p in v)

    def validate(self):
        """Check the symmetry constraint of the variant; returns None or witness."""
        if self.variant in _SKEW_VARIANTS:
            if self.variant == REDUCED and self.module.is_free() and self.has_del():
                return "reduced values over a free module must not contain d"
            for t, v in self.values.items():
                for s in range(self.q - 1):
                    if t[s] != t[s + 1]:
                        continue
                    swap = {
                        lam(s + 1): lam_var(s + 2),
                        lam(s + 2): lam_var(s + 1),
                    }
                    if any(
                        p.subst_many(swap) + p for p in v
                    ):  # v must be odd under the swap
                        return (t, s)
            return None
        if self.variant == CYCLIC:
            n = self.q - 1
            sign = 1 if n % 2 == 0 else -1
            for t in all_tuples(self.algebra.ngens, self.q):
                rotated = t[1:] + (t[:1])
                relabel = {lam(self.q): lam_var(1)}
                for s in range(1, self.q):
                    relabel[lam(s)] = lam_var(s + 1)
                shifted = vec_subst(self.value_on(rotated), relabel)
                diff = vec_add(vec_scale(-sign, shifted), self.value_on(t))
                if not vec_is_zero(diff):
                    return t
            return None
        return None


# -- slot insertion: parameter powers and term products ------------------------
#
# A term is (lam exponents over lam1..lam_n, rest, coeff): rest is the
# monomial in d and the named parameters, coeff an int where integral.


def lam_count(polys):
    """The largest lam index occurring in ``polys`` (0 if none)."""
    return max((v[1] for p in polys for v in p.variables() if is_lam(v)),
               default=0)


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


def unit_terms(n):
    return [((0,) * n, (), 1)]


def mul_terms(xs, ys):
    """The term-by-term product of two term lists (not collected)."""
    return [(tuple(map(add, e1, e2)), _mono_mul(r1, r2), c1 * c2)
            for e1, r1, c1 in xs for e2, r2, c2 in ys]


def _collect(terms):
    """The terms with like (lam exponents, rest) summed, zeros dropped."""
    acc = {}
    for ev, rest, c in terms:
        key = (ev, rest)
        acc[key] = acc.get(key, 0) + c
    return [(ev, rest, c) for (ev, rest), c in acc.items() if c]


class SlotParam:
    """A slot parameter, a polynomial over lam1..lam_n, d and named
    parameters.  A bare lam variable only relabels (``lam`` is its 0-based
    index); any other parameter expands its powers, with int coefficients
    where integral, on first use, and keeps them, so one instance serves
    every slot insertion of a calculus call."""

    __slots__ = ("n", "lam", "terms", "_powers")

    def __init__(self, poly, n):
        self.n = n
        self.terms = lam_terms(poly, n)
        self.lam = None
        if len(self.terms) == 1:
            ev, rest, c = self.terms[0]
            if not rest and c == 1 and sum(ev) == 1:
                self.lam = ev.index(1)
        self._powers = [unit_terms(n)]

    def power(self, e):
        powers = self._powers
        while len(powers) <= e:
            powers.append(_collect(mul_terms(powers[-1], self.terms)))
        return powers[e]


def antilinear_feeds(avec, slot):
    """[(k, scal_k terms)]: each nonzero avec[k] with d := -slot, the
    conformal antilinearity of a slot at parameter ``slot``."""
    feeds = []
    for k, coeff in enumerate(avec):
        terms = []
        for ev, rest, c in lam_terms(coeff, slot.n):
            m, rest = _split_del(rest)
            terms += mul_terms([(ev, rest, -c if m % 2 else c)],
                               slot.power(m))
        terms = _collect(terms)
        if terms:
            feeds.append((k, terms))
    return feeds


def terms_to_vec(acc, n):
    """A vector of RatPoly from per-component {(lam exponents, rest): coeff}."""
    lams = [lam(s + 1) for s in range(n)]
    return tuple(RatPoly({tuple((lams[s], e) for s, e in enumerate(ev) if e) + rest:
                          c if type(c) is Fraction else Fraction(c)
                          for (ev, rest), c in comp.items() if c})
                 for comp in acc)


# -- the differentials: one term enumerator ------------------------------------


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


def _candidates(c, module_acts):
    """Output tuples that can receive a nonzero term of d(c).

    Ordered tuples: a generator inserted anywhere (the actions) and a pair
    (a, b) with a nonzero [a_lam b] component k replacing a stored k, a in
    front of b (the products); sorted for skew storage.
    """
    A = c.algebra
    pairs_for = _nonzero_bracket_pairs(A)
    skew = c.variant in _SKEW_VARIANTS
    candidates = set()
    for key in c.values:
        q = len(key)
        # a skew candidate is sorted, so one insertion position stands for all
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


def _bracket_expansion(algebra, a, b, k, e):
    """[(ex, ey, rest, coeff)]: table[a][b][k](x, d := -(x+y)) * (x+y)^e.

    x and y are the parameters of the two bracketed slots; rest is the
    monomial of the named parameters.
    """
    cache = algebra._bracket_expansions
    key = (a, b, k, e)
    terms = cache.get(key)
    if terms is None:
        x, y = lam_var(1), lam_var(2)
        poly = algebra.table[a][b][k].substitute(DEL, -(x + y))
        terms = cache[key] = [(ex, ey, rest, c) for (ex, ey), rest, c
                              in lam_terms(poly * (x + y) ** e, 2)]
    return terms


def _action_expansion(module, right, g, r, u, m):
    """[(ex, ed, rest, coeff)]: action[g][r][u](x, d) * (d + x)^m, or,
    on the right, right_action[g][r][u](lam1 := -d - x, d) * (d + x)^m.

    The sesquilinear shift of a value term d^m under the action at slot
    parameter x.
    """
    cache = module._action_expansions
    key = (right, g, r, u, m)
    terms = cache.get(key)
    if terms is None:
        x = lam_var(1)
        if right:
            poly = module.right_action[g][r][u].substitute(lam(1), -_DELP - x)
        else:
            poly = module.action[g][r][u]
        terms = cache[key] = [(ex, *_split_del(rest), c) for (ex,), rest, c
                              in lam_terms(poly * (_DELP + x) ** m, 1)]
    return terms


def _split_values(c):
    """{t: per component {(lam exponents, rest): coeff}}, the format of the
    ``_d_terms`` sums; rest is the monomial in d and the named parameters."""
    return {t: [{(ev, rest): coeff for ev, rest, coeff in lam_terms(p, c.q)}
                for p in vec]
            for t, vec in c.values.items()}


def _d_terms(c, outputs, actions, products):
    """The sums of d(c) on ``outputs``, from three kinds of term: per output
    tuple, one {(lam exponents, rest): coeff} accumulator per component.

    * (i, sign, right): the generator T[i] acting at lam_{i+1} on the value
      at the other slots, which read lam_1..lam_{i}, lam_{i+2}.. in order;
      through ``module.action`` on the left, or ``module.right_action`` on
      the right;
    * (i, j, pos, sign): [T[i]_lam_{i+1} T[j]] fed into slot ``pos`` of
      the other arguments (kept in order) at lam_{i+1} + lam_{j+1}; skew
      values are read on the sorted tuple with the permutation's parity,
      all others as they are stored.

    Table-driven: every term is expanded through the cached tables above
    and added straight into the accumulators, whose coefficients stay int
    where integral and may cancel to zero; ``_d_values`` turns them into
    RatPoly values.
    """
    A, M, q = c.algebra, c.module, c.q
    out_q = q + 1
    split = _split_values(c)
    skew = c.variant in _SKEW_VARIANTS
    dim = M.dim
    layouts = []
    for i, j, pos, psign in products:
        others = [s for s in range(out_q) if s != i and s != j]
        # output slot read by each slot of the fed tuple; None: the bracket
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
                        for ex, ed, hrest, hc in _action_expansion(
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
                # stored lam_{s+1} reads slot perm[s] of t
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
                        for ex, ey, grest, gc in _bracket_expansion(
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


def _d_values(sums, out_q):
    """Cochain values {T: vector of RatPoly} from ``_d_terms`` sums."""
    values = {}
    for T, acc in sums.items():
        vec = terms_to_vec(acc, out_q)
        if not vec_is_zero(vec):
            values[T] = vec
    return values


def _cut_del(sums, out_q):
    """``_d_terms`` sums with d := -(lam_1 + ... + lam_{out_q}), expanded
    through the multinomial table; parameters stay in each term's rest."""
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
                for k, mult in multinomials(out_q, m):
                    key = (tuple(map(add, ev, k)), rest)
                    new[key] = new.get(key, 0) + coeff * mult
    return out


def _actions(c):
    """(i, (-1)^i) at every output slot, on the left, over a free module."""
    if not c.module.is_free():
        return []
    return [(i, -1 if i % 2 else 1, False) for i in range(c.q + 1)]


def _d_lie(c):
    """The two-sum differential, on representatives for either Lie variant:
    the actions, and every bracket [T[i]_lam_{i+1} T[j]] (i < j) fed into
    the first slot with sign (-1)^(i+j); ``_d_terms`` sums."""
    out_q = c.q + 1
    products = [(i, j, 0, -1 if (i + j) % 2 else 1)
                for i in range(out_q) for j in range(i + 1, out_q)]
    return _d_terms(c, _candidates(c, c.module.is_free()), _actions(c),
                    products)


def lie_sums(c):
    """The ``_d_terms`` sums of d(c) for either Lie variant.  A reduced
    cochain is lifted to the basic complex, differentiated and returned to
    representatives: over a free module, d := -(lam1+...+lam_{q+1}) is cut
    on the sums."""
    sums = _d_lie(c)
    if c.variant == REDUCED and c.module.is_free():
        sums = _cut_del(sums, c.q + 1)
    return sums


def d_basic(c):
    if c.variant != BASIC:
        raise ValueError("d_basic expects a basic cochain")
    return c.copy_with(values=_d_values(lie_sums(c), c.q + 1), q=c.q + 1)


def d_reduced(c):
    if c.variant != REDUCED:
        raise ValueError("d_reduced expects a reduced cochain")
    return c.copy_with(values=_d_values(lie_sums(c), c.q + 1), q=c.q + 1)


def reduce_cochain(c):
    """The canonical d-free representative: substitute d -> -(lam1+...+lamq)."""
    if c.variant != BASIC:
        raise ValueError("reduce expects a basic cochain")
    if not c.module.is_free():
        raise WrongModuleKind(
            "reduction by substitution needs a free module; scalar-module "
            "classes are taken modulo (a + sum lam_i) by the engine"
        )
    cut = {DEL: -lam_sum(c.q)}
    values = {t: vec_subst(v, cut) for t, v in c.values.items()}
    return c.copy_with(values=values, variant=REDUCED)


def del_action(c):
    """(d . gamma) = (d_M + lam1 + ... + lamq) gamma on basic-type cochains."""
    if c.variant in (REDUCED, HOCHSCHILD_REDUCED):
        raise ValueError("the d-action lives on the basic complexes")
    factor = c.module.del_poly() + lam_sum(c.q)
    return c.copy_with(
        values={t: vec_scale(factor, v) for t, v in c.values.items()}
    )


# -- Hochschild, cyclic, Leibniz ------------------------------------------------


def d_hochschild(c):
    """a_1 acting on the left, the adjacent products (-1)^(s+1) a_{s+1} a_{s+2}
    fed into slot s, and a_{q+1} acting on the right at lam_{q+1} with sign
    (-1)^(q+1); the reduced variant cuts d on the sums."""
    A, M, q = c.algebra, c.module, c.q
    if not A.associative:
        raise ValueError("Hochschild differential needs an associative algebra")
    if M.right_action is None:
        raise WrongModuleKind("Hochschild cochains need a bimodule")
    out_q = q + 1
    actions = [(0, 1, False), (q, -1 if out_q % 2 else 1, True)]
    products = [(s, s + 1, s, -1 if (s + 1) % 2 else 1) for s in range(q)]
    sums = _d_terms(c, _candidates(c, True), actions, products)
    if c.variant == HOCHSCHILD_REDUCED:
        sums = _cut_del(sums, out_q)
    return c.copy_with(values=_d_values(sums, out_q), q=out_q)


def d_cyclic(c):
    """Differential on cyclic cochains; c.q counts arguments (= paper n+1).

    The adjacent products (-1)^s a_{s+1} a_{s+2} and the wrap-around
    product (-1)^q a_{q+1} a_1, each fed into the first of its slots.
    """
    A, q = c.algebra, c.q
    if not A.associative:
        raise ValueError("cyclic differential needs an associative algebra")
    products = [(s, s + 1, s, -1 if s % 2 else 1) for s in range(q)]
    products.append((q, 0, 0, -1 if q % 2 else 1))
    values = _d_values(_d_terms(c, all_tuples(A.ngens, q + 1), [], products),
                       q + 1)
    return c.copy_with(values=values, q=q + 1)


def d_leibniz(c):
    """The actions of d_basic, and [T[i]_lam_{i+1} T[j]] (i < j) fed into
    the slot of T[j] with sign (-1)^(i+1)."""
    out_q = c.q + 1
    products = [(i, j, j - 1, -1 if (i + 1) % 2 else 1)
                for i in range(out_q) for j in range(i + 1, out_q)]
    values = _d_values(_d_terms(c, _candidates(c, c.module.is_free()),
                                _actions(c), products), out_q)
    return c.copy_with(values=values, q=out_q)


def as_leibniz(c):
    """Forget skew storage: the same cochain with values on all tuples."""
    if c.variant not in _SKEW_VARIANTS:
        raise ValueError("as_leibniz expects a Lie-variant cochain")
    values = {}
    for t in all_tuples(c.algebra.ngens, c.q):
        v = c.value_on(t)
        if not vec_is_zero(v):
            values[t] = v
    return Cochain(c.algebra, c.module, c.q, LEIBNIZ, values)


def differential(c):
    if c.variant == BASIC:
        return d_basic(c)
    if c.variant == REDUCED:
        return d_reduced(c)
    if c.variant in (HOCHSCHILD, HOCHSCHILD_REDUCED):
        return d_hochschild(c)
    if c.variant == CYCLIC:
        return d_cyclic(c)
    if c.variant == LEIBNIZ:
        return d_leibniz(c)
    raise ValueError(f"unknown variant {c.variant}")


# -- randomized cochains (seeded suites) ----------------------------------------


def random_skew_cochain(algebra, module, q, max_deg, rng, variant=BASIC,
                        max_del=0, density=0.6):
    """A random combination of skew-basis elements with small coefficients."""
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
                    extra = extra * _DELP ** rng.randint(0, max_del)
                poly = element_value(elem, q) * extra
                t = element_tuple(elem) if q else ()
                vec = values.setdefault(t, list(zero_vec(module.dim)))
                vec[b] = vec[b] + poly
    return Cochain(
        algebra, module, q, variant, {t: tuple(v) for t, v in values.items()}
    )


def random_plain_cochain(algebra, module, q, max_deg, rng, variant=LEIBNIZ,
                         density=0.4):
    """A random cochain with no symmetry constraint (Leibniz/Hochschild)."""
    values = {}
    for t in all_tuples(algebra.ngens, q):
        if rng.random() > density:
            continue
        vec = list(zero_vec(module.dim))
        for b in range(module.dim):
            exps = tuple(rng.randint(0, max(0, max_deg // max(q, 1))) for _ in range(q))
            coeff = rng.randint(-3, 3)
            if not coeff:
                continue
            mono = tuple(sorted((lam(s + 1), e) for s, e in enumerate(exps) if e))
            vec[b] = vec[b] + RatPoly({mono: coeff})
        if not vec_is_zero(tuple(vec)):
            values[t] = tuple(vec)
    return Cochain(algebra, module, q, variant, values)


def cyclic_symmetrize(c):
    """Project a plain cochain onto the cyclic-invariant part (exact weights)."""
    q = c.q
    n = q - 1
    total = {}
    for t in all_tuples(c.algebra.ngens, q):
        acc = zero_vec(c.module.dim)
        for r in range(q):
            rotated = t[r:] + t[:r]
            relabel = {
                lam(s + 1): lam_var((s + r) % q + 1) for s in range(q)
            }
            val = vec_subst(c.value_on(rotated), relabel)
            sign = 1 if (n * r) % 2 == 0 else -1
            acc = vec_add(acc, vec_scale(RatPoly.const(sign), val))
        if not vec_is_zero(acc):
            total[t] = acc
    return Cochain(
        c.algebra, c.module, q, CYCLIC,
        {t: vec_scale(Fraction(1, q), v) for t, v in total.items()},
    )


# -- serialization ----------------------------------------------------------------


def cochain_to_obj(c):
    entries = []
    for t in sorted(c.values):
        vec = c.values[t]
        comps = {}
        for b, p in enumerate(vec):
            if p:
                comps[c.module.basis_names[b]] = str(p)
        entries.append({"args": [c.algebra.gen_names[i] for i in t], "value": comps})
    return {"variant": c.variant, "q": c.q, "entries": entries}


def name_index(names, name, where):
    """Position of a generator or basis name, or a ParseError."""
    if name not in names:
        raise ParseError(f"unknown name {name!r} in {where}")
    return names.index(name)


def cochain_from_obj(algebra, module, obj):
    """The cochain written by ``cochain_to_obj``; ParseError if malformed."""
    variant, q = obj["variant"], int(obj["q"])
    if variant not in VARIANTS:
        raise ParseError(f"unknown cochain variant {variant!r}")
    if q < 0:
        raise ParseError(f"negative cochain degree {q}")
    values = {}
    for entry in obj["entries"]:
        args = entry["args"]
        if len(args) != q:
            raise ParseError(f"a degree-{q} cochain entry has {len(args)} args")
        t = tuple(name_index(algebra.gen_names, name, "cochain args")
                  for name in args)
        vec = list(zero_vec(module.dim))
        for name, text in entry["value"].items():
            poly = parse_poly(text)
            if lam_count([poly]) > q:
                raise ParseError(f"a degree-{q} cochain value uses "
                                 f"lam{lam_count([poly])}")
            vec[name_index(module.basis_names, name, "cochain value")] = poly
        values[t] = tuple(vec)
    return Cochain(algebra, module, q, variant, values)
