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

Storage is the kernel's term format, ``terms``: per stored tuple, one
{(lam exponents, rest): coeff} dict per component, rest the monomial in d
and the named parameters, coefficients ints where integral, zeros dropped.
Exponent vectors run over lam1..lam_width; width is q unless a value uses a
higher lam (a contraction by an element carrying lam), and only width-q
terms are read by the kernel and by slot insertion (``kernel_terms``).
``values``, {tuple: vector of RatPoly}, is a view built on first read;
RatPoly values (parsing, tests) are split once and kept as that view.
Every differential runs the one kernel of ``kernel``, through ``term_sums``,
and stores its sums;
random cochains, iota and theta write terms, and sums, scaling by a number
and equality work on them, so no RatPoly is built from a random cochain to
the comparison of the Cartan identity.

Slot insertion (``slot_insert``, ``value_with_params``, ``add_inserted``)
and the annihilation phi table read the terms.  A skew value's stored
lam_{s+1} goes to the parameter of slot perm[s], with the permutation's
sign.  A bare lam parameter is a relabel; any other, such as mu + lam_i, is
a ``SlotParam`` whose powers are expanded once, in ints where integral, and
the argument's d becomes -slot_param through the same powers
(``antilinear_feeds``).  Each product of a term's parameter powers and a
feed is expanded once and kept with the feed, so the feeds of iota and
theta, kept on the algebra, expand it once per algebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add

from .errors import ParseError, WrongModuleKind
from .kernel import (
    CYCLIC,
    HOCHSCHILD,
    LEIBNIZ,
    LIE,
    _cut_del,
    _d_terms,
    _split_del,
    lam_terms,
    read_plan,
)
from .poly import (
    DEL,
    RatPoly,
    _mono_mul,
    exact,
    is_lam,
    lam,
    parse_poly,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_subst,
    zero_vec,
)
from .skew import element_terms, element_tuple, permutation_sign, skew_basis

BASIC = "basic"
REDUCED = "reduced"
HOCHSCHILD_REDUCED = "hochschild_reduced"
VARIANTS = (BASIC, REDUCED, HOCHSCHILD, HOCHSCHILD_REDUCED, CYCLIC, LEIBNIZ)

_SKEW_VARIANTS = (BASIC, REDUCED)

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
        """From RatPoly values {tuple: vector}: split once into ``terms``,
        the nonzero values kept as the ``values`` view."""
        width = max(q, lam_count(p for v in values.values() for p in v))
        self._store(algebra, module, q, variant, width, {
            t: [{(ev, rest): c for ev, rest, c in lam_terms(p, width)}
                for p in v] for t, v in values.items()})
        self._values = {t: v for t, v in values.items() if t in self.terms}

    @classmethod
    def from_terms(cls, algebra, module, q, variant, terms, width=None):
        """From terms over lam1..lam_width (width q by default), copied
        without their zeros; the width is cut to the highest lam in use."""
        c = cls.__new__(cls)
        c._store(algebra, module, q, variant, width or q, terms)
        return c

    def _store(self, algebra, module, q, variant, width, terms):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant}")
        if variant in _SKEW_VARIANTS and any(tuple(sorted(t)) != t
                                             for t in terms):
            raise ValueError("skew cochains store sorted tuples only")
        self.algebra, self.module, self.q = algebra, module, q
        self.variant = variant
        kept = ((t, [{k: c for k, c in comp.items() if c} for comp in comps])
                for t, comps in terms.items())
        terms = {t: comps for t, comps in kept if any(comps)}
        top = q if width == q else max(
            (s + 1 for comps in terms.values() for comp in comps
             for ev, _ in comp for s in range(q, width) if ev[s]), default=q)
        if top < width:
            terms = {t: [{(ev[:top], r): c for (ev, r), c in comp.items()}
                         for comp in comps] for t, comps in terms.items()}
        self.width, self.terms = top, terms
        # the values view and phi_eval's {tuple: {lam exponents: value}}
        # table, filled on use
        self._values = self._phi_table = None

    @property
    def values(self):
        """{tuple: vector of RatPoly}, built from ``terms`` on first read."""
        if self._values is None:
            self._values = {t: terms_to_vec(comps, self.width)
                            for t, comps in self.terms.items()}
        return self._values

    def kernel_terms(self):
        """``terms`` as the kernel reads them, over lam1..lam_q; a
        ValueError if a value uses a higher lam."""
        if self.width > self.q:
            raise ValueError(f"a degree-{self.q} cochain value uses "
                             f"lam{self.width}")
        return self.terms

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, algebra, module, q, variant=BASIC):
        return cls(algebra, module, q, variant, {})

    @classmethod
    def from_basis_element(cls, algebra, module, q, variant, elem, u_index):
        """Cochain u_(u_index) x (antisymmetrized skew-basis element)."""
        comps = [{} for _ in range(module.dim)]
        comps[u_index] = element_terms(elem, q)
        return cls.from_terms(algebra, module, q, variant,
                              {element_tuple(elem): comps})

    def copy_with(self, values=None, variant=None, q=None):
        q = self.q if q is None else q
        variant = self.variant if variant is None else variant
        if values is None:
            return Cochain.from_terms(self.algebra, self.module, q, variant,
                                      self.terms, self.width)
        return Cochain(self.algebra, self.module, q, variant, values)

    def _like(self, terms):
        return Cochain.from_terms(self.algebra, self.module, self.q,
                                  self.variant, terms, self.width)

    # -- vector space structure ---------------------------------------------

    def __add__(self, other):
        if (
            other.q != self.q
            or other.variant != self.variant
            or other.module is not self.module
        ):
            raise ValueError("cochain mismatch")
        if other.width != self.width:  # values over different lam ranges
            return self.copy_with(values={
                t: vec_add(self.value_on(t), other.value_on(t))
                for t in {**self.values, **other.values}})
        out = dict(self.terms)
        for t, comps in other.terms.items():
            if t in out:
                comps = [{**a, **{k: a.get(k, 0) + c for k, c in b.items()}}
                         for a, b in zip(out[t], comps)]
            out[t] = comps
        return self._like(out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """c times the cochain, for a number or a RatPoly c."""
        if isinstance(c, RatPoly):
            return self.copy_with(
                values={t: vec_scale(c, v) for t, v in self.values.items()})
        c = exact(Fraction(c))
        return self._like({t: [{k: x * c for k, x in comp.items()}
                               for comp in comps]
                           for t, comps in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Cochain) and (
            self.q, self.variant, self.width, self.terms
        ) == (other.q, other.variant, other.width, other.terms)

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
        self.add_inserted(acc, [(t[0], unit_terms(n), {})], 0, t[1:],
                          [SlotParam(p, n) for p in params])
        return terms_to_vec(acc, n)

    def slot_insert(self, avec, slot_param, rest_gens, rest_params, pos=0):
        """Feed an algebra-valued polynomial into the slot at ``pos``.

        The argument's d is consumed by conformal antilinearity at the slot
        parameter: d^m L^k contributes (-slot_param)^m gamma(..., L^k, ...).
        """
        # only generators whose fed tuple has a stored value are expanded
        split = self.kernel_terms()
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

        ``feeds`` is [(k, scal_k terms, products)] from ``antilinear_feeds``
        and ``params`` holds one SlotParam per slot of the fed tuple.  A skew
        value is read on the sorted tuple: its stored lam_{s+1} is the slot
        perm[s], so it takes params[perm[s]], and the permutation's sign.
        The product of a term's slot-parameter powers and scal_k depends
        only on the slots read and the term's exponent vector; it is
        expanded once and kept in the feed's ``products``, {read: {lam
        exponents: [(key, coeff)]}}, so a feed that outlives the call (iota
        and theta keep theirs on the algebra) expands each product once.
        """
        split = self.kernel_terms()
        for k, scal, products in feeds:
            stored, perm = self._stored(rest_gens[:pos] + (k,)
                                        + rest_gens[pos:])
            comps = split.get(stored)
            if comps is None:
                continue
            sign = scale * permutation_sign(perm)
            read = tuple(params[p] for p in perm)
            by_ev = products.get(read)
            if by_ev is None:
                by_ev = products[read] = {}
            for comp, terms in zip(acc, comps):
                for (ev, rest), coeff in terms.items():
                    prod = by_ev.get(ev)
                    if prod is None:
                        prod = by_ev[ev] = _slot_product(read, ev, scal)
                    coeff *= sign
                    if rest:
                        for (key_ev, key_rest), c in prod:
                            key = (key_ev, _mono_mul(rest, key_rest))
                            comp[key] = comp.get(key, 0) + c * coeff
                    else:
                        for key, c in prod:
                            comp[key] = comp.get(key, 0) + c * coeff

    def _stored(self, t):
        """(stored tuple, perm) for a value on t: the stored lam_{s+1} is
        slot perm[s] of t, the value signed by the parity of perm."""
        if self.variant not in _SKEW_VARIANTS:
            return t, range(self.q)
        perm = sorted(range(self.q), key=t.__getitem__)
        return tuple(t[p] for p in perm), perm

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
        return max((sum(ev) for comps in self.terms.values()
                    for comp in comps for ev, _ in comp), default=-1)

    def has_del(self):
        return any(rest and rest[0][0] == DEL for comps in self.terms.values()
                   for comp in comps for _, rest in comp)

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
    every slot insertion that reads it (iota and theta keep theirs on the
    algebra)."""

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


def _slot_product(read, ev, scal):
    """[((lam exponents, rest), coeff)]: the product of read[s]^ev[s] over
    the slots and the feed terms ``scal``, collected.  A bare lam parameter
    relabels; the others expand through their kept powers."""
    lv = [0] * read[0].n
    powers = []
    for p, e in zip(read, ev):
        if not e:
            continue
        if p.lam is None:
            powers.append(p.power(e))
        else:
            lv[p.lam] += e
    parts = [(tuple(lv), (), 1)]
    for terms_e in powers:
        parts = mul_terms(parts, terms_e)
    return [((e, rest), c) for e, rest, c in _collect(mul_terms(parts, scal))]


def antilinear_feeds(avec, slot):
    """[(k, scal_k terms, products)]: each nonzero avec[k] with d := -slot,
    the conformal antilinearity of a slot at parameter ``slot``, and an
    empty table for the products ``add_inserted`` expands from it."""
    feeds = []
    for k, coeff in enumerate(avec):
        terms = []
        for ev, rest, c in lam_terms(coeff, slot.n):
            m, rest = _split_del(rest)
            terms += mul_terms([(ev, rest, -c if m % 2 else c)],
                               slot.power(m))
        terms = _collect(terms)
        if terms:
            feeds.append((k, terms, {}))
    return feeds


def terms_to_vec(acc, n):
    """A vector of RatPoly from per-component {(lam exponents, rest): coeff}."""
    lams = [lam(s + 1) for s in range(n)]
    return tuple(RatPoly({tuple((lams[s], e) for s, e in enumerate(ev) if e) + rest:
                          c if type(c) is Fraction else Fraction(c)
                          for (ev, rest), c in comp.items() if c})
                 for comp in acc)


# -- the differentials: every variant through the kernel -----------------------
#
# Every variant is one read-plan kind of ``kernel`` and whether d is cut on
# the sums.  The Lie kind (either Lie variant): over a free module the
# actions at every output slot i, on the left, with sign (-1)^i, and every
# bracket [T[i]_lam_{i+1} T[j]] (i < j) fed into the first slot with sign
# (-1)^(i+j).  Leibniz: the same actions, and [T[i]_lam_{i+1} T[j]] (i < j)
# fed into the slot of T[j] with sign (-1)^(i+1).  Hochschild: a_1 acting on
# the left, the adjacent products (-1)^(s+1) a_{s+1} a_{s+2} fed into slot
# s, and a_{q+1} acting on the right at lam_{q+1} with sign (-1)^(q+1).
# Cyclic (q counts arguments, the paper's n+1): the adjacent products
# (-1)^s a_{s+1} a_{s+2} and the wrap-around product (-1)^q a_{q+1} a_1,
# each fed into the first of its slots.  A reduced cochain is lifted to the
# basic complex, differentiated and returned to representatives: over a
# free module, d := -(lam1+...+lam_{q+1}) is cut on the sums.

_KERNEL = {
    BASIC: (LIE, False),
    REDUCED: (LIE, True),
    HOCHSCHILD: (HOCHSCHILD, False),
    HOCHSCHILD_REDUCED: (HOCHSCHILD, True),
    CYCLIC: (CYCLIC, False),
    LEIBNIZ: (LEIBNIZ, False),
}


def term_sums(algebra, module, q, variant, terms):
    """The ``_d_terms`` sums of d on degree-q values in the term format
    ({stored tuple: per component {(lam exponents, rest): coeff}})."""
    if variant not in _KERNEL:
        raise ValueError(f"unknown variant {variant}")
    kind, cut = _KERNEL[variant]
    if kind in (HOCHSCHILD, CYCLIC) and not algebra.associative:
        name = "Hochschild" if kind == HOCHSCHILD else "cyclic"
        raise ValueError(f"{name} differential needs an associative algebra")
    if kind == HOCHSCHILD and module.right_action is None:
        raise WrongModuleKind("Hochschild cochains need a bimodule")
    # the module acts when free; Hochschild cochains always act, cyclic never
    acts = kind == HOCHSCHILD or (kind != CYCLIC and module.is_free())
    sums = _d_terms(algebra, module, read_plan(algebra, kind, q, acts), terms)
    return _cut_del(sums, q + 1) if cut and module.is_free() else sums


def differential(c):
    """d of a cochain of any variant: its ``term_sums``, as a cochain."""
    return Cochain.from_terms(c.algebra, c.module, c.q + 1, c.variant,
                              term_sums(c.algebra, c.module, c.q, c.variant,
                                        c.kernel_terms()))


def d_basic(c):
    if c.variant != BASIC:
        raise ValueError("d_basic expects a basic cochain")
    return differential(c)


def d_reduced(c):
    if c.variant != REDUCED:
        raise ValueError("d_reduced expects a reduced cochain")
    return differential(c)


def reduce_cochain(c):
    """The canonical d-free representative: d := -(lam1+...+lamq), cut on
    the terms (a contraction keeps its higher lam in place)."""
    if c.variant != BASIC:
        raise ValueError("reduce expects a basic cochain")
    if not c.module.is_free():
        raise WrongModuleKind(
            "reduction by substitution needs a free module; scalar-module "
            "classes are taken modulo (a + sum lam_i) by the engine"
        )
    return Cochain.from_terms(c.algebra, c.module, c.q, REDUCED,
                              _cut_del(c.terms, c.q), c.width)


def del_action(c):
    """(d . gamma) = (d_M + lam1 + ... + lamq) gamma on basic-type cochains."""
    if c.variant in (REDUCED, HOCHSCHILD_REDUCED):
        raise ValueError("the d-action lives on the basic complexes")
    factor = c.module.del_poly() + lam_sum(c.q)
    return c.copy_with(
        values={t: vec_scale(factor, v) for t, v in c.values.items()}
    )


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


# -- randomized cochains (seeded suites) ----------------------------------------


def random_skew_cochain(algebra, module, q, max_deg, rng, variant=BASIC,
                        max_del=0, density=0.6):
    """A random combination of skew-basis elements with small coefficients,
    each times d^m with m <= max_del on a free module's basic cochains;
    written as terms, shape by shape."""
    dels = max_del and module.is_free() and variant == BASIC
    terms = {}
    for d in range(max_deg + 1):
        for elem in skew_basis(q, d, algebra.ngens).elements:
            shape = None
            for b in range(module.dim):
                if rng.random() > density:
                    continue
                coeff = rng.randint(-3, 3)
                if not coeff:
                    continue
                m = rng.randint(0, max_del) if dels else 0
                rest = ((DEL, m),) if m else ()
                if shape is None:
                    shape = element_terms(elem, q)
                comp = terms.setdefault(element_tuple(elem),
                                        [{} for _ in range(module.dim)])[b]
                for (ev, _), sign in shape.items():
                    key = (ev, rest)
                    comp[key] = comp.get(key, 0) + sign * coeff
    return Cochain.from_terms(algebra, module, q, variant, terms)


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
    variant, q = obj["variant"], obj["q"]
    if variant not in VARIANTS:
        raise ParseError(f"unknown cochain variant {variant!r}")
    if type(q) is not int or q < 0:
        raise ParseError(f"the cochain degree {q!r} is not an integer >= 0")
    values = {}
    for entry in obj["entries"]:
        args = entry["args"]
        if not isinstance(args, list):
            raise ParseError(f"cochain args {args!r} are not a list of names")
        if len(args) != q:
            raise ParseError(f"a degree-{q} cochain entry has {len(args)} args")
        t = tuple(name_index(algebra.gen_names, name, "cochain args")
                  for name in args)
        if t in values:
            raise ParseError(f"the cochain args {args} are given twice")
        vec = list(zero_vec(module.dim))
        for name, text in entry["value"].items():
            poly = parse_poly(text)
            if lam_count([poly]) > q:
                raise ParseError(f"a degree-{q} cochain value uses "
                                 f"lam{lam_count([poly])}")
            vec[name_index(module.basis_names, name, "cochain value")] = poly
        values[t] = tuple(vec)
    return Cochain(algebra, module, q, variant, values)
