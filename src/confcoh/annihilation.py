"""The annihilation Lie algebra, its module of levels, and the transport of
cochains to continuous Lie-algebra cochains.

The annihilation algebra is spanned by symbols (generator, level) with level
in Z_+; its bracket is read off the conformal bracket table through the j-th
products (the divided-power coefficients of the lambda expansion):

    [a_m, b_n] = sum_j binom(m, j) (a_(j) b)_(m+n-j),

with (d x)_s = -s x_(s-1) making levels well defined.  The derivation T acts
by T(a_n) = -n a_(n-1).  A free module M = C[d] x U produces the module of
levels U[t] via the same binomial formula; one helper computes the sum for
both.  The j-th products are tabled on the algebra and on the module, filled
on first use.

A basic cochain gamma transports to the functional

    phi(gamma)(a1_(m1), ..., an_(mn)) = (prod m_i!) [lam^m] gamma,

which has finite support because the values are polynomials.  ``phi_eval``
reads it from a table {lam exponents: per component {monomial: coeff}} per
stored tuple, built once per cochain and kept on it, coefficients int where
integral.  The standard continuous Chevalley-Eilenberg differential,
evaluated lazily through this transport, matches the conformal differential
exactly (the headline test of this module).  Its bracket terms are the level
brackets, each computed once by the binomial formula and kept on the
algebra.  Its module terms act through the module's j-th products:

    a_m v = sum_{s <= m} binom(m, s) a_(s) d^(m-s) v,

with d^k the k-th derivative in d, taken term by term, which is m! [lam^m]
of a_lam v without the substitution d -> d + lam.  Every term is added into
one {monomial: coeff} dict per component, each phi value read from the
table with its sign; one RatPoly per component is built at the end.
Neither term reads the expansion tables of the table-driven
``cochain._d_terms``, so the comparison exercises two independent code
paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .cochain import _SKEW_VARIANTS, _split_values
from .errors import WrongModuleKind
from .poly import DEL, RatPoly, _mono_mul, exact, from_terms, zero_vec
from .skew import permutation_sign


def _add_term(out, key, coeff):
    if not coeff:
        return
    prev = out.get(key)
    if prev is None:
        out[key] = coeff
    else:
        prev = prev + coeff
        if prev:
            out[key] = prev
        else:
            del out[key]


def level_image(element, s):
    """Image of an algebra/module element at level s: (d^r x)_s = fall(s,r) (-1)^r x_(s-r)."""
    out = {}
    for comp, p in enumerate(element):
        for mono, coeff in p.terms.items():
            r = 0
            for v, e in mono:
                if v == DEL:
                    r = e
                else:
                    raise ValueError("level image needs a d-polynomial element")
            if r > s:
                continue
            fall = 1
            for k in range(r):
                fall *= s - k
            _add_term(out, (comp, s - r), coeff * ((-1) ** r) * fall)
    return out


def _divided_power(vec, order):
    """order! times the lam^order coefficient of each entry."""
    fact = Fraction(factorial(order))
    return tuple(fact * p.coeff_of_lams((order,)) for p in vec)


def _binomial_levels(column, m, n):
    """sum_j binom(m, j) level_image(column(j), m + n - j), for j <= m."""
    out = {}
    for order in range(m + 1):
        c = comb(m, order)
        for key, coeff in level_image(column(order), m + n - order).items():
            _add_term(out, key, c * coeff)
    return out


def jth_product(algebra, i, j, order):
    """The order-th product a_(order) b, tabled on the algebra."""
    key = (i, j, order)
    out = algebra._jth_products.get(key)
    if out is None:
        out = algebra._jth_products[key] = _divided_power(
            algebra.table[i][j], order
        )
    return out


def ann_bracket(algebra, x, y):
    """[a_m, b_n] as a dict {(generator, level): coefficient}, tabled on the
    algebra; the caller must not mutate it."""
    key = (x, y)
    out = algebra._level_brackets.get(key)
    if out is None:
        (i, m), (j, n) = x, y
        out = algebra._level_brackets[key] = _binomial_levels(
            lambda order: jth_product(algebra, i, j, order), m, n
        )
    return out


def derivation_t(x):
    """T(a_n) = -n a_(n-1)."""
    i, m = x
    if m == 0:
        return {}
    return {(i, m - 1): Fraction(-m)}


def module_jth_product(module, i, j):
    """a_(j) v on the module basis (rows x columns), tabled on the module."""
    key = (i, j)
    out = module._jth_products.get(key)
    if out is None:
        out = module._jth_products[key] = [
            _divided_power(row, j) for row in module.action[i]
        ]
    return out


def v_minus_action(module, x, vec_level):
    """a_m (u t^n) by the binomial formula; {(basis index, level): coeff}."""
    if not module.is_free():
        raise WrongModuleKind("the level module is built from a free module")
    (i, m), (b, n) = x, vec_level
    return _binomial_levels(
        lambda order: [row[b] for row in module_jth_product(module, i, order)],
        m, n,
    )


def _add_level_action(acc, module, i, m, comps, scale):
    """Add scale * a_m v into ``acc`` (per component {monomial: coeff}),
    v given by its per-component {monomial: coeff}:
    a_m v = sum_{s <= m} binom(m, s) a_(s) d^(m-s) v, the derivatives taken
    in d term by term, d^e -> e!/(e-r)! d^(e-r)."""
    for u, comp in enumerate(comps):
        for mono, c in comp.items():
            e = mono[0][1] if mono and mono[0][0] == DEL else 0
            rest = mono[1:] if e else mono
            fall = scale * c
            for r in range(min(e, m) + 1):
                if r:
                    fall *= e - r + 1
                left = e - r
                dmono = ((DEL, left),) + rest if left else rest
                coeff = comb(m, r) * fall
                for out, row in zip(acc, module_jth_product(module, i, m - r)):
                    entry = row[u]
                    if not entry:
                        continue
                    for m1, c1 in entry.terms.items():
                        key = _mono_mul(m1, dmono)
                        out[key] = out.get(key, 0) + coeff * c1


def act_level_on_value(module, i, m, value):
    """Action of a_m on an M-element (tuple of d-polynomials):
    sum_{s <= m} binom(m, s) a_(s) d^(m-s) v, the derivatives taken in d."""
    if not module.is_free():
        return zero_vec(module.dim)
    acc = [{} for _ in range(module.dim)]
    _add_level_action(acc, module, i, m, [p.terms for p in value], 1)
    return tuple(map(from_terms, acc))


def _phi_table(gamma):
    """{stored tuple: {lam exponents: per component {rest: phi coeff}}},
    coefficients int where integral; built once and kept on gamma."""
    table = gamma._phi_table
    if table is None:
        table = {}
        dim = gamma.module.dim
        for t, comps in _split_values(gamma).items():
            by_exps = table[t] = {}
            for u, terms in enumerate(comps):
                for (ev, rest), coeff in terms.items():
                    comp = by_exps.setdefault(ev, [{} for _ in range(dim)])[u]
                    comp[rest] = coeff * prod(map(factorial, ev))
        gamma._phi_table = table
    return table


def _phi_read(gamma, gens, levels):
    """(sign, per component {rest: coeff}) of phi(gamma) at a level tuple,
    or None where it is zero.  A skew value is read on the sorted tuple,
    with the levels permuted alike and the permutation's sign."""
    sign = 1
    if gamma.variant in _SKEW_VARIANTS and gens != tuple(sorted(gens)):
        perm = sorted(range(len(gens)), key=gens.__getitem__)
        gens = tuple(gens[s] for s in perm)
        levels = tuple(levels[s] for s in perm)
        sign = permutation_sign(perm)
    by_exps = _phi_table(gamma).get(gens)
    value = by_exps.get(levels) if by_exps else None
    return None if value is None else (sign, value)


def phi_eval(gamma, gens, levels):
    """phi(gamma) at a level tuple: (prod m_i!) [lam^m] of the cochain value."""
    read = _phi_read(gamma, tuple(gens), tuple(levels))
    if read is None:
        return zero_vec(gamma.module.dim)
    sign, comps = read
    return tuple(from_terms({m: sign * c for m, c in comp.items()})
                 for comp in comps)


def ce_differential_eval(gamma, gens, levels):
    """The continuous Chevalley-Eilenberg differential of phi(gamma).

    gens/levels have length q+1; the module acts through its level actions
    and the bracket through ann_bracket, so no conformal differential is
    involved.  Every term is added into one {monomial: coeff} dict per
    component, the phi values read with their sign.
    """
    module = gamma.module
    gens, levels = tuple(gens), tuple(levels)
    q1 = len(gens)
    acc = [{} for _ in range(module.dim)]
    if module.is_free():
        for i in range(q1):
            read = _phi_read(gamma, gens[:i] + gens[i + 1:],
                             levels[:i] + levels[i + 1:])
            if read is not None:
                sign, comps = read
                _add_level_action(acc, module, gens[i], levels[i], comps,
                                  -sign if i % 2 else sign)
    for i in range(q1):
        for j in range(i + 1, q1):
            bracket = ann_bracket(gamma.algebra, (gens[i], levels[i]),
                                  (gens[j], levels[j]))
            if not bracket:
                continue
            rest_g = gens[:i] + gens[i + 1:j] + gens[j + 1:]
            rest_m = levels[:i] + levels[i + 1:j] + levels[j + 1:]
            pair_sign = -1 if (i + j) % 2 else 1
            for (k, lev), coeff in bracket.items():
                read = _phi_read(gamma, (k,) + rest_g, (lev,) + rest_m)
                if read is None:
                    continue
                sign, comps = read
                c = exact(coeff) * sign * pair_sign
                for out, comp in zip(acc, comps):
                    for mono, v in comp.items():
                        out[mono] = out.get(mono, 0) + c * v
    return tuple(map(from_terms, acc))


def del_functional_eval(gamma, gens, levels):
    """The d-action on functionals: d_M . beta(x) - sum_i beta(..., T x_i, ...)."""
    module = gamma.module
    base = phi_eval(gamma, gens, levels)
    if module.is_free():
        dpoly = RatPoly.var(DEL)
        total = tuple(dpoly * p for p in base)
    else:
        total = tuple(RatPoly.const(module.del_scalar) * p for p in base)
    for i in range(len(gens)):
        for (gen, lev), coeff in derivation_t((gens[i], levels[i])).items():
            val = phi_eval(
                gamma,
                gens[:i] + (gen,) + gens[i + 1:],
                levels[:i] + (lev,) + levels[i + 1:],
            )
            total = tuple(a - coeff * b for a, b in zip(total, val))
    return total
