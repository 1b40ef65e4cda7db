"""The annihilation Lie algebra, its module of levels, and the transport of
cochains to continuous Lie-algebra cochains.

The annihilation algebra is spanned by symbols (generator, level) with level
in Z_+; its bracket is read off the conformal bracket table through the j-th
products (the divided-power coefficients of the lambda expansion):

    [a_m, b_n] = sum_j binom(m, j) (a_(j) b)_(m+n-j),

with (d x)_s = -s x_(s-1) making levels well defined.  A free module
M = C[d] x U produces the module of levels U[t] via the same binomial
formula; one helper computes the sum for both.  The j-th products are tabled
on the algebra and on the module, filled on first use.

A basic cochain gamma transports to the functional

    phi(gamma)(a1_(m1), ..., an_(mn)) = (prod m_i!) [lam^m] gamma,

which has finite support because the values are polynomials.  ``phi_eval``
reads it from a table {lam exponents: per component {monomial: coeff}} per
stored tuple, built once per cochain and kept on it, coefficients int where
integral.

The standard continuous Chevalley-Eilenberg differential of phi(gamma)
matches the conformal differential exactly (the headline check of this
module).  ``ce_differential_eval`` computes it as one functional over a
pool of (generator, level) pairs, on every tuple of pool pairs at once, by
scattering from the finite support of phi(gamma) instead of gathering at
each tuple:

* ``canonical_phi`` gives phi(gamma) one value per support tuple, its pairs
  sorted by (generator, level).  The redundant reads of a skew value must
  agree up to their permutation sign, and a repeated pair must read zero.
* Module terms: a support tuple S and a pool pair x = a_m give the output
  tuple S + {x}, with a_m acting on phi(S) and the sign summed over the
  positions of x in it.  The action is

      a_m v = sum_{s <= m} binom(m, s) a_(s) d^(m-s) v,

  with d^k the k-th derivative in d, which is m! [lam^m] of a_lam v without
  the substitution d -> d + lam.  Its rows ((out component, monomial),
  coeff) for a_m on d^e u are tabled on the module per (generator, m, u,
  e).
* Bracket terms: an index {z: [(S minus z, sign of z's slot, phi(S))]} is
  joined with the level brackets [x, y] of the pool pairs x <= y, the sign
  summed over the position pairs of x and y in the output tuple.  Every
  term is computed, [x, x] and repeated pairs included.

The conformal side, phi(d gamma), is read by ``phi_on_pool`` straight from
the sums of the kernel.  The continuous side reads none of the kernel's
expansion tables, so the comparison exercises two independent code paths.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, prod

from .cochain import _SKEW_VARIANTS
from .errors import WrongModuleKind
from .poly import DEL, _mono_mul, exact, from_terms, zero_vec
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


def _level_rows(module, i, m, u, e):
    """a_m (d^e u) as rows [((out component, monomial), coeff)],
    coefficients int where integral, tabled on the module: the sum over
    r <= min(e, m) of binom(m, r) e!/(e-r)! a_(m-r) d^(e-r) u."""
    out = {}
    fall = 1
    for r in range(min(e, m) + 1):
        if r:
            fall *= e - r + 1
        dmono = ((DEL, e - r),) if e > r else ()
        c = comb(m, r) * fall
        for w, row in enumerate(module_jth_product(module, i, m - r)):
            for mono, c1 in row[u].terms.items():
                _add_term(out, (w, _mono_mul(mono, dmono)), c * c1)
    rows = module._level_actions[i, m, u, e] = [
        (key, exact(c)) for key, c in out.items()]
    return rows


def _split_d(value):
    """[(component, exponent of d, rest, coeff)] of a value given as
    {(component, monomial): coeff}."""
    out = []
    for (u, mono), c in value.items():
        if mono and mono[0][0] == DEL:
            out.append((u, mono[0][1], mono[1:], c))
        else:
            out.append((u, 0, mono, c))
    return out


def _act_level(acc, module, i, m, terms, scale):
    """Add scale * a_m v into ``acc``, {(component, monomial): coeff}, v
    given by its ``_split_d`` terms, through the tabled level rows."""
    table = module._level_actions
    for u, e, rest, c in terms:
        c *= scale
        rows = table.get((i, m, u, e))
        if rows is None:
            rows = _level_rows(module, i, m, u, e)
        for key, c1 in rows:
            if rest:
                key = (key[0], _mono_mul(key[1], rest))
            acc[key] = acc.get(key, 0) + c * c1


def _flat(comps):
    """{(component, monomial): coeff} of per-component {monomial: coeff}."""
    return {(u, mono): c for u, comp in enumerate(comps)
            for mono, c in comp.items()}


def _vec(value, dim):
    """A vector of RatPoly from {(component, monomial): coeff}."""
    comps = [{} for _ in range(dim)]
    for (u, mono), c in value.items():
        comps[u][mono] = c
    return tuple(map(from_terms, comps))


def act_level_on_value(module, i, m, value):
    """Action of a_m on an M-element (tuple of d-polynomials), read from the
    tabled level rows; zero on a scalar module."""
    if not module.is_free():
        return zero_vec(module.dim)
    acc = {}
    _act_level(acc, module, i, m, _split_d(_flat(p.terms for p in value)), 1)
    return _vec(acc, module.dim)


def _phi_table(gamma):
    """{stored tuple: {lam exponents: per component {rest: phi coeff}}},
    coefficients int where integral; built once and kept on gamma."""
    table = gamma._phi_table
    if table is None:
        table = {}
        dim = gamma.module.dim
        for t, comps in gamma.kernel_terms().items():
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


def canonical_phi(gamma):
    """phi(gamma) as {tuple of (generator, level) pairs sorted ascending:
    {(component, rest): coeff}}, zero values absent.

    A support tuple is read from each exponent vector that places its
    levels on the slots of a generator block, prod(block size!) reads in
    all.  The reads must agree up to their permutation sign, and a repeated
    pair must read zero; otherwise the cochain is not skew and this raises,
    never picking one read.
    """
    if gamma.variant not in _SKEW_VARIANTS:
        raise ValueError("canonical_phi reads a skew (basic or reduced) cochain")
    q = gamma.q
    out = {}
    unread = {}
    for t, by_exps in _phi_table(gamma).items():
        reads = prod(factorial(t.count(k)) for k in set(t))
        for ev, comps in by_exps.items():
            pairs = tuple(zip(t, ev))
            order = sorted(range(q), key=pairs.__getitem__)
            key = tuple(pairs[s] for s in order)
            if any(key[s] == key[s + 1] for s in range(q - 1)):
                raise AssertionError(
                    f"repeated pair with nonzero coefficient: {key}")
            value = _flat(comps)
            if permutation_sign(order) == -1:
                value = {k: -c for k, c in value.items()}
            prev = out.get(key)
            if prev is None:
                out[key] = value
                unread[key] = reads - 1
            elif prev != value:
                raise AssertionError(f"inconsistent skew value at {key}")
            else:
                unread[key] -= 1
    for key, n in unread.items():
        if n:
            raise AssertionError(f"inconsistent skew value at {key}")
    return out


def _alternating(lo, k):
    """The sum of (-1)^i over the k positions lo, ..., lo + k - 1."""
    return (-1 if lo % 2 else 1) if k % 2 else 0


def ce_differential_eval(gamma, pool):
    """The continuous Chevalley-Eilenberg differential of phi(gamma) on
    every tuple of q+1 pairs from ``pool``, a sorted list of distinct
    (generator, level) pairs: {sorted pair tuple: {(component, rest):
    coeff}}, zero coefficients and zero values absent.

    d beta(x_0, ..., x_q) = sum_i (-1)^i x_i beta(..., ^x_i, ...)
        + sum_{i<j} (-1)^(i+j) beta([x_i, x_j], ..., ^x_i, ..., ^x_j, ...),

    scattered from the support of ``canonical_phi``.  The module acts
    through its tabled level rows (scalar modules give no module term) and
    the bracket through ``ann_bracket``, so no conformal differential is
    involved.
    """
    module = gamma.module
    inside = set(pool)
    acc = {}
    index = {}
    for S, value in canonical_phi(gamma).items():
        for p, z in enumerate(S):
            R = S[:p] + S[p + 1:]
            if inside.issuperset(R):
                index.setdefault(z, []).append((R, -1 if p % 2 else 1, value))
        if not module.is_free() or not inside.issuperset(S):
            continue
        terms = _split_d(value)
        for x in pool:
            lo = bisect_left(S, x)
            sign = _alternating(lo, 1 + (S[lo:lo + 1] == (x,)))
            if sign:
                T = S[:lo] + (x,) + S[lo:]
                out = acc.get(T)
                if out is None:
                    out = acc[T] = {}
                _act_level(out, module, x[0], x[1], terms, sign)
    for a, x in enumerate(pool):
        for y in pool[a:]:
            for z, coeff in ann_bracket(gamma.algebra, x, y).items():
                entries = index.get(z)
                if not entries:
                    continue
                coeff = exact(coeff)
                for R, zsign, value in entries:
                    lx = bisect_left(R, x)
                    ly = bisect_left(R, y)
                    # x fills positions lx.. of the output tuple, y
                    # positions ly + 1..; x == y fills one block of k
                    kx = 1 + (R[lx:lx + 1] == (x,))
                    if x == y:
                        k = kx + 1
                        pair_sign = (_alternating(lx, k) ** 2 - k) // 2
                    else:
                        pair_sign = _alternating(lx, kx) * _alternating(
                            ly + 1, 1 + (R[ly:ly + 1] == (y,)))
                    if not pair_sign:
                        continue
                    c = coeff * zsign * pair_sign
                    T = R[:lx] + (x,) + R[lx:ly] + (y,) + R[ly:]
                    out = acc.get(T)
                    if out is None:
                        out = acc[T] = {}
                    for key, v in value.items():
                        out[key] = out.get(key, 0) + c * v
    out = {}
    for T, value in acc.items():
        value = {key: c for key, c in value.items() if c}
        if value:
            out[T] = value
    return out


def phi_on_pool(sums, pool):
    """phi of a skew value family on every tuple of pairs from ``pool``, in
    the format of ``ce_differential_eval``.

    ``sums`` is {sorted generator tuple: per component {(lam exponents,
    rest): coeff}}, the format of the kernel's sums (``cochain.term_sums``).
    Each tuple is read on its arrangement sorted by (generator, level), as
    ``phi_eval`` reads a sorted tuple; zero coefficients are dropped.
    """
    inside = set(pool)
    out = {}
    for t, comps in sums.items():
        # per exponent vector: its pool tuple and factor, or None when it
        # leaves the pool or is not the sorted arrangement
        reads = {}
        for u, terms in enumerate(comps):
            for (ev, rest), coeff in terms.items():
                if not coeff:
                    continue
                read = reads.get(ev, False)
                if read is False:
                    T = tuple(zip(t, ev))
                    read = reads[ev] = (T, prod(map(factorial, ev))) if (
                        inside.issuperset(T)
                        and all(T[s] <= T[s + 1] for s in range(len(T) - 1))
                    ) else None
                if read is not None:
                    T, factor = read
                    value = out.get(T)
                    if value is None:
                        value = out[T] = {}
                    value[u, rest] = coeff * factor
    return out
