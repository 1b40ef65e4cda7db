"""Exterior multiplication, contraction, the conformal-algebra action on
cochains, and the degree-counting homotopy of the rank-one trivial complex.

The contraction and action operators carry one external parameter; it is
stored as the named parameter ``mu`` so their outputs are ordinary cochains
whose values mention that variable (setting it to any rational gives a plain
cochain again).  The Cartan identity

    d . iota(a) + iota(a) . d = theta(a)

holds exactly, and implies that theta commutes with d.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import bracket_eval
from .cochain import (
    Cochain,
    SlotParam,
    antilinear_feeds,
    lam_count,
    lam_sum,
    lam_var,
    sorted_tuples,
)
from .errors import DegreeZero, WrongContext
from .kernel import lam_terms
from .poly import (
    DEL,
    RatPoly,
    lam,
    mat_add,
    mat_apply,
    mat_subst,
    param,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_subst,
)
from .skew import signed_permutations

EXT = param("mu")
EXT_POLY = RatPoly.var(EXT)
_SHIFT = {DEL: RatPoly.var(DEL) + EXT_POLY}


def wedge(u, gamma):
    """Exterior multiplication by a cochain with trivial coefficients.

    The signed sum over all shuffles of the m+n slots, with exact 1/(m! n!)
    weights; over trivial coefficients this is the wedge product.
    """
    if u.module.dim != 1 or u.module.is_free():
        raise WrongContext("wedge multiplier must have trivial coefficients")
    m, n = u.q, gamma.q
    total_q = m + n
    weight = Fraction(1)
    for k in range(2, m + 1):
        weight /= k
    for k in range(2, n + 1):
        weight /= k
    values = {}
    for T in sorted_tuples(gamma.algebra.ngens, total_q):
        acc = None
        for perm, sign in signed_permutations(total_q):
            left = u.value_with_params(
                tuple(T[perm[s]] for s in range(m)),
                [lam_var(perm[s] + 1) for s in range(m)],
            )[0]
            if not left:
                continue
            right = gamma.value_with_params(
                tuple(T[perm[s]] for s in range(m, total_q)),
                [lam_var(perm[s] + 1) for s in range(m, total_q)],
            )
            if vec_is_zero(right):
                continue
            term = vec_scale(sign * left, right)
            acc = term if acc is None else vec_add(acc, term)
        if acc is not None and not vec_is_zero(acc):
            values[T] = vec_scale(weight, acc)
    return Cochain(gamma.algebra, gamma.module, total_q, gamma.variant, values)


def contract_lambda(a, gamma):
    """(iota_mu(a) gamma): slot-one evaluation at the external parameter.

    The parameters and a's antilinear feeds are kept on the algebra
    (``_iota_reads``)."""
    n = gamma.q
    if n == 0:
        raise DegreeZero("cannot contract a 0-cochain")
    width, params, feeds = _iota_reads(gamma.algebra, a, n)
    terms = {}
    for T in sorted_tuples(gamma.algebra.ngens, n - 1):
        acc = terms[T] = [{} for _ in range(gamma.module.dim)]
        gamma.add_inserted(acc, feeds, 0, T, params)
    return Cochain.from_terms(gamma.algebra, gamma.module, n - 1,
                              gamma.variant, terms, width)


def lie_theta(a, gamma):
    """(theta_mu(a) gamma): the conformal action of a on cochains.

    The bracket [a_mu e_k] is fed into each slot i holding e_k at
    mu + lam_{i+1}; the brackets and their antilinear expansions are kept
    on the algebra (``_theta_reads``).  On a free module a_mu also acts on
    the value, read through ``values``.
    """
    n = gamma.q
    A, M = gamma.algebra, gamma.module
    brackets, width, slots, params, feeds = _theta_reads(A, a, n)
    action = _element_action(M, a)
    terms = {}
    for T in sorted_tuples(A.ngens, n):
        acc = terms[T] = [{} for _ in range(M.dim)]
        for i in range(n):
            key = (i, T[i])
            fed = feeds.get(key)
            if fed is None:
                fed = feeds[key] = antilinear_feeds(brackets[T[i]], slots[i])
            gamma.add_inserted(acc, fed, i, T[:i] + T[i + 1:], params[i],
                               scale=-1)
        if action is not None:
            shifted = vec_subst(gamma.value_on(T), _SHIFT)
            for comp, p in zip(acc, mat_apply(action, shifted)):
                for ev, rest, c in lam_terms(p, width):
                    comp[ev, rest] = comp.get((ev, rest), 0) + c
    return Cochain.from_terms(A, M, n, gamma.variant, terms, width)


class _SlotReads:
    """The slot reads of iota_mu(a) and theta_mu(a) for one element a, the
    entry of the algebra's ``_slot_reads`` table, filled on use: brackets[k]
    = [a_mu e_k], and iota[n] and theta[n], the reads on degree-n cochains.
    Their feeds keep the products that slot insertion expands from them,
    so each is expanded once per algebra."""

    __slots__ = ("brackets", "iota", "theta")

    def __init__(self):
        self.brackets, self.iota, self.theta = None, {}, {}


def _slot_reads(algebra, a):
    """(a as a tuple, its entry of the algebra's slot-read table)."""
    key = tuple(a)
    entry = algebra._slot_reads.get(key)
    if entry is None:
        entry = algebra._slot_reads[key] = _SlotReads()
    return key, entry


def _iota_reads(algebra, a, n):
    """(width, params, feeds) of iota_mu(a) on degree-n cochains: the
    values' lam width; the parameters mu, lam1..lam_{n-1} of the fed
    tuple's slots; and a's antilinear feeds into slot one at mu."""
    key, entry = _slot_reads(algebra, a)
    reads = entry.iota.get(n)
    if reads is None:
        width = max(n - 1, lam_count(key))
        slot = SlotParam(EXT_POLY, width)
        params = [slot] + [SlotParam(lam_var(s + 1), width)
                           for s in range(n - 1)]
        reads = entry.iota[n] = (width, params, antilinear_feeds(key, slot))
    return reads


def _theta_reads(algebra, a, n):
    """(brackets, width, slots, params, feeds) of theta_mu(a) on degree-n
    cochains: brackets[k] = [a_mu e_k]; the values' lam width; slots[i],
    the parameter mu + lam_{i+1} of slot i; params[i], every slot's
    parameter when slot i is fed; and feeds, {(i, k): antilinear feeds of
    brackets[k] into slot i}, filled on use."""
    key, entry = _slot_reads(algebra, a)
    if entry.brackets is None:
        units = [tuple(RatPoly.const(int(s == k)) for s in range(algebra.ngens))
                 for k in range(algebra.ngens)]
        entry.brackets = [bracket_eval(algebra, key, unit, param=EXT_POLY)
                          for unit in units]
    brackets = entry.brackets
    reads = entry.theta.get(n)
    if reads is None:
        width = max([n, lam_count(key)] + [lam_count(br) for br in brackets])
        lams = [SlotParam(lam_var(s + 1), width) for s in range(n)]
        slots = [SlotParam(EXT_POLY + lam_var(i + 1), width) for i in range(n)]
        params = [lams[:i] + [slots[i]] + lams[i + 1:] for i in range(n)]
        reads = entry.theta[n] = (brackets, width, slots, params, {})
    return reads


def _element_action(module, a):
    """The matrix sum_k a_k(d := -mu) A_k(lam1 := mu) of a_mu on a free
    module, built once per call: a_mu v is this matrix applied to v with
    d := d + mu (ConformalModule.act_element); None on a scalar module, where
    the action is zero."""
    if not module.is_free():
        return None
    total = None
    for k, p in enumerate(a):
        if not p:
            continue
        scal = p.substitute(DEL, -EXT_POLY)
        mat = [[scal * x for x in row]
               for row in mat_subst(module.action[k], {lam(1): EXT_POLY})]
        total = mat if total is None else mat_add(total, mat)
    return total


def _require_rank_one_trivial(c):
    if c.algebra.ngens != 1 or c.module.is_free() or c.module.dim != 1 \
            or c.module.del_scalar != 0:
        raise WrongContext(
            "homotopy operators live on the one-generator complex with "
            "trivial coefficients"
        )


def homotopy_k(c):
    """The slice homotopy: up to sign, dP/d(lam_q) at lam_q = 0.

    The sign is (-1)^(q-1), the normalization that makes
    (d k + k d) P = (deg P - q) P hold with the two-sum differential; with
    (-1)^q the identity comes out with the opposite sign.
    """
    _require_rank_one_trivial(c)
    q = c.q
    if q == 0:
        return Cochain.zero(c.algebra, c.module, 0, c.variant)
    value = c.value_on((0,) * q)[0]
    dropped = value.derivative(lam(q)).substitute(lam(q), 0)
    if q % 2 == 0:
        dropped = -dropped
    values = {}
    if dropped:
        values[(0,) * (q - 1)] = (dropped,)
    return Cochain(c.algebra, c.module, q - 1, c.variant, values)


def homotopy_k1(c):
    """k1 on the image of the d-action: k1((sum lam) P) = (sum lam) k(P)."""
    _require_rank_one_trivial(c)
    q = c.q
    value = c.value_on((0,) * q)[0]
    if q == 0:
        if value:
            raise WrongContext("no nonzero 0-cochain lies in the d-action image")
        return Cochain.zero(c.algebra, c.module, 0, c.variant)
    root = RatPoly.zero()
    for s in range(1, q):
        root = root - lam_var(s + 1)
    quot, rem = value.div_linear(lam(1), root)
    if rem:
        raise WrongContext("cochain is not in the image of the d-action")
    inner = c.copy_with(values={(0,) * q: (quot,)} if quot else {})
    k_inner = homotopy_k(inner)
    mult = lam_sum(q - 1)
    return k_inner.copy_with(
        values={t: vec_scale(mult, v) for t, v in k_inner.values.items()}
    )
