"""Extensions and first-order deformations built from cocycles.

Everything here is constructive: cocycle data go in, concrete algebra or
module structures come out, and validity is decided by re-running the exact
axiom checkers on the built object.  The correspondences are exercised both
ways in the tests (a corrupted cocycle must break the built structure).

* extend_algebra    -- a split abelian extension of A by a coefficient
  module, bracket [(x,a) (y,b)] = (a.y - b.x + c(a,b), [a b]); valid iff the
  twisting datum is a reduced 2-cocycle.
* extend_module_by_trivial -- the rank-jump extension of a module by the
  trivial module, driven by a 0-cochain f with df in the d-action image; the
  unique 1-cochain gamma with (d-action of gamma) = df is solved exactly.
* extend_module     -- a C[d]-split extension of modules from a raw bilinear
  datum A x N -> M[lam]; the block module axiom is the test, no Chom carrier
  is materialized.
* deform            -- the bracket [.,.] + eps*gamma over the dual numbers;
  the eps-linear Jacobi residual vanishes iff gamma is a 2-cocycle with
  adjoint coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import (
    ConformalAlgebra,
    ConformalModule,
    bracket_eval,
    check_jacobi,
    check_module,
    check_skew_symmetry,
    first_failure,
)
from .cochain import REDUCED, Cochain, lam_terms
from .errors import NotACocycle, NotReducedCocycle
from .poly import (
    DEL,
    RatPoly,
    _mono_mul,
    bracket_residual,
    bracket_support,
    lam,
    left_matrices,
    mat_add,
    mat_mul,
    mat_sub,
    vec_add,
    vec_scale,
    zero_vec,
)

_LAM1, _LAM2 = lam(1), lam(2)
_L1 = RatPoly.var(_LAM1)
_L2 = RatPoly.var(_LAM2)
_DELP = RatPoly.var(DEL)


def _on_section(p, swap, powers):
    """p, or -p with lam1 and lam2 exchanged if swap, at lam2 := -lam1 - d_M;
    powers[e] holds the terms of (-lam1 - d_M)^e."""
    sign = -1 if swap else 1
    out = {}
    for (e1, e2), rest, coeff in lam_terms(p, 2):
        if swap:
            e1, e2 = e2, e1
        head = (((_LAM1, e1),) if e1 else ()) + rest
        coeff = sign * coeff
        for mono2, coeff2 in powers[e2].items():
            key = _mono_mul(head, mono2)
            out[key] = out.get(key, 0) + coeff * coeff2
    return RatPoly({k: c for k, c in out.items() if c})


def datum_from_cochain(cocycle):
    """One-parameter table c_ij(lam[, d]) from a reduced 2-cochain.

    The representative is a class mod (d + lam1 + lam2); the canonical
    section substitutes lam2 := -lam1 - d_M, expanded on exponents through
    one table of the powers of -lam1 - d_M shared by every pair.
    """
    if cocycle.q != 2 or cocycle.variant != REDUCED:
        raise ValueError("expected a reduced 2-cochain")
    module = cocycle.module
    n = cocycle.algebra.ngens
    step = -_L1 - module.del_poly()
    power = RatPoly.const(1)
    powers = [power.terms]
    for _ in range(cocycle.lam_degree()):
        power = power * step
        powers.append(power.terms)
    table = {}
    for i in range(n):
        for j in range(n):
            # the skew value on (i, j) with i > j is -gamma_(j, i)(lam2, lam1)
            swap = i > j
            vec = cocycle.values.get((j, i) if swap else (i, j))
            if vec is None:
                table[(i, j)] = zero_vec(module.dim)
            else:
                table[(i, j)] = tuple(_on_section(p, swap, powers)
                                      for p in vec)
    return table


def cochain_from_datum(algebra, module, table):
    """The skew 2-cochain representative of a one-parameter datum.

    Alternation with exact 1/2 weights; over scalar coefficients the result
    differs from the naive lam1-substitution by an element of the quotient
    ideal, because the datum's own skew-symmetry makes the symmetric part
    divisible by (a + lam1 + lam2).
    """
    half = Fraction(1, 2)
    values = {}
    for i in range(algebra.ngens):
        for j in range(i, algebra.ngens):
            direct = tuple(p.subst_many({DEL: -_L1 - _L2}) for p in table[(i, j)])
            flipped = tuple(
                p.subst_many({lam(1): _L2, DEL: -_L1 - _L2}) for p in table[(j, i)]
            )
            vec = vec_scale(half, vec_add(direct, tuple(-p for p in flipped)))
            values[(i, j)] = vec
    return Cochain(algebra, module, 2, REDUCED, values)


class ExtendedAlgebra:
    """The split extension C + A; torsion coefficients become torsion generators."""

    def __init__(self, base, module, cocycle):
        self.base = base
        self.module = module
        if isinstance(cocycle, Cochain):
            self.datum = datum_from_cochain(cocycle)
        else:
            self.datum = dict(cocycle)
        g, u = base.ngens, module.dim
        names = tuple(base.gen_names) + tuple(module.basis_names)
        total = g + u
        table = [[None] * total for _ in range(total)]
        zero = zero_vec(total)
        for i in range(g):
            for j in range(g):
                avec = base.table[i][j]
                cvec = self.datum[(i, j)]
                table[i][j] = tuple(avec) + tuple(cvec)
        for i in range(g):
            for b in range(u):
                if module.is_free():
                    act = tuple(module.action[i][c][b] for c in range(u))
                else:
                    act = zero_vec(u)
                table[i][g + b] = zero_vec(g) + act
        for b in range(u):
            for j in range(g):
                if module.is_free():
                    flipped = tuple(
                        -module.action[j][c][b].subst_many({lam(1): -_L1 - _DELP})
                        for c in range(u)
                    )
                else:
                    flipped = zero_vec(u)
                table[g + b][j] = zero_vec(g) + flipped
            for b2 in range(u):
                table[g + b][g + b2] = zero
        if module.is_free():
            scalars = (None,) * total
        else:
            scalars = (None,) * g + (module.del_scalar,) * u
        self.algebra = ConformalAlgebra(names, table, del_scalars=scalars)

    def check(self):
        ok, witness = check_skew_symmetry(self.algebra)
        if not ok:
            return False, ("skew", witness)
        ok, witness = check_jacobi(self.algebra)
        if not ok:
            return False, ("jacobi", witness)
        return True, None


def extend_algebra(base, module, cocycle):
    """Build the abelian extension; NotACocycle (with witness) if invalid."""
    ext = ExtendedAlgebra(base, module, cocycle)
    ok, witness = ext.check()
    if not ok:
        raise NotACocycle("twisting datum is not a 2-cocycle", witness=witness)
    return ext


def del_mult_element(algebra, elem):
    """Multiplication by d on an algebra element, per-generator torsion-aware."""
    out = []
    for k, p in enumerate(elem):
        a = algebra.del_scalars[k]
        out.append((_DELP if a is None else RatPoly.const(a)) * p)
    return tuple(out)


def apply_del_poly(algebra, poly, elem):
    """p(d) . elem for a polynomial p in d (other variables scalar)."""
    total = zero_vec(algebra.ngens)
    for power, coeff in enumerate(poly.coeffs_in(DEL) or [poly]):
        if not coeff:
            continue
        shifted = elem
        for _ in range(power):
            shifted = del_mult_element(algebra, shifted)
        total = vec_add(total, vec_scale(coeff, shifted))
    return total


def conformal_hom_ok(src, dst, images):
    """Whether generator images define a map of conformal algebras.

    ``images[i]`` is a dst element (tuple of d-polynomials); the map extends
    sesquilinearly and must intertwine brackets and torsion scalars.
    """
    for i in range(src.ngens):
        a = src.del_scalars[i]
        if a is not None:
            lhs = del_mult_element(dst, images[i])
            rhs = vec_scale(RatPoly.const(a), images[i])
            if lhs != rhs:
                return False
    for i in range(src.ngens):
        for j in range(src.ngens):
            lhs = bracket_eval(dst, images[i], images[j])
            rhs = zero_vec(dst.ngens)
            for k in range(src.ngens):
                c = src.table[i][j][k]
                if not c:
                    continue
                contrib = tuple(p for p in apply_del_poly(dst, c, images[k]))
                rhs = vec_add(rhs, contrib)
            if lhs != rhs:
                return False
    return True


def coboundary_splitting_images(ext, correction):
    """Images of the split-isomorphism (x, a) -> (x + f(a), a).

    ``correction`` is one module element per base generator; maps the
    extension twisted by c + (d of correction) onto the one twisted by c.
    """
    g, u = ext.base.ngens, ext.module.dim
    images = []
    for i in range(g):
        vec = list(zero_vec(g + u))
        vec[i] = RatPoly.const(1)
        for b in range(u):
            vec[g + b] = correction[i][b]
        images.append(tuple(vec))
    for b in range(u):
        vec = list(zero_vec(g + u))
        vec[g + b] = RatPoly.const(1)
        images.append(tuple(vec))
    return images


# -- part 2: extension of a module by the trivial module ------------------------


class TrivialExtension:
    def __init__(self, algebra, module, f, gamma):
        self.algebra = algebra
        self.module = module
        self.f = f
        self.gamma = gamma  # per generator, an M-valued poly in (lam1, d)

    def check(self):
        """The module identity on the adjoined vector, exactly."""
        A, M = self.algebra, self.module
        for i in range(A.ngens):
            lhs = M.act(i, _L1, self.f)
            rhs = vec_scale(_DELP + _L1, self.gamma[i])
            if lhs != rhs:
                return False, ("sesquilinearity", i)
        if not M.is_free():  # gamma = 0 and the algebra acts by zero
            return True, None
        # the action on E = M + C v: a_lam v = gamma_a; the identity on v is
        # the last column of the block action [[A_i, gamma_i], [0, 0]]
        u = M.dim
        block = [
            [list(M.action[i][r]) + [self.gamma[i][r]] for r in range(u)]
            + [[RatPoly.zero()] * (u + 1)]
            for i in range(A.ngens)
        ]
        residual = bracket_residual(block, block, A.table, [_DELP] * (u + 1), True)
        for i in range(A.ngens):
            for j in range(A.ngens):
                if any(residual(i, j, r, u) for r in range(u)):
                    return False, ("module identity", (i, j))
        return True, None


def extend_module_by_trivial(algebra, module, f):
    """Extension 0 -> M -> E -> C -> 0 from a 0-cochain f in M.

    Solves (d + lam) gamma = a_lam f exactly per generator; raises
    NotReducedCocycle when the division leaves a remainder (i.e. df is not
    in the d-action image).
    """
    if not module.is_free():
        raise NotReducedCocycle("part-2 extensions need a free module")
    gamma = []
    for i in range(algebra.ngens):
        image = module.act(i, _L1, f)
        parts = []
        for p in image:
            quot, rem = p.div_linear(DEL, -_L1)
            if rem:
                raise NotReducedCocycle(
                    "df is not in the image of the d-action; f is not a "
                    "reduced 0-cocycle"
                )
            parts.append(quot)
        gamma.append(tuple(parts))
    ext = TrivialExtension(algebra, module, f, gamma)
    ok, witness = ext.check()
    if not ok:
        raise NotACocycle("built extension failed the module axiom", witness)
    return ext


def trivial_extension_isomorphic(ext_a, ext_b, g_elem):
    """Whether (m,1) -> (m + g, 1) intertwines the two extensions.

    ext_a has datum f, ext_b has f + d g; checks the d-structure and every
    generator action.
    """
    M = ext_a.module
    dg = vec_scale(_DELP, g_elem)
    if ext_b.f != vec_add(ext_a.f, dg):
        return False
    A = ext_a.algebra
    for i in range(A.ngens):
        lhs = ext_b.gamma[i]
        rhs = vec_add(M.act(i, _L1, g_elem), ext_a.gamma[i])
        if tuple(lhs) != tuple(rhs):
            return False
    return True


# -- part 3: C[d]-split extensions of modules -----------------------------------


def extend_module(algebra, m_top, n_bottom, gamma_mats):
    """Block module M + N with a_lam (m, n) = (a_lam m + gamma_lam(a) n, a_lam n).

    gamma_mats[i] is a dim(M) x dim(N) matrix of polynomials in (lam1, d);
    the block module axiom is checked exactly and NotACocycle raised on
    failure.  Returns the validated ConformalModule.
    """
    if not (m_top.is_free() and n_bottom.is_free()):
        raise NotACocycle("part-3 extensions act on free modules")
    um, un = m_top.dim, n_bottom.dim
    dim = um + un
    action = []
    zero = RatPoly.zero()
    for i in range(algebra.ngens):
        rows = []
        for r in range(um):
            rows.append(
                [m_top.action[i][r][c] for c in range(um)]
                + [gamma_mats[i][r][c] for c in range(un)]
            )
        for r in range(un):
            rows.append([zero] * um + [n_bottom.action[i][r][c] for c in range(un)])
        action.append(rows)
    module = ConformalModule(
        "free",
        dim,
        action=action,
        basis_names=tuple(f"m.{x}" for x in m_top.basis_names)
        + tuple(f"n.{x}" for x in n_bottom.basis_names),
    )
    ok, witness = check_module(algebra, module)
    if not ok:
        raise NotACocycle("datum is not a 1-cocycle: block module axiom fails",
                          witness)
    return module


def coboundary_gamma(algebra, m_top, n_bottom, beta):
    """The datum of the coboundary of beta in Hom_{C[d]}(N, M).

    beta is a dim(M) x dim(N) matrix of polynomials in d;
    (d beta)_lam(a) = a_lam (beta n) - beta(a_lam n).
    """
    out = []
    shift = {DEL: _DELP + _L1}
    for i in range(algebra.ngens):
        a_m = m_top.action[i]
        a_n = n_bottom.action[i]
        beta_shift = [[p.subst_many(shift) for p in row] for row in beta]
        out.append(mat_sub(mat_mul(a_m, beta_shift), mat_mul(beta, a_n)))
    return out


def split_module_isomorphic(algebra, m_top, n_bottom, gamma_mats, beta):
    """Whether (m, n) -> (m + beta(n), n) maps the gamma+d(beta) extension
    onto the gamma one, as a map of C[d]- and A-modules."""
    um, un = m_top.dim, n_bottom.dim
    dim = um + un
    gamma2 = coboundary_gamma(algebra, m_top, n_bottom, beta)
    one = RatPoly.const(1)
    zero = RatPoly.zero()
    psi = [
        [one if r == c else zero for c in range(um)]
        + [beta[r][c] for c in range(un)]
        for r in range(um)
    ] + [
        [zero] * um + [one if r == c else zero for c in range(un)]
        for r in range(un)
    ]
    primed = extend_module(
        algebra, m_top, n_bottom,
        [mat_add(gamma_mats[i], gamma2[i]) for i in range(algebra.ngens)],
    )
    base = extend_module(algebra, m_top, n_bottom, gamma_mats)
    shift = {DEL: _DELP + _L1}
    for i in range(algebra.ngens):
        lhs = mat_mul(base.action[i], [[p.subst_many(shift) for p in row] for row in psi])
        rhs = mat_mul(psi, primed.action[i])
        if any(x != y for r1, r2 in zip(lhs, rhs) for x, y in zip(r1, r2)):
            return False
    return True


# -- part 5: first-order deformations --------------------------------------------


class DeformedAlgebra:
    """Bracket [.,.] + eps * gamma over the dual numbers (eps^2 = 0)."""

    def __init__(self, base, cocycle):
        self.base = base
        if isinstance(cocycle, Cochain):
            datum = datum_from_cochain(cocycle)
            n = base.ngens
            self.gamma = [[datum[(i, j)] for j in range(n)] for i in range(n)]
        else:
            self.gamma = cocycle
        # the eps-linear part of Jacobi: gamma in the outer bracket, then in
        # the inner one
        t, g = base.table, self.gamma
        ad_t, ad_g = left_matrices(t), left_matrices(g)
        deltas = [base.del_poly_for(m) for m in range(base.ngens)]
        self._eps_linear = (bracket_residual(ad_g, ad_t, t, deltas, True),
                            bracket_residual(ad_t, ad_g, g, deltas, True))
        self._eps_support = (bracket_support(ad_g, ad_t, t, True),
                             bracket_support(ad_t, ad_g, g, True))

    def jacobi_residual(self, i, j, k, m):
        """The eps-linear part of the Jacobi identity at one index tuple."""
        first, second = self._eps_linear
        return first(i, j, m, k) + second(i, j, m, k)

    def check_jacobi_mod_eps2(self):
        first, second = self._eps_support
        return first_failure(self.jacobi_residual, self.base.ngens,
                             lambda i, j: first(i, j) | second(i, j))

    def check_jacobi_integrated(self):
        """Jacobi of the bracket with eps set to 1 (the eps^2 obstruction too)."""
        deformed = ConformalAlgebra(
            self.base.gen_names,
            [
                [
                    tuple(
                        a + b
                        for a, b in zip(self.base.table[i][j], self.gamma[i][j])
                    )
                    for j in range(self.base.ngens)
                ]
                for i in range(self.base.ngens)
            ],
            del_scalars=self.base.del_scalars,
        )
        return check_jacobi(deformed)


def deform(base, cocycle):
    return DeformedAlgebra(base, cocycle)


# -- part 1: invariants ------------------------------------------------------------


def invariants_h0(algebra, module, bound=6):
    """Truncated kernel of the 0 -> 1 basic differential: the elements killed
    by every a_lam, with d-degree <= bound; returns (vectors, stabilized)."""
    dims = []
    results = None
    for b in (bound, bound + 1, bound + 2):
        columns = []
        labels = []
        for s in range(b + 1):
            for u in range(module.dim):
                if module.is_free():
                    elem = tuple(
                        _DELP ** s if x == u else RatPoly.zero()
                        for x in range(module.dim)
                    )
                else:
                    if s > 0:
                        continue
                    elem = tuple(
                        RatPoly.const(1) if x == u else RatPoly.zero()
                        for x in range(module.dim)
                    )
                col = {}
                for i in range(algebra.ngens):
                    image = module.act(i, _L1, elem)
                    for uu, p in enumerate(image):
                        for mono, coeff in p.terms.items():
                            col[(i, uu, mono)] = coeff
                columns.append(col)
                labels.append(elem)
        kernel = linalg.kernel_of_columns(columns)
        dims.append(len(kernel))
        vectors = []
        for kvec in kernel:
            total = tuple(
                sum((x * labels[jj][u] for jj, x in kvec.items()), RatPoly.zero())
                for u in range(module.dim)
            )
            vectors.append(total)
        results = vectors
    return results, dims[0] == dims[1] == dims[2]
