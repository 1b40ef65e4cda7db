"""Conformal algebras and conformal modules from structure polynomials.

A conformal algebra is a finite family of generators L^k over the polynomial
ring in ``d`` with a bracket table  [L^i_lam L^j] = sum_k C_ij^k(lam, d) L^k.
Generators are normally free; a generator may instead be torsion, with ``d``
acting by a fixed rational scalar (used by abelian extensions with torsion
coefficients), in which case its table entries are stored with ``d`` already
evaluated.

Coefficient modules are either free over the ring in ``d`` with End(U)-valued
action polynomials, or a finite-dimensional space on which ``d`` acts by a
scalar and the algebra acts by zero.

All axiom checkers decide exact polynomial identities: skew-symmetry reduces
to  C_ij^k(lam, d) = -C_ji^k(-lam-d, d).  The Jacobi identity, associativity,
the module axiom and the left bimodule identity are one two-layer identity,
a_lam (b_mu x) -/+ b_mu (a_lam x) = (a_lam b)_(lam+mu) x, decided entry by
entry, first failure first, by ``poly.bracket_residual``: on the matrices of
the bracket table (d acting on each output row by d or by the row's torsion
scalar) or of the module action.  The right and mixed bimodule identities
put the product on the other side and are expanded here.
Elements of algebras and modules are plain tuples of polynomials in ``d``
(one per generator / basis vector).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import WrongModuleKind
from .liealg import LiePresentation, Rep
from .poly import (
    DEL,
    RatPoly,
    bracket_residual,
    bracket_support,
    lam,
    left_matrices,
    mat_add,
    mat_apply,
    mat_mul,
    mat_subst,
    terms_poly,
    vec_add,
    vec_scale,
    vec_subst,
    zero_vec,
)

_L1 = lam(1)
_L2 = lam(2)
_DELP = RatPoly.var(DEL)


class ConformalAlgebra:
    def __init__(self, gen_names, table, del_scalars=None, associative=False):
        self.gen_names = tuple(gen_names)
        n = len(self.gen_names)
        self.del_scalars = (
            tuple(del_scalars) if del_scalars is not None else (None,) * n
        )
        self.associative = associative
        self.table = []
        for i in range(n):
            row = []
            for j in range(n):
                vec = list(table[i][j])
                for k in range(n):
                    if self.del_scalars[k] is not None:
                        vec[k] = vec[k].substitute(DEL, self.del_scalars[k])
                row.append(tuple(vec))
            self.table.append(row)
        # the differentials' read plans and bracket expansion table, the
        # engine's skew placements per (sorted tuple, exponent vector), the
        # annihilation algebra's j-th products and level brackets, and the
        # slot reads of contraction and the action on cochains, filled on use
        self._read_plans = {}
        self._placements = {}
        self._bracket_expansions = {}
        self._jth_products = {}
        self._level_brackets = {}
        self._slot_reads = {}

    @property
    def ngens(self):
        return len(self.gen_names)

    def is_free(self, k):
        return self.del_scalars[k] is None

    def del_poly_for(self, k):
        a = self.del_scalars[k]
        return _DELP if a is None else RatPoly.const(a)

    def bracket(self, i, j):
        return self.table[i][j]

    def __repr__(self):
        kind = "associative conformal" if self.associative else "conformal"
        return f"<{kind} algebra on {', '.join(self.gen_names)}>"


class ConformalModule:
    """kind 'free': C[d] x U with action polynomials; 'scalar': d acts by a."""

    def __init__(self, kind, dim, action=None, del_scalar=None, right_action=None,
                 basis_names=None):
        self.kind = kind
        self.dim = dim
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"v{j}" for j in range(dim)
        )
        if kind == "free":
            self.action = action
            self.right_action = right_action
            self.del_scalar = None
        elif kind == "scalar":
            self.action = None
            self.right_action = None
            self.del_scalar = Fraction(del_scalar if del_scalar is not None else 0)
        else:
            raise ValueError(f"unknown module kind {kind!r}")
        # the differentials' action expansion table, and the level
        # module's j-th products and level action rows, filled on use
        self._action_expansions = {}
        self._jth_products = {}
        self._level_actions = {}

    def is_free(self):
        return self.kind == "free"

    def del_poly(self):
        return _DELP if self.kind == "free" else RatPoly.const(self.del_scalar)

    def act(self, gen, param, value):
        """Action of the generator at parameter ``param`` on a module value.

        Values may carry d; the sesquilinear shift d -> d + param is applied
        before the action matrix A(param, d).
        """
        if self.kind == "scalar":
            return zero_vec(self.dim)
        mat = mat_subst(self.action[gen], {_L1: param})
        shifted = vec_subst(value, {DEL: _DELP + param})
        return mat_apply(mat, shifted)

    def act_element(self, elem, param, value):
        """Sesquilinear extension to an algebra element (d-polys per generator)."""
        out = zero_vec(self.dim)
        for i, p in enumerate(elem):
            if not p:
                continue
            scal = p.substitute(DEL, -param)
            out = vec_add(out, vec_scale(scal, self.act(i, param, value)))
        return out

    def __repr__(self):
        if self.kind == "scalar":
            return f"<scalar module dim {self.dim}, d acts by {self.del_scalar}>"
        return f"<free module of rank {self.dim}>"


# -- builders ----------------------------------------------------------------


def build_vir():
    """One generator L with [L_lam L] = (d + 2 lam) L."""
    table = [[(RatPoly.var(DEL) + 2 * RatPoly.var(_L1),)]]
    return ConformalAlgebra(("L",), table)


def build_current(g: LiePresentation):
    """Current algebra on a Lie presentation: [a_lam b] = [a, b]."""
    return ConformalAlgebra(g.names, g.poly_table)


def build_assoc_current(names, mult):
    """Associative current algebra of a C-algebra: a_lam b = a.b (constant)."""
    n = len(names)
    table = [
        [tuple(RatPoly.const(mult[i][j][k]) for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return ConformalAlgebra(names, table, associative=True)


def dual_numbers_current():
    """Cur of C[x]/(x^2): the commutative associative d^2 = 0 fixture."""
    one, x = 0, 1
    mult = [[[0, 0], [0, 0]] for _ in range(2)]
    mult[one][one] = [1, 0]
    mult[one][x] = [0, 1]
    mult[x][one] = [0, 1]
    mult[x][x] = [0, 0]
    return build_assoc_current(("one", "x"), mult)


def build_m_delta_alpha(delta, alpha):
    """Rank-one module with L_lam v = (d + alpha + delta*lam) v."""
    act = RatPoly.var(DEL) + RatPoly.const(alpha) + RatPoly.const(delta) * RatPoly.var(_L1)
    return ConformalModule("free", 1, action=[[[act]]], basis_names=("v",))


def build_m_u(g: LiePresentation, rep: Rep):
    """Current module C[d] x U with a_lam u = a u (constant matrices)."""
    if rep.algebra is not g and rep.algebra.names != g.names:
        raise ValueError("representation is over a different presentation")
    action = [
        [[RatPoly.const(rep.mats[i][r][s]) for s in range(rep.dim)]
         for r in range(rep.dim)]
        for i in range(g.dim)
    ]
    return ConformalModule("free", rep.dim, action=action, basis_names=rep.names)


def build_trivial(dim=1, a=0):
    """Torsion coefficients: zero action, d acts by the scalar a."""
    return ConformalModule("scalar", dim, del_scalar=a)


def adjoint_module(algebra: ConformalAlgebra):
    """The algebra as a module over itself through its bracket."""
    if not all(algebra.is_free(k) for k in range(algebra.ngens)):
        raise WrongModuleKind("adjoint module needs a free algebra")
    return ConformalModule("free", algebra.ngens, action=left_matrices(algebra.table),
                           basis_names=algebra.gen_names)


def regular_bimodule(algebra: ConformalAlgebra):
    """The regular bimodule of an associative conformal algebra."""
    n = algebra.ngens
    right = [
        [[algebra.table[j][i][k] for j in range(n)] for k in range(n)]
        for i in range(n)
    ]
    return ConformalModule(
        "free", n, action=left_matrices(algebra.table), right_action=right,
        basis_names=algebra.gen_names,
    )


# -- evaluation --------------------------------------------------------------


def bracket_eval(algebra, a, b, param=None):
    """[a_param b] for elements a, b (tuples of d-polynomials per generator)."""
    param = RatPoly.var(_L1) if param is None else param
    n = algebra.ngens
    out = []
    for m in range(n):
        delta = algebra.del_poly_for(m)
        total = RatPoly.zero()
        shift = {DEL: param + delta}
        for i, ai in enumerate(a):
            if not ai:
                continue
            ai_s = ai.substitute(DEL, -param)
            for j, bj in enumerate(b):
                if not bj:
                    continue
                cm = algebra.table[i][j][m]
                if not cm:
                    continue
                total = total + ai_s * bj.subst_many(shift) * cm.subst_many({_L1: param})
        out.append(total)
    return tuple(out)


def action_eval(module, a, v, param=None):
    """a_param v for an algebra element a and module element v."""
    param = RatPoly.var(_L1) if param is None else param
    return module.act_element(a, param, v)


# -- axiom checkers ----------------------------------------------------------


def check_skew_symmetry(algebra):
    """C_ij^k(lam, d) = -C_ji^k(-lam - d_k, d) exactly; (ok, witness).

    An (i, j, k) whose two entries are both zero holds trivially and is
    skipped, which keeps the order of the others."""
    n = algebra.ngens
    lam1 = RatPoly.var(_L1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                entry, mirror = algebra.table[i][j][k], algebra.table[j][i][k]
                if not (entry or mirror):
                    continue
                delta = algebra.del_poly_for(k)
                residual = entry + mirror.subst_many({_L1: -lam1 - delta})
                if residual:
                    return False, (i, j, k, residual)
    return True, None


def first_failure(residual, n, support):
    """(ok, witness): the first (i, j, k, m) with a nonzero residual(i, j, k, m),
    the component m of an identity on (a_i, a_j, a_k).

    ``residual`` returns term tables; the witness is the RatPoly of the
    first nonzero one.  ``support(i, j)`` is a set holding every (m, k) at
    which that component can be nonzero; the other entries are skipped,
    which keeps the order.
    """
    for i, j in product(range(n), repeat=2):
        for k, m in sorted((k, m) for m, k in support(i, j)):
            res = residual(i, j, k, m)
            if res:
                return False, (i, j, k, m, terms_poly(res))
    return True, None


def _check_table_identity(algebra, commutator):
    """(ok, witness) of the two-layer identity on the table's own matrices;
    its component m on (a_i, a_j, a_k) is the kernel's entry (m, k)."""
    ad = left_matrices(algebra.table)
    deltas = [algebra.del_poly_for(m) for m in range(algebra.ngens)]
    residual = bracket_residual(ad, ad, algebra.table, deltas, commutator)
    return first_failure(lambda i, j, k, m: residual(i, j, m, k), algebra.ngens,
                         bracket_support(ad, ad, algebra.table, commutator))


def check_jacobi(algebra):
    """[a_lam [b_mu c]] = [[a_lam b]_(lam+mu) c] + [b_mu [a_lam c]]; (ok, witness)."""
    return _check_table_identity(algebra, True)


def check_associativity(algebra):
    """a_lam (b_mu c) = (a_lam b)_(lam+mu) c exactly; (ok, witness)."""
    return _check_table_identity(algebra, False)


def check_module(algebra, module):
    """a_lam(b_mu v) - b_mu(a_lam v) = [a_lam b]_(lam+mu) v; (ok, witness)."""
    if module.kind == "scalar":
        return True, None
    act = module.action
    residual = bracket_residual(act, act, algebra.table, [_DELP] * module.dim,
                                True)
    support = bracket_support(act, act, algebra.table, True)
    for i, j in product(range(algebra.ngens), repeat=2):
        for r, s in sorted(support(i, j)):
            entry = residual(i, j, r, s)
            if entry:
                return False, (i, j, (r, s), terms_poly(entry))
    return True, None


def check_bimodule(algebra, module):
    """Left, right, and mixed associativity for a conformal bimodule."""
    ok, witness = check_associativity(algebra)
    if not ok:
        return False, ("algebra", witness)
    if module.kind != "free" or module.right_action is None:
        return False, ("shape", "bimodule needs a free module with a right action")
    n, dim = algebra.ngens, module.dim
    lam1, lam2 = RatPoly.var(_L1), RatPoly.var(_L2)
    left, right = module.action, module.right_action
    # the left identity is the kernel's; the right and mixed ones put the
    # product on the other side and are expanded here
    left_residual = bracket_residual(left, left, algebra.table, [_DELP] * dim, False)
    left_support = bracket_support(left, left, algebra.table, False)
    for i in range(n):
        for j in range(n):
            # left: a_lam (b_mu m) = (a_lam b)_(lam+mu) m
            if any(left_residual(i, j, r, s) for r, s in left_support(i, j)):
                return False, ("left", (i, j))
            # right: m_lam (a_mu b) = (m_lam a)_(lam+mu) b
            lhs = None
            for k in range(n):
                c = algebra.table[i][j][k]
                if not c:
                    continue
                term = [
                    [c.subst_many({_L1: lam2, DEL: lam1 + _DELP}) * p for p in row]
                    for row in right[k]
                ]
                lhs = term if lhs is None else mat_add(lhs, term)
            if lhs is None:
                lhs = [[RatPoly.zero()] * dim for _ in range(dim)]
            rhs = mat_mul(
                mat_subst(right[j], {_L1: lam1 + lam2}),
                mat_subst(right[i], {DEL: -lam1 - lam2}),
            )
            if lhs != rhs:
                return False, ("right", (i, j))
            # mixed: a_lam (m_mu b) = (a_lam m)_(lam+mu) b
            lhs = mat_mul(left[i], mat_subst(right[j], {_L1: lam2, DEL: lam1 + _DELP}))
            rhs = mat_mul(
                mat_subst(right[j], {_L1: lam1 + lam2}),
                mat_subst(left[i], {DEL: -lam1 - lam2}),
            )
            if lhs != rhs:
                return False, ("mixed", (i, j))
    return True, None
