"""Finite-dimensional Lie algebras given by structure constants, and their
representations.

Presentations validate antisymmetry and the Jacobi identity exactly at
construction; shipped presentations (sl2, sl3) are read off from matrix
commutators in the defining representation, so the constructor check is an
independent route to their correctness.  Representations validate
[rho(a), rho(b)] = rho([a, b]) exactly.  Both are the constant case of the
conformal two-layer identity: the structure constants and the matrices go to
``poly.bracket_residual`` as constant term tables, and the checks visit only
the entries its support can make nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import linalg
from .errors import NotEquivariant, RepNotValid
from .poly import (
    RatPoly,
    bracket_residual,
    bracket_support,
    const_terms,
    left_matrices,
    mat_mul,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fm_zero(n, m=None):
    m = n if m is None else m
    return [[_ZERO] * m for _ in range(n)]


class LiePresentation:
    """Lie algebra given by names and exact structure constants."""

    def __init__(self, names, constants):
        self.names = tuple(names)
        n = len(self.names)
        self.c = [
            [tuple(Fraction(x) for x in constants[i][j]) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                if len(self.c[i][j]) != n:
                    raise ValueError("structure constant table has wrong shape")
        self.poly_table = [[tuple(RatPoly.const(x) for x in v) for v in row]
                           for row in self.c]
        self.term_table = [[tuple(const_terms(x) for x in v) for v in row]
                           for row in self.c]
        bad = self._check()
        if bad is not None:
            raise ValueError(f"not a Lie algebra: {bad}")

    @property
    def dim(self):
        return len(self.names)

    def bracket(self, i, j):
        return self.c[i][j]

    def _check(self):
        n = self.dim
        c = self.c
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if c[i][j][k] != -c[j][i][k]:
                        return f"antisymmetry fails at ({i},{j},{k})"
        table = self.term_table
        ad = left_matrices(table)
        residual = bracket_residual(ad, ad, table, [RatPoly.zero()] * n, True)
        support = bracket_support(ad, ad, table, True)
        # with antisymmetry the residual is antisymmetric in (i, j) and zero
        # at i = j, so the first failing (i, j, k, l) has i < j
        for i, j in combinations(range(n), 2):
            for k, l in sorted((k, l) for l, k in support(i, j)):
                if residual(i, j, l, k):
                    return f"Jacobi fails at ({i},{j},{k})"
        return None

    @classmethod
    def from_matrices(cls, names, mats):
        """Structure constants read off from commutators of basis matrices."""
        n = len(mats)
        size = len(mats[0])
        columns = []
        for m in mats:
            columns.append(
                {
                    (r, s): Fraction(m[r][s])
                    for r in range(size)
                    for s in range(size)
                    if m[r][s]
                }
            )
        # [x_i, x_i] = 0 and [x_j, x_i] = -[x_i, x_j]: one solve per i < j
        constants = [[(_ZERO,) * n] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            a, b = mats[i], mats[j]
            comm = (
                ((r, s), sum(a[r][t] * b[t][s] - b[r][t] * a[t][s]
                             for t in range(size)))
                for r in range(size)
                for s in range(size)
            )
            target = {rs: Fraction(c) for rs, c in comm if c}
            x = linalg.solve_columns(columns, target)
            if x is None:
                raise ValueError("matrices do not close under commutator")
            constants[i][j] = tuple(x.get(k, _ZERO) for k in range(n))
            constants[j][i] = tuple(-c for c in constants[i][j])
        return cls(names, constants)

    def __repr__(self):
        return f"LiePresentation({', '.join(self.names)})"


def sl2():
    """Standard basis {e, f, h} with [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    h = [[1, 0], [0, -1]]
    return LiePresentation.from_matrices(("e", "f", "h"), [e, f, h])


def sl3():
    """Chevalley-style basis of sl3 from the defining 3x3 matrices."""

    def unit(r, s):
        m = [[0] * 3 for _ in range(3)]
        m[r][s] = 1
        return m

    mats = [
        unit(0, 1),  # e1
        unit(1, 2),  # e2
        unit(0, 2),  # e3 = [e1, e2]
        unit(1, 0),  # f1
        unit(2, 1),  # f2
        unit(2, 0),  # f3
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],  # h1
        [[0, 0, 0], [0, 1, 0], [0, 0, -1]],  # h2
    ]
    names = ("e1", "e2", "e3", "f1", "f2", "f3", "h1", "h2")
    return LiePresentation.from_matrices(names, mats)


def abelian(n):
    zero = tuple(_ZERO for _ in range(n))
    constants = [[zero for _ in range(n)] for _ in range(n)]
    return LiePresentation(tuple(f"x{i + 1}" for i in range(n)), constants)


class Rep:
    """Representation by exact matrices, validated at construction."""

    def __init__(self, algebra, mats, names=None):
        self.algebra = algebra
        self.mats = [[[x if isinstance(x, Fraction) else Fraction(x)
                       for x in row] for row in m] for m in mats]
        self.dim = len(self.mats[0]) if self.mats else 0
        self.names = tuple(names) if names else tuple(
            f"u{j}" for j in range(self.dim)
        )
        bad = self._check()
        if bad is not None:
            raise RepNotValid(bad)

    def _check(self):
        g = self.algebra
        mats = [[[const_terms(x) for x in row] for row in m] for m in self.mats]
        residual = bracket_residual(mats, mats, g.term_table,
                                    [RatPoly.zero()] * self.dim, True)
        support = bracket_support(mats, mats, g.term_table, True)
        # [rho_i, rho_j] - rho([x_i, x_j]) is antisymmetric in (i, j) and
        # zero at i = j: the first failing pair has i < j
        for i, j in combinations(range(g.dim), 2):
            if any(residual(i, j, r, s) for r, s in support(i, j)):
                return f"[rho_{i}, rho_{j}] != rho([x_{i}, x_{j}])"
        return None

    def __repr__(self):
        return f"Rep(dim={self.dim} over {self.algebra!r})"


def trivial_rep(algebra, dim=1):
    return Rep(algebra, [_fm_zero(dim) for _ in range(algebra.dim)])


def adjoint_rep(algebra):
    n = algebra.dim
    mats = []
    for i in range(n):
        m = _fm_zero(n)
        for j in range(n):
            for k in range(n):
                m[k][j] = algebra.c[i][j][k]
        mats.append(m)
    return Rep(algebra, mats, names=algebra.names)


def sl2_irrep(algebra, m):
    """The (m+1)-dimensional irreducible module V(m) over the sl2 basis (e,f,h)."""
    if tuple(algebra.names) != ("e", "f", "h"):
        raise ValueError("sl2_irrep expects the standard sl2 presentation")
    dim = m + 1
    e = _fm_zero(dim)
    f = _fm_zero(dim)
    h = _fm_zero(dim)
    for j in range(dim):
        h[j][j] = Fraction(m - 2 * j)
        if j + 1 < dim:
            f[j + 1][j] = _ONE
        if j >= 1:
            e[j - 1][j] = Fraction(j * (m - j + 1))
    return Rep(algebra, [e, f, h], names=tuple(f"v{j}" for j in range(dim)))


def wedge2_rep(rep):
    """Exterior square with basis v_a ^ v_b, a < b."""
    pairs = list(combinations(range(rep.dim), 2))
    index = {p: n for n, p in enumerate(pairs)}
    mats = []
    for i in range(rep.algebra.dim):
        m = _fm_zero(len(pairs))
        rho = rep.mats[i]
        for (a, b), col in index.items():
            for r in range(rep.dim):
                if rho[r][a]:
                    coeff, x, y = rho[r][a], r, b
                    if x == y:
                        continue
                    sgn = 1 if x < y else -1
                    m[index[(min(x, y), max(x, y))]][col] += sgn * coeff
            for r in range(rep.dim):
                if rho[r][b]:
                    coeff, x, y = rho[r][b], a, r
                    if x == y:
                        continue
                    sgn = 1 if x < y else -1
                    m[index[(min(x, y), max(x, y))]][col] += sgn * coeff
        mats.append(m)
    names = tuple(f"{rep.names[a]}^{rep.names[b]}" for a, b in pairs)
    return Rep(rep.algebra, mats, names=names), pairs


def sym_power_rep(rep, n):
    """Symmetric power with monomial basis over multisets of size n."""
    basis = list(combinations_with_replacement(range(rep.dim), n))
    index = {b: k for k, b in enumerate(basis)}
    mats = []
    for i in range(rep.algebra.dim):
        m = _fm_zero(len(basis))
        rho = rep.mats[i]
        for mult, col in index.items():
            for slot in range(n):
                a = mult[slot]
                for r in range(rep.dim):
                    if rho[r][a]:
                        new = tuple(sorted(mult[:slot] + (r,) + mult[slot + 1:]))
                        m[index[new]][col] += rho[r][a]
        mats.append(m)
    names = tuple("*".join(rep.names[j] for j in b) for b in basis)
    return Rep(rep.algebra, mats, names=names), basis


def quotient_rep(rep, subspace_vectors):
    """Quotient by an invariant subspace; returns (rep, complement_indices, project).

    ``project`` maps a full-coordinate vector to quotient coordinates (the
    entries at the non-pivot indices after reduction mod the subspace).
    """
    rows = [
        {j: Fraction(v[j]) for j in range(rep.dim) if v[j]} for v in subspace_vectors
    ]
    reduced, pivots = linalg.sparse_rref(rows)
    pivot_set = set(pivots)
    comp = [j for j in range(rep.dim) if j not in pivot_set]

    def project(vec):
        v = {j: Fraction(vec[j]) for j in range(rep.dim) if vec[j]}
        v = linalg.reduce_mod_span(reduced, pivots, v)
        return [v.get(j, _ZERO) for j in comp]

    for rho in rep.mats:
        for row in reduced:
            img = {}
            for j, x in row.items():
                for r in range(rep.dim):
                    if rho[r][j]:
                        img[r] = img.get(r, _ZERO) + rho[r][j] * x
            img = {r: v for r, v in img.items() if v}
            if linalg.reduce_mod_span(reduced, pivots, img):
                raise ValueError("subspace is not invariant")

    mats = []
    for rho in rep.mats:
        m = _fm_zero(len(comp))
        for col, j in enumerate(comp):
            image = project([rho_r[j] for rho_r in rho])
            for r in range(len(comp)):
                m[r][col] = image[r]
        mats.append(m)
    names = tuple(rep.names[j] for j in comp)
    return Rep(rep.algebra, mats, names=names), comp, project


def equivariant_maps(rep_from, rep_to):
    """Basis of Hom_g(rep_from, rep_to) as matrices (rows x cols = to x from)."""
    g = rep_from.algebra
    nf, nt = rep_from.dim, rep_to.dim
    columns = []
    for r in range(nt):
        for c in range(nf):
            col = {}
            for i in range(g.dim):
                a, b = rep_from.mats[i], rep_to.mats[i]
                # coefficient of T[r][c] in (T a - b T)[x][y]
                for y in range(nf):
                    if a[c][y]:
                        key = (i, r, y)
                        col[key] = col.get(key, _ZERO) + a[c][y]
                for x in range(nt):
                    if b[x][r]:
                        key = (i, x, c)
                        col[key] = col.get(key, _ZERO) - b[x][r]
            columns.append({k: v for k, v in col.items() if v})
    kernel = linalg.kernel_of_columns(columns)
    maps = []
    for vec in kernel:
        t = _fm_zero(nt, nf)
        for idx, val in vec.items():
            t[idx // nf][idx % nf] = val
        maps.append(t)
    return maps


def check_equivariant(rep_from, rep_to, t):
    """Raise NotEquivariant unless T rho_from(x) = rho_to(x) T for all x."""
    for i in range(rep_from.algebra.dim):
        if mat_mul(t, rep_from.mats[i]) != mat_mul(rep_to.mats[i], t):
            raise NotEquivariant(f"map fails equivariance at generator {i}")
    return True
