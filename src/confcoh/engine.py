"""Bidegree slicing, exact differential matrices, and Betti tables.

A complex is (algebra, module, variant in {basic, reduced}).  Slice bases in
bidegree (q, d) are skew-basis shapes tensored with the module basis; every
value the engine touches is a polynomial in the lam variables alone (reduced
representatives are d-free, scalar coefficients never carry d, named
parameters are refused), so coordinates are read off exponent vectors.

The Betti entry points (truncation_sweep, graded_bidegree_dims) read one
SliceComplex, made for that call.  The store fills each bidegree (q, d) on
first read and keeps its basis pairs and its differential columns, plus, for
scalar-coefficient reduced complexes, the rows of the (a + sum lam_i) image.
No slice map builds a Cochain or a RatPoly per column.  A column is read
from one placement of its shape (kernel.skew_column): a skew shape is the
alternation of one monomial and d commutes with the alternation, so d of
the shape is the alternation of one action read at slot 0 and one bracket
read per slot, each term placed in the basis by sorting its pairs, with the
sign of the sort; over a free module the reduced cut d := -(lam1 + ... +
lam_{q+1}) applies to the action's d alone.  That needs free generators
and a skew-symmetric bracket, which ComplexSpec checks once (no torsion
generator, then algebra.check_skew_symmetry).  Columns hold ints where
integral.  The (a + sum lam_i) rows read a on the pair and raise one slot's
exponent per term.  A cochain's coordinates (verify_cocycle's cocycle test
and target) are read by cochain_coords from its terms or from
apply_differential's sums, taking each exponent vector's (basis element,
sign) from the placement memo kept on the algebra (``_placements``, filled
on use and shared by every verify_cocycle call on it).

The store reads only the pairs of Cartan weight 0.  For a current algebra
(constant brackets, no torsion generator) take a generator h whose ad is
diagonal on the generators with constant entries and which acts on a free
module by a constant diagonal matrix (a scalar module has weight 0).  BKV's
Cartan formula theta(a) = d iota(a) + iota(a) d for a = h (x) 1 gives a map
that commutes with d, is null-homotopic, and acts on a basis pair (shape,
u) by the scalar wt(u) - sum wt(a_i) over the shape's generators; it also
commutes with multiplication by (a + sum lam_i).  Every nonzero weight space
is therefore acyclic, and the cohomology is that of the weight-0 pairs
alone, for every such h with a nonzero weight (cartan_weights).  The pairs
keep their slice order, and d preserves weight, so kernels, RREFs and
representatives are those of the full slice restricted to weight 0.
slice_pairs and verify_cocycle read the full slice: a coboundary of nonzero
weight needs primitives of that weight.

Two computation modes, decided by the spec (ComplexSpec.shift):

* graded -- every nonzero term of the brackets, and of the action over a
  free module, has one total degree in (lam1, d), the shift (0 when there
  is no term), and a scalar quotient has d-action scalar 0, so d maps slice
  (q, d) into (q + 1, d + shift) and the quotient by (sum lam_i) is
  homogeneous too.  The dimension of each bidegree is then exact: h(q, d) =
  n(q, d) - rank(q, d) - rank(q - 1, d - shift), n the quotient-slice
  dimension and rank(q, d) the rank of the induced differential out of
  (q, d), kept per store from its first read (graded_rank), so bidegrees
  may be read in any order.  A Betti row sums h over d <= D+2 and is
  stabilized when h vanishes at d = D+1 and D+2.
* window -- filtered differentials (terms of two degrees, such as the alpha
  of M_{Delta,alpha}, or a scalar quotient with a != 0).  Cocycles in
  degrees <= D are exact (over a scalar quotient d of a cocycle lies in the
  span of the (a + sum lam_i) image rows, eliminated with the columns in
  one kernel); the coboundary space is approximated by images of the
  window, and agreement across bounds D, D+1, D+2 is reported as the
  stabilized flag.  A row is one pass per degree q (window_row), which
  reads the slices from the store and keeps nothing of its own: one
  cocycle kernel of the top window D+2, whose prefixes are the kernels of
  the smaller windows, one coboundary echelon form grown from D to D+2,
  and h at each bound as the rank of the cocycles' remainders modulo it,
  the remainders of one bound carried to the next.

The scalar-module reduced complex is the quotient by the image of
multiplication by (a + sum lam_i), taken one way, against the image rows:
graded slices reduce their columns modulo the rows' echelon form
(_quotient), and window rows and verify_cocycle eliminate the rows together
with the columns or the target.  No variable is eliminated.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction

from . import linalg
from .algebra import check_skew_symmetry
from .cochain import BASIC, REDUCED, Cochain, term_sums
# no caller here; bench/tracer.py wraps this binding by name (bench/test_bench.py)
from .cochain import d_basic  # noqa: F401
from .errors import NotEquivariant, UnstableTruncation, UnsupportedComplex
from .kernel import skew_column
from .liealg import check_equivariant, sym_power_rep, adjoint_rep
from .poly import RatPoly, exact, lam, parameter_names, vec_is_zero
from .skew import (element_terms, element_tuple, monomial_coordinates,
                   permutation_sign, skew_basis)


class ComplexSpec:
    """A complex (algebra, module, variant) the engine can slice, and its
    grading: ``shift`` is the common total degree in (lam1, d) of every
    nonzero term of the brackets and, over a free module, of the action
    (0 when there is none), or None when two terms differ or the complex
    is a scalar quotient with a != 0."""

    def __init__(self, algebra, module, variant=REDUCED, label=""):
        self.algebra = algebra
        self.module = module
        self.variant = variant
        self.label = label
        if self.variant not in (BASIC, REDUCED):
            raise UnsupportedComplex(
                f"the engine slices basic/reduced Lie complexes, not {self.variant}"
            )
        if self.variant == BASIC and self.module.is_free():
            raise UnsupportedComplex(
                "basic complexes over free modules are infinite in the d "
                "direction; only their H^0 is exposed (invariants_h0)"
            )
        entries = [p for row in self.algebra.table for vec in row for p in vec]
        if self.module.is_free():
            entries += [p for mat in self.module.action for row in mat for p in row]
        names = parameter_names(entries)
        if names:
            raise UnsupportedComplex("the engine takes no named parameter; the "
                                     f"brackets or the action use {', '.join(names)}")
        alg = self.algebra
        torsion = [alg.gen_names[k] for k in range(alg.ngens) if not alg.is_free(k)]
        if torsion:
            raise UnsupportedComplex("the engine takes no torsion generator; d "
                                     f"acts by a scalar on {', '.join(torsion)}")
        ok, witness = check_skew_symmetry(alg)
        if not ok:
            failure = witness[:3]
            a, b, k = (alg.gen_names[i] for i in failure)
            raise UnsupportedComplex(
                f"the bracket is not skew-symmetric at (a, b, k) = {failure}: "
                f"component {k} of [{b}_mu {a}] is not -[{a}_lam {b}] at "
                "d = -(lam + mu)")
        degrees = {sum(e for _, e in mono) for p in entries for mono in p.terms}
        graded = len(degrees) <= 1 and not (self.scalar_quotient
                                            and self.module.del_scalar)
        self.shift = min(degrees, default=0) if graded else None

    @property
    def scalar_quotient(self):
        return self.variant == REDUCED and not self.module.is_free()


def slice_pairs(spec, q, d):
    """Deterministically ordered basis labels (shape element, module index)."""
    elements = skew_basis(q, d, spec.algebra.ngens).elements
    return [(elem, u) for elem in elements for u in range(spec.module.dim)]


def cochain_coords(sums, placements):
    """Coordinates {(shape, u): coeff} of lam-only skew values given as
    {sorted tuple: per component {(lam exponents, rest): coeff}}: the sums
    of apply_differential, or a cochain's ``kernel_terms``.
    ``placements`` is the caller's placement memo (monomial_coordinates).
    An element's pairs carry its tuple, so no (element, u) is read twice."""
    coords = {}
    for t, comps in sums.items():
        for u, terms in enumerate(comps):
            for elem, coeff in monomial_coordinates(terms, t, placements).items():
                coords[(elem, u)] = coeff
    return coords


def coords_to_cochain(spec, q, coords):
    """The cochain with basis coordinates {(shape, u): coeff}: each shape's
    terms (``skew.element_terms``) times its coefficient."""
    terms = {}
    dim = spec.module.dim
    for (elem, u), coeff in coords.items():
        if not coeff:
            continue
        t = element_tuple(elem)
        comps = terms.get(t)
        if comps is None:
            comps = terms[t] = [{} for _ in range(dim)]
        comp = comps[u]
        for key, sign in element_terms(elem, q).items():
            comp[key] = comp.get(key, 0) + sign * coeff
    return Cochain.from_terms(spec.algebra, spec.module, q, spec.variant, terms)


def cartan_weights(spec):
    """[(generator weights, module weights)] of each Cartan generator with a
    nonzero weight, ints where integral; [] unless the algebra is a current
    Lie conformal algebra (constant brackets; ComplexSpec refuses a torsion
    generator).

    A generator h is Cartan when [h_lam x_j] = w_j x_j with constant w_j for
    every generator x_j and, on a free module, h acts by a constant diagonal
    matrix; on a scalar module every weight is 0.
    """
    alg, module = spec.algebra, spec.module
    n = alg.ngens
    if alg.associative:
        return []
    if not all(_constant(p) for row in alg.table for vec in row for p in vec):
        return []
    out = []
    for h in range(n):
        ad = alg.table[h]
        if any(ad[j][k] for j in range(n) for k in range(n) if k != j):
            continue
        if module.is_free():
            act = module.action[h]
            if any(act[r][s] if r != s else not _constant(act[r][r])
                   for r in range(module.dim) for s in range(module.dim)):
                continue
            module_weights = tuple(exact(act[u][u].const_value())
                                   for u in range(module.dim))
        else:
            module_weights = (0,) * module.dim
        generator_weights = tuple(exact(ad[j][j].const_value()) for j in range(n))
        if any(generator_weights) or any(module_weights):
            out.append((generator_weights, module_weights))
    return out


def _constant(p):
    return p.terms.keys() <= {()}


def _weight(weights, pair):
    """The eigenvalue of theta(h (x) 1) on a basis pair."""
    generator_weights, module_weights = weights
    elem, u = pair
    return module_weights[u] - sum(generator_weights[k] for k, _ in elem)


def _defining_data(x):
    """The algebra and module of a spec or a cochain, compared by value:
    equal but distinct builds (sl2_example_cocycle makes its own) agree."""
    a, m = x.algebra, x.module
    return a.gen_names, a.table, a.del_scalars, m.kind, m.dim, m.action, m.del_scalar


def apply_differential(spec, c):
    """d(c) as the sums of ``cochain.term_sums``; no Cochain or RatPoly."""
    if c.variant != spec.variant:
        raise ValueError(f"a {spec.variant} complex differentiates "
                         f"{spec.variant} cochains, not {c.variant}")
    if ((c.algebra is not spec.algebra or c.module is not spec.module)
            and _defining_data(c) != _defining_data(spec)):
        raise ValueError("the cochain is not over the complex's algebra and module")
    return term_sums(c.algebra, c.module, c.q, c.variant, c.kernel_terms())


def _column(spec, q, pair):
    """Coordinates of d of a basis pair, from one placement of its shape
    (``kernel.skew_column``)."""
    elem, u = pair
    return skew_column(spec.algebra, spec.module, q, elem, u,
                       spec.variant == REDUCED)


def _mult_coords(spec, pair):
    """Coordinates of (a + sum lam_i) times a basis cochain.

    a stays on the pair itself.  sum lam_i is symmetric, so it commutes with
    the antisymmetrization and raises one slot's exponent at a time.  Pairs
    are ordered by generator, then exponent, so a raised pair stays below
    the pair before it or equals it; the element stays sorted, with sign +1,
    or repeats a pair and antisymmetrizes to zero.
    """
    elem, u = pair
    a = exact(spec.module.del_scalar) if spec.scalar_quotient else 0
    coords = {pair: a} if a else {}
    for s, (k, e) in enumerate(elem):
        raised = (k, e + 1)
        if s and elem[s - 1] == raised:
            continue
        coords[(elem[:s] + (raised,) + elem[s + 1:], u)] = 1
    return coords


class SliceComplex:
    """The bidegree slices of one complex, each filled on first read and kept
    for the life of the store: one entry-point call, never shared.  The
    pairs, columns, image rows, graded quotients and graded ranks are kept;
    a window row is computed from them in one pass and not kept."""

    def __init__(self, spec):
        self.spec = spec
        self._weights = None  # cartan_weights, found on the first read
        self._pairs = {}
        self._columns = {}
        self._mult = {}
        self._quotients = {}
        self._ranks = {}

    def pairs(self, q, d):
        """The weight-0 basis pairs of (q, d), in slice order (all of them
        when the algebra has no Cartan generator with a nonzero weight)."""
        key = (q, d)
        if key not in self._pairs:
            if self._weights is None:
                self._weights = cartan_weights(self.spec)
            self._pairs[key] = [
                p for p in slice_pairs(self.spec, q, d)
                if not any(_weight(w, p) for w in self._weights)
            ]
        return self._pairs[key]

    def columns(self, q, d):
        """Coordinates of the differential of each basis cochain of (q, d)."""
        key = (q, d)
        if key not in self._columns:
            self._columns[key] = [_column(self.spec, q, p) for p in self.pairs(q, d)]
        return self._columns[key]

    def mult_rows(self, q, d):
        """Coordinates of (a + sum lam_i) times each basis cochain of (q, d)."""
        key = (q, d)
        if key not in self._mult:
            self._mult[key] = [_mult_coords(self.spec, p) for p in self.pairs(q, d)]
        return self._mult[key]

    # -- graded mode -------------------------------------------------------------

    def _quotient(self, q, d):
        """Echelon form of the (sum lam_i) image inside slice (q, d); scalar
        reduced only."""
        key = (q, d)
        if key not in self._quotients:
            rows = []
            if self.spec.scalar_quotient and q > 0 and d > 0:
                rows = self.mult_rows(q, d - 1)
            self._quotients[key] = linalg.echelon(rows) if rows else ([], [])
        return self._quotients[key]

    def _graded_matrix(self, q, d, exact=True):
        """Columns of the induced differential on quotient slices; with no
        quotient in the target they are the stored columns, ints kept.
        Unless exact, a reduced column is an int multiple of its remainder,
        which leaves the rank and the span of the columns unchanged."""
        rows_out, pivots_out = self._quotient(q + 1, d + self.spec.shift)
        pivots_in = set(self._quotient(q, d)[1])
        reduce = linalg.reduce_mod_span if exact else linalg.remainder_multiple
        return [
            reduce(rows_out, pivots_out, col) if pivots_out else col
            for pair, col in zip(self.pairs(q, d), self.columns(q, d))
            if pair not in pivots_in
        ]

    def graded_rank(self, q, d):
        """The rank of the induced differential out of quotient slice (q, d),
        0 when q < 0 or d < 0.  Eliminated on first read, as rows (the
        orientation of kernel_of_columns), and kept."""
        if q < 0 or d < 0:
            return 0
        key = (q, d)
        if key not in self._ranks:
            cols = self._graded_matrix(q, d, exact=False)
            self._ranks[key] = linalg.rank(linalg.transpose(cols)) if cols else 0
        return self._ranks[key]

    def graded_h(self, q, d, want_reps=False):
        """(h, representatives) at bidegree (q, d) of a graded complex.

        h = n - rank(q, d) - rank(q - 1, d - shift), n the dimension of the
        quotient slice (q, d), each rank read through graded_rank, so
        bidegrees may be read in any order.  Representatives need the kernel
        of (q, d); it gives rank(q, d) as well, which is kept, so a sweep in
        increasing q eliminates each slice matrix once either way.
        """
        pivots = set(self._quotient(q, d)[1])
        domain = [p for p in self.pairs(q, d) if p not in pivots]
        if not domain:
            return 0, []
        shift = self.spec.shift
        incoming = self.graded_rank(q - 1, d - shift)
        if not want_reps:
            return len(domain) - self.graded_rank(q, d) - incoming, []
        kernel = linalg.kernel_of_columns(self._graded_matrix(q, d))
        self._ranks[(q, d)] = len(domain) - len(kernel)
        h = len(kernel) - incoming
        if not h:
            return 0, []
        prev_cols = (self._graded_matrix(q - 1, d - shift, exact=False)
                     if incoming else [])
        cocycles = [{domain[j]: x for j, x in kvec.items()} for kvec in kernel]
        remainders = _remainders(*linalg.echelon(prev_cols), cocycles)
        normal = linalg.sparse_rref(remainders)[0]
        return h, [coords_to_cochain(self.spec, q, row) for row in normal[:h]]

    # -- window mode -------------------------------------------------------------

    def window_row(self, q, bound, want_reps=False):
        """([h at D, D+1, D+2], representatives at D+2) in degree q, D =
        bound, each h over the window d <= that bound.  Nothing is kept.

        Cocycles: one kernel over the top window D+2.  The domain is ordered
        by d and kernel_of_columns picks pivots in column order, so the RREF
        of a column prefix is the prefix of the RREF: the cocycles of a
        smaller window are the vectors whose free index (their largest)
        falls inside it.  Over a scalar quotient d of a cocycle need only lie
        in the (a + sum lam_i) image, of one lam-degree less: the image rows
        of degree q + 1 below the columns' top degree go ahead of the
        columns.  They are independent, so every free index is a column.

        Coboundaries: one echelon form of the differentials of degree q - 1
        and, for scalar coefficients, the (a + sum lam_i) multiples, grown
        from bound to bound by eliminating its rows with the rows of the new
        d.  Its rows may differ from a fresh elimination's, but its span,
        pivot set and remainders (reduce_mod_span) are the same.

        Classes: the cocycles are independent, so h is the rank of their
        remainders.  A remainder is the unique vector of its class that is
        zero at every pivot and the coboundary span only grows, so at D+1
        and D+2 only the echelon rows of the previous bound's remainders and
        the new cocycles are reduced: the span of the remainders, and with
        it h and their RREF (the representatives), is unchanged.
        """
        top = bound + 2
        domain, zcols, widths = [], [], []
        for d in range(top + 1):
            domain += self.pairs(q, d)
            zcols += self.columns(q, d)
            widths.append(len(domain))
        image = []
        if self.spec.scalar_quotient:
            deg = max((sum(e for _, e in elem) for col in zcols for elem, _ in col),
                      default=0)
            for d in range(deg):
                image += self.mult_rows(q + 1, d)
        skip = len(image)
        kernel = linalg.kernel_of_columns(image + zcols)
        frees = [max(kvec) - skip for kvec in kernel]
        cocycles = [{domain[j - skip]: x for j, x in kvec.items() if j >= skip}
                    for kvec in kernel]
        rows, classes, hs, seen = [], [], [], 0
        for b in range(bound, top + 1):
            for d in range(0 if b == bound else b, b + 1):
                if q > 0:
                    rows += self.columns(q - 1, d)
                if self.spec.scalar_quotient:
                    rows += self.mult_rows(q, d)
            rows, pivots = linalg.echelon(rows)
            new = bisect_left(frees, widths[b])
            classes += cocycles[seen:new]
            seen = new
            remainders = _remainders(rows, pivots, classes)
            if b == top and want_reps:
                classes = linalg.sparse_rref(remainders)[0]
            else:
                classes = linalg.echelon(remainders)[0]
            hs.append(len(classes))
        if not want_reps:
            return hs, []
        return hs, [coords_to_cochain(self.spec, q, row) for row in classes]


def _remainders(rows, pivots, vectors):
    """The nonzero remainders of the vectors modulo an echelon or reduced
    span, each as an int multiple: their rank and their RREF, what the
    callers read, do not change under scaling."""
    remainders = []
    for v in vectors:
        rem = linalg.remainder_multiple(rows, pivots, v)
        if rem:
            remainders.append(rem)
    return remainders


class BettiRow:
    def __init__(self, q, dim, bound, stabilized, mode, representatives=None):
        self.q = q
        self.dim = dim
        self.bound = bound
        self.stabilized = stabilized
        self.mode = mode
        self.representatives = [] if representatives is None else representatives


class BettiTable:
    def __init__(self, label, variant, rows):
        self.label = label
        self.variant = variant
        self.rows = rows

    def dims(self):
        return [row.dim for row in self.rows]

    def to_text(self):
        lines = [f"complex: {self.label} [{self.variant}]"]
        header = f"{'q':>3} {'dim':>5} {'D':>4} {'stabilized':>11}  representatives"
        lines.append(header)
        for row in self.rows:
            reps = "; ".join(_rep_text(c) for c in row.representatives)
            lines.append(
                f"{row.q:>3} {row.dim:>5} {row.bound:>4} {str(row.stabilized):>11}  {reps}"
            )
        return "\n".join(lines)

    def to_csv(self):
        lines = ["label,variant,q,dim,D,stabilized,mode,representatives"]
        for row in self.rows:
            reps = " | ".join(_rep_text(c) for c in row.representatives)
            lines.append(
                f"{self.label},{self.variant},{row.q},{row.dim},{row.bound},"
                f"{row.stabilized},{row.mode},\"{reps}\""
            )
        return "\n".join(lines)

    def to_json_obj(self):
        return {
            "label": self.label,
            "variant": self.variant,
            "rows": [
                {
                    "q": row.q,
                    "dim": row.dim,
                    "D": row.bound,
                    "stabilized": row.stabilized,
                    "mode": row.mode,
                    "representatives": [_rep_text(c) for c in row.representatives],
                }
                for row in self.rows
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), indent=2)


def _rep_text(c):
    parts = []
    for t in sorted(c.values):
        vec = c.values[t]
        args = ",".join(c.algebra.gen_names[i] for i in t)
        for u, p in enumerate(vec):
            if p:
                name = c.module.basis_names[u]
                parts.append(f"({args})->{name}: {p}")
    return " ; ".join(parts) if parts else "0"


# -- public API --------------------------------------------------------------------

# verify_cocycle searches for a primitive in lam-degrees up to deg(gamma) + this
_COBOUNDARY_SLACK = 2


def _check_counts(qmax, bound):
    if qmax < 0 or bound < 0:
        raise ValueError(f"qmax and bound must be >= 0, got {qmax} and {bound}")


def truncation_sweep(spec, qmax, bound=8, representatives=False):
    """Betti rows at bounds D, D+1, D+2.

    A graded row sums the per-bidegree h over d <= D+2 and is stabilized when
    h vanishes at d = D+1 and D+2; a window row is stabilized when the three
    bounds agree.  A window row is one SliceComplex.window_row pass per
    degree, which keeps nothing: one kernel for the cocycles of the top
    window D+2, one coboundary echelon form grown through D, D+1 and D+2,
    and each top-window cocycle reduced once, its remainder carried from
    bound to bound.  Either flag is evidence, not proof: nothing above D+2
    is read.  Cur sl2 / M_V(8) at
    qmax 4, bound 4 has H^4 = 0, stabilized, yet h(4, 10) = 1.
    """
    _check_counts(qmax, bound)
    store = SliceComplex(spec)
    top = bound + 2
    rows = []
    for q in range(qmax + 1):
        if spec.shift is None:
            hs, reps = store.window_row(q, bound, representatives)
            dim = hs[-1]
            stabilized = hs[0] == hs[1] == dim
        else:
            per_d = [store.graded_h(q, d, representatives)
                     for d in range(top + 1)]
            dim = sum(h for h, _ in per_d)
            reps = [c for _, r in per_d for c in r]
            stabilized = per_d[bound + 1][0] == per_d[top][0] == 0
        rows.append(
            BettiRow(
                q=q,
                dim=dim,
                bound=bound,
                stabilized=stabilized,
                mode="window" if spec.shift is None else "graded",
                representatives=reps,
            )
        )
    return BettiTable(label=spec.label or repr(spec.algebra), variant=spec.variant,
                      rows=rows)


def graded_bidegree_dims(spec, qmax, bound):
    """Exact per-bidegree dimensions {(q, d): h} for a graded complex.

    Raises UnsupportedComplex when the differential is filtered (no single
    lam-degree shift): bidegree localization is only meaningful there.
    """
    _check_counts(qmax, bound)
    if spec.shift is None:
        raise UnsupportedComplex("complex is filtered; no bidegree splitting")
    store = SliceComplex(spec)
    out = {}
    for q in range(qmax + 1):
        for d in range(bound + 1):
            h, _ = store.graded_h(q, d)
            if h:
                out[(q, d)] = h
    return out


def betti(spec, qmax, bound=8, representatives=False):
    """As truncation_sweep, but an unstable row raises UnstableTruncation."""
    table = truncation_sweep(spec, qmax, bound, representatives)
    for row in table.rows:
        if not row.stabilized:
            raise UnstableTruncation(
                f"H^{row.q} did not stabilize across bounds "
                f"{bound}/{bound + 1}/{bound + 2}"
            )
    return table


class VerifyResult:
    def __init__(self, is_cocycle, is_coboundary, witness=None):
        self.is_cocycle = is_cocycle
        self.is_coboundary = is_coboundary
        self.witness = witness


def verify_cocycle(spec, gamma):
    """Exact cocycle test and a window coboundary solve with witness."""
    placements = spec.algebra._placements
    q = gamma.q
    dv = cochain_coords(apply_differential(spec, gamma), placements)
    if dv and spec.scalar_quotient:
        # zero in the quotient when d gamma is an (a + sum lam_i) multiple,
        # of one lam-degree less, on the full slices
        top = max(sum(e for _, e in elem) for elem, _ in dv)
        rows = [_mult_coords(spec, p)
                for d in range(top) for p in slice_pairs(spec, q + 1, d)]
        is_cocycle = linalg.solve_columns(rows, dv) is not None
    else:
        is_cocycle = not dv
    if not is_cocycle:
        return VerifyResult(False, False)
    target = cochain_coords(gamma.kernel_terms(), placements)
    if not target:
        return VerifyResult(True, True, witness=None)
    bound = max(gamma.lam_degree(), 0) + _COBOUNDARY_SLACK
    # the full slices, differential columns first, so a solution index below
    # len(pairs) is a coordinate of the witness
    pairs = []
    if q > 0:
        for d in range(bound + 1):
            pairs += slice_pairs(spec, q - 1, d)
    columns = [_column(spec, q - 1, p) for p in pairs]
    if spec.scalar_quotient:
        for d in range(bound + 1):
            columns += [_mult_coords(spec, p) for p in slice_pairs(spec, q, d)]
    sol = linalg.solve_columns(columns, target)
    if sol is None:
        return VerifyResult(True, False)
    if q == 0:
        return VerifyResult(True, True, witness=None)
    witness = {pairs[j]: x for j, x in sol.items() if j < len(pairs)}
    return VerifyResult(True, True, witness=coords_to_cochain(spec, q - 1, witness))


# -- the current-sl2 example cocycles ----------------------------------------------


def _pi_poly(slots):
    """lam_{s1} ... lam_{sk} * prod_{r<s} (lam_r - lam_s) over the given slots."""
    out = RatPoly.const(1)
    for s in slots:
        out = out * RatPoly.var(lam(s + 1))
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            out = out * (
                RatPoly.var(lam(slots[a] + 1)) - RatPoly.var(lam(slots[b] + 1))
            )
    return out


def _c3(i, j, k):
    """(x_i ^ x_j ^ x_k) / (e ^ f ^ h) for sl2 basis indices."""
    if len({i, j, k}) < 3:
        return 0
    return permutation_sign((i, j, k))


def sl2_example_cocycle(g, u_rep, n, phi_n=None, phi_n3=None):
    """The reduced n-cochain over Cur sl2 / M_U built from (phi_n, phi_{n-3}).

    phi_n (resp. phi_n3) is a U x dim Sym^n(sl2) (resp. Sym^(n-3)) matrix over
    the monomial multiset basis of the symmetric power of the adjoint module,
    required to be a g-map killing the ideal generated by the quadratic
    invariant of Sym^2; either may be None.
    """
    from .algebra import build_current, build_m_u

    if tuple(g.names) != ("e", "f", "h"):
        raise ValueError("sl2_example_cocycle expects the standard sl2 basis")
    ad = adjoint_rep(g)
    data = []
    for power, phi in ((n, phi_n), (n - 3, phi_n3)):
        if phi is None:
            data.append(None)
            continue
        if power < 0:
            raise ValueError("phi given for a negative symmetric power")
        sym, basis = sym_power_rep(ad, power)
        check_equivariant(sym, u_rep, phi)
        _check_kills_casimir_ideal(phi, basis, power, g)
        index = {b: k for k, b in enumerate(basis)}
        data.append((phi, index))
    phi_n_data, phi_n3_data = data

    cur = build_current(g)
    module = build_m_u(g, u_rep)
    values = {}
    from .cochain import sorted_tuples

    for t in sorted_tuples(3, n):
        vec = [RatPoly.zero()] * u_rep.dim
        if phi_n_data is not None:
            phi, index = phi_n_data
            col = index[tuple(sorted(t))]
            pi = _pi_poly(list(range(n)))
            for r in range(u_rep.dim):
                if phi[r][col]:
                    vec[r] = vec[r] + phi[r][col] * pi
        if phi_n3_data is not None:
            phi, index = phi_n3_data
            from itertools import combinations

            for picks in combinations(range(n), 3):
                sign = _c3(t[picks[0]], t[picks[1]], t[picks[2]])
                if not sign:
                    continue
                rest = [s for s in range(n) if s not in picks]
                col = index[tuple(sorted(t[s] for s in rest))]
                pi = _pi_poly(rest)
                for r in range(u_rep.dim):
                    if phi[r][col]:
                        vec[r] = vec[r] + sign * phi[r][col] * pi
        if not vec_is_zero(tuple(vec)):
            values[t] = tuple(vec)
    return Cochain(cur, module, n, REDUCED, values)


def _check_kills_casimir_ideal(phi, basis, power, g):
    """phi must vanish on (quadratic invariant) * Sym^(power-2).

    The invariant line of Sym^2 of the adjoint module is computed, not
    hardcoded, so the check is independent of basis sign conventions.
    """
    if power < 2:
        return
    from itertools import combinations_with_replacement

    from .liealg import equivariant_maps as _eq, trivial_rep as _triv

    ad = adjoint_rep(g)
    sym2, basis2 = sym_power_rep(ad, 2)
    embed = _eq(_triv(g), sym2)
    if len(embed) != 1:
        raise NotEquivariant("expected a one-dimensional invariant in Sym^2")
    omega = {basis2[r]: embed[0][r][0] for r in range(len(basis2))
             if embed[0][r][0]}
    index = {b: k for k, b in enumerate(basis)}
    rows = len(phi)
    for tail in combinations_with_replacement(range(g.dim), power - 2):
        coords = {}
        for pair, c in omega.items():
            key = index[tuple(sorted(tail + pair))]
            coords[key] = coords.get(key, Fraction(0)) + c
        for r in range(rows):
            total = sum(phi[r][c] * x for c, x in coords.items())
            if total:
                raise NotEquivariant(
                    "phi does not factor through the quotient by the "
                    "quadratic-invariant ideal"
                )


