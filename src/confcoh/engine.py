"""Bidegree slicing, exact differential matrices, and Betti tables.

A complex is (algebra, module, variant in {basic, reduced}).  Slice bases in
bidegree (q, d) are skew-basis shapes tensored with the module basis; every
value the engine touches is a polynomial in the lam variables alone (reduced
representatives are d-free, scalar coefficients never carry d, named
parameters are refused), so coordinates are read off exponent vectors.

The Betti entry points (truncation_sweep, graded_bidegree_dims) read one
SliceComplex, made for that call.  The store fills each bidegree (q, d) on
first read and keeps its basis pairs and its differential columns, plus, for
scalar-coefficient reduced complexes, the rows of the (a + sum lam_i) image
and the columns restricted to the hyperplane sum lam_i = -a.  No slice map
builds a Cochain or a RatPoly per column.  apply_differential returns the
differential kernel's sums ({output tuple: per component {(lam exponents,
rest): coeff}}, int where integral, cancelled entries kept as zeros);
cochain_coords reads them, taking each exponent vector's (basis element,
sign) from a placement memo kept by the store (assemble and verify_cocycle
keep one per call).  The (a + sum lam_i) rows read a on the pair and raise
one slot's exponent per term, and the restriction expands lam1^e := (-a -
lam2 - ... - lamq)^e on the sums' exponent vectors from the multinomial
table and sums each column in ints over one common denominator (for a =
n/m, each monomial's image is kept times m^e).

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
slice_pairs, assemble and verify_cocycle read the full slice: a coboundary
of nonzero weight needs primitives of that weight.

Two computation modes, decided over the columns the computation reads:

* graded -- every assembled column is homogeneous with one global lam-degree
  shift, and for scalar coefficients the d-action scalar is 0 so the quotient
  by (sum lam_i) is homogeneous too.  The dimension h(q, d) of each bidegree
  is then exact and computed once; a Betti row sums h over d <= D+2 and is
  stabilized when h vanishes at d = D+1 and D+2.
* window -- filtered differentials (nonzero module parameters).  Cocycles in
  degrees <= D are exact (membership in the d-action ideal is decided by
  restriction to the hyperplane sum lam_i = -a); the coboundary space is
  approximated by images of the window, and agreement across bounds D, D+1,
  D+2 is reported as the stabilized flag.  Per degree q the store keeps one
  cocycle kernel, of the top window D+2, whose prefixes are the kernels of
  the smaller windows, and one coboundary RREF, grown from bound to bound;
  h is the rank of the cocycles' remainders modulo that RREF.

The scalar-module reduced complex is the quotient by the image of
multiplication by (a + sum lam_i); the quotient is taken here, on slices,
never by eliminating a variable.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add

from . import linalg
from .cochain import BASIC, REDUCED, Cochain, _split_values, lie_sums
# no caller here; bench/tracer.py wraps this binding by name (bench/test_bench.py)
from .cochain import d_basic  # noqa: F401
from .errors import NotEquivariant, UnstableTruncation, UnsupportedComplex
from .liealg import check_equivariant, sym_power_rep, adjoint_rep
from .poly import (RatPoly, exact, lam, multinomials, parameter_names,
                   vec_is_zero)
from .skew import (element_tuple, element_value, monomial_coordinates,
                   permutation_sign, skew_basis)


@dataclass(frozen=True)
class ComplexSpec:
    algebra: object
    module: object
    variant: str = REDUCED
    label: str = ""

    def __post_init__(self):
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

    @property
    def scalar_quotient(self):
        return self.variant == REDUCED and not self.module.is_free()


def slice_pairs(spec, q, d):
    """Deterministically ordered basis labels (shape element, module index)."""
    if q == 0:
        if d != 0:
            return []
        return [((), u) for u in range(spec.module.dim)]
    elements = skew_basis(q, d, spec.algebra.ngens).elements
    return [(elem, u) for elem in elements for u in range(spec.module.dim)]


def basis_cochain(spec, q, pair):
    elem, u = pair
    return Cochain.from_basis_element(
        spec.algebra, spec.module, q, spec.variant, elem, u
    )


def cochain_coords(sums, placements):
    """Coordinates {(shape, u): coeff} of lam-only skew values given as
    {sorted tuple: per component {(lam exponents, rest): coeff}}: the sums
    of apply_differential, or a cochain through ``cochain._split_values``.
    ``placements`` is the caller's placement memo (monomial_coordinates).
    An element's pairs carry its tuple, so no (element, u) is read twice."""
    coords = {}
    for t, comps in sums.items():
        for u, terms in enumerate(comps):
            for elem, coeff in monomial_coordinates(terms, t, placements).items():
                coords[(elem, u)] = coeff
    return coords


def coords_to_cochain(spec, q, coords):
    values = {}
    dim = spec.module.dim
    for (elem, u), coeff in coords.items():
        if not coeff:
            continue
        t = element_tuple(elem) if q else ()
        vec = values.setdefault(t, [RatPoly.zero()] * dim)
        vec[u] = vec[u] + coeff * element_value(elem, q)
    return Cochain(
        spec.algebra, spec.module, q, spec.variant,
        {t: tuple(v) for t, v in values.items()},
    )


def cartan_weights(spec):
    """[(generator weights, module weights)] of each Cartan generator with a
    nonzero weight; [] unless the algebra is a current Lie conformal algebra
    (constant brackets, no torsion generator).

    A generator h is Cartan when [h_lam x_j] = w_j x_j with constant w_j for
    every generator x_j and, on a free module, h acts by a constant diagonal
    matrix; on a scalar module every weight is 0.
    """
    alg, module = spec.algebra, spec.module
    n = alg.ngens
    if alg.associative or not all(alg.is_free(k) for k in range(n)):
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
            module_weights = tuple(act[u][u].const_value() for u in range(module.dim))
        else:
            module_weights = (0,) * module.dim
        generator_weights = tuple(ad[j][j].const_value() for j in range(n))
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


def pair_degree(pair):
    return sum(e for _, e in pair[0])


def apply_differential(spec, c):
    """d(c) as the sums of ``cochain.lie_sums``; no Cochain or RatPoly."""
    if c.variant != spec.variant:
        raise ValueError(f"a {spec.variant} complex differentiates "
                         f"{spec.variant} cochains, not {c.variant}")
    return lie_sums(c)


def _differential_image(spec, q, pair):
    return apply_differential(spec, basis_cochain(spec, q, pair))


def _mult_coords(spec, q, pair):
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


def _restriction_coords(spec, sums, memo):
    """Coordinates of the sums after lam1 := -a - lam2 - ... - lamq.

    Vanishing is equivalent to divisibility by (a + sum lam_i); keys are
    (tuple, u, exponents of lam2..lamq, other variables) and need not be
    skew-decomposed.  ``memo`` keeps the restricted terms of each (lam
    exponents, rest) across calls.  The sums run on ints over one common
    denominator, the lcm of each term's coefficient denominator times m^e
    for a = n/m and lam1^e, and are divided by it once at the end.
    """
    terms = []
    den = 1
    for t, comps in sums.items():
        for u, comp in enumerate(comps):
            for key, coeff in comp.items():
                if not coeff:
                    continue
                image = memo.get(key)
                if image is None:
                    image = memo[key] = _restrict_monomial(
                        spec.module.del_scalar, *key)
                terms.append((t, u, coeff, image))
                den = lcm(den, coeff.denominator * image[0])
    out = {}
    for t, u, coeff, (scale, image) in terms:
        base = coeff.numerator * (den // (coeff.denominator * scale))
        for exps, rest, c2 in image:
            key = (t, u, exps, rest)
            total = out.get(key, 0) + base * c2
            if total:
                out[key] = total
            else:
                del out[key]
    if den != 1:
        for key, total in out.items():
            out[key] = exact(Fraction(total, den))
    return out


def _restrict_monomial(a, exps, rest):
    """(m^e, [(exponents of lam2..lamq, rest, int coeff)]) of the monomial
    with lam exponents ``exps`` after lam1 := -a - lam2 - ... - lamq, for
    a = n/m, expanded on exponent vectors and times m^e:
    (-1)^e sum over k of e!/(k_0! ... k_{q-1}!) n^k_0 m^(e-k_0) lam2^k_1 ... lamq^k_{q-1}."""
    e, tail = exps[0], exps[1:]
    if not e:
        return 1, ((tail, rest, 1),)
    a = Fraction(a)
    n, m = a.numerator, a.denominator
    sign = -1 if e % 2 else 1
    return m ** e, tuple(
        (tuple(map(add, tail, k[1:])), rest,
         sign * mult * n ** k[0] * m ** (e - k[0]))
        for k, mult in multinomials(len(exps), e)
        if n or not k[0]
    )


class SliceComplex:
    """The bidegree slices of one complex, each filled on first read and kept
    for the life of the store: one entry-point call, never shared."""

    def __init__(self, spec):
        self.spec = spec
        self._weights = None  # cartan_weights, found on the first read
        self._pairs = {}
        self._columns = {}
        self._images = {}  # differential images, until their restriction is read
        self._mult = {}
        self._restricted = {}
        self._restriction_memo = {}  # restricted terms per monomial
        self._placements = {}  # skew placements per (tuple, monomial)
        self._quotients = {}
        self._ranks = {}
        self._cocycles = {}  # q -> (bound, free indices, kernel vectors)
        self._coboundaries = {}  # q -> (bound, RREF rows, pivots)

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
            cols = []
            images = []
            for pair in self.pairs(q, d):
                image = _differential_image(self.spec, q, pair)
                images.append(image)
                cols.append(cochain_coords(image, self._placements))
            self._columns[key] = cols
            if self.spec.scalar_quotient:
                self._images[key] = images
        return self._columns[key]

    def mult_rows(self, q, d):
        """Coordinates of (a + sum lam_i) times each basis cochain of (q, d)."""
        key = (q, d)
        if key not in self._mult:
            self._mult[key] = [_mult_coords(self.spec, q, p) for p in self.pairs(q, d)]
        return self._mult[key]

    def restricted_columns(self, q, d):
        """The columns of (q, d) restricted to sum lam_i = -a; scalar reduced only."""
        key = (q, d)
        if key not in self._restricted:
            self.columns(q, d)
            self._restricted[key] = [
                _restriction_coords(self.spec, image, self._restriction_memo)
                for image in self._images.pop(key)
            ]
        return self._restricted[key]

    # -- graded mode -------------------------------------------------------------

    def graded_shift(self, qmax, dtop):
        """The single lam-degree shift of the columns with q <= qmax and
        d <= dtop, or None if the complex is filtered."""
        if self.spec.scalar_quotient and self.spec.module.del_scalar != 0:
            return None
        shift = None
        for q in range(qmax + 1):
            for d in range(dtop + 1):
                for col in self.columns(q, d):
                    for key in col:
                        s = pair_degree(key) - d
                        if shift is None:
                            shift = s
                        elif shift != s:
                            return None
        if shift is None:
            shift = 0
        return shift if shift >= 0 else None

    def _quotient(self, q, d):
        """RREF of the (sum lam_i) image inside slice (q, d); scalar reduced only."""
        key = (q, d)
        if key not in self._quotients:
            rows = []
            if self.spec.scalar_quotient and q > 0 and d > 0:
                rows = self.mult_rows(q, d - 1)
            self._quotients[key] = linalg.sparse_rref(rows) if rows else ([], [])
        return self._quotients[key]

    def _graded_matrix(self, q, d, shift):
        """Columns of the induced differential on quotient slices."""
        reduced_out, pivots_out = self._quotient(q + 1, d + shift)
        pivots_in = set(self._quotient(q, d)[1])
        return [
            linalg.reduce_mod_span(reduced_out, pivots_out, col)
            for pair, col in zip(self.pairs(q, d), self.columns(q, d))
            if pair not in pivots_in
        ]

    def graded_h(self, q, d, shift, want_reps=False):
        """(h, representatives) at bidegree (q, d) of a graded complex.

        Read bidegrees in increasing q: the rank of the differential into
        (q, d) is the one kept from bidegree (q - 1, d - shift).
        """
        pivots = set(self._quotient(q, d)[1])
        domain = [p for p in self.pairs(q, d) if p not in pivots]
        if not domain:
            self._ranks[(q, d)] = 0
            return 0, []
        kernel = linalg.kernel_of_columns(self._graded_matrix(q, d, shift))
        self._ranks[(q, d)] = len(domain) - len(kernel)
        has_prev = q > 0 and d >= shift
        h = len(kernel) - (self._ranks[(q - 1, d - shift)] if has_prev else 0)
        if not (want_reps and h > 0):
            return h, []
        prev_cols = self._graded_matrix(q - 1, d - shift, shift) if has_prev else []
        cocycles = [{domain[j]: x for j, x in kvec.items()} for kvec in kernel]
        normal = _remainder_rref(*linalg.sparse_rref(prev_cols), cocycles)
        return h, [coords_to_cochain(self.spec, q, row) for row in normal[:h]]

    # -- window mode -------------------------------------------------------------

    def window_cocycles(self, q, bound):
        """Kernel basis of the degree-q cocycle condition over d <= bound.

        One kernel is kept per q, for the largest window read so far.  The
        domain is ordered by d and kernel_of_columns picks pivots in column
        order, so a kernel vector's largest index is its free index, and the
        RREF of a column prefix is the prefix of the RREF: the kernel of a
        smaller window is the run of stored vectors whose free index falls
        inside it, vector for vector.
        """
        stored = self._cocycles.get(q)
        if stored is None or stored[0] < bound:
            scalar = self.spec.scalar_quotient
            domain = []
            zcols = []
            for d in range(bound + 1):
                domain += self.pairs(q, d)
                zcols += self.restricted_columns(q, d) if scalar else self.columns(q, d)
            kernel = linalg.kernel_of_columns(zcols)
            stored = self._cocycles[q] = (
                bound,
                [max(kvec) for kvec in kernel],
                [{domain[j]: x for j, x in kvec.items()} for kvec in kernel],
            )
        _, frees, vectors = stored
        width = sum(len(self.pairs(q, d)) for d in range(bound + 1))
        return vectors[:bisect_left(frees, width)]

    def window_coboundaries(self, q, bound):
        """RREF (rows, pivots) of the coboundaries in degree q over d <= bound:
        the differentials of degree q - 1 and, for scalar coefficients, the
        (a + sum lam_i) multiples.

        The RREF is kept per q for the largest window read so far and grown
        by eliminating it together with the rows of the new d; the RREF of a
        span is unique, so that equals a fresh elimination.  A smaller window
        is eliminated afresh.
        """
        stored = self._coboundaries.get(q)
        if stored is not None and stored[0] == bound:
            return stored[1], stored[2]
        keep = stored is None or stored[0] < bound
        start, rows = 0, []
        if stored is not None and keep:
            start, rows = stored[0] + 1, list(stored[1])
        for d in range(start, bound + 1):
            if q > 0:
                rows += self.columns(q - 1, d)
            if self.spec.scalar_quotient:
                rows += self.mult_rows(q, d)
        reduced, pivots = linalg.sparse_rref([r for r in rows if r])
        if keep:
            self._coboundaries[q] = (bound, reduced, pivots)
        return reduced, pivots

    def window_h(self, q, bound, want_reps=False):
        """(h, representatives) in degree q over the window d <= bound.

        The cocycle basis is independent, so h = len(Z) - dim(Z & B) is the
        rank of its remainders modulo the coboundaries, and the RREF of the
        remainders gives the normalized representatives.
        """
        normal = _remainder_rref(*self.window_coboundaries(q, bound),
                                 self.window_cocycles(q, bound))
        reps = [coords_to_cochain(self.spec, q, row) for row in normal] if want_reps else []
        return len(normal), reps


def _remainder_rref(reduced, pivots, vectors):
    """RREF of the vectors modulo an already-reduced span; its length is the
    dimension of their image in the quotient."""
    remainders = []
    for v in vectors:
        rem = linalg.reduce_mod_span(reduced, pivots, v)
        if rem:
            remainders.append(rem)
    return linalg.sparse_rref(remainders)[0]


@dataclass
class BettiRow:
    q: int
    dim: int
    bound: int
    stabilized: bool
    mode: str
    representatives: list = field(default_factory=list)


@dataclass
class BettiTable:
    label: str
    variant: str
    rows: list

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
    bounds agree.  A window row eliminates once for the cocycles of the top
    window D+2 (the lower windows read prefixes of that kernel), grows one
    coboundary RREF through D, D+1 and D+2, and takes h at each bound as the
    rank of the cocycles' remainders modulo it.  Either flag is evidence, not
    proof: nothing above D+2 is read.  Cur sl2 / M_V(8) at qmax 4, bound 4
    has H^4 = 0, stabilized, yet h(4, 10) = 1.
    """
    _check_counts(qmax, bound)
    store = SliceComplex(spec)
    top = bound + 2
    shift = store.graded_shift(qmax, top)
    rows = []
    for q in range(qmax + 1):
        if shift is None:
            store.window_cocycles(q, top)  # the one kernel; lower bounds read prefixes
            lower = [store.window_h(q, b)[0] for b in (bound, bound + 1)]
            dim, reps = store.window_h(q, top, representatives)
            stabilized = lower[0] == lower[1] == dim
        else:
            per_d = [store.graded_h(q, d, shift, representatives)
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
                mode="window" if shift is None else "graded",
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
    store = SliceComplex(spec)
    shift = store.graded_shift(qmax, bound)
    if shift is None:
        raise UnsupportedComplex("complex is filtered; no bidegree splitting")
    out = {}
    for q in range(qmax + 1):
        for d in range(bound + 1):
            h, _ = store.graded_h(q, d, shift)
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


def assemble(spec, q, d):
    """The exact differential matrix out of slice (q, d).

    Returns (domain_pairs, columns); the codomain is read off the column
    keys (their own bidegree is implied by the shape element).
    """
    pairs = slice_pairs(spec, q, d)
    placements = {}
    return pairs, [cochain_coords(_differential_image(spec, q, p), placements)
                   for p in pairs]


@dataclass
class VerifyResult:
    is_cocycle: bool
    is_coboundary: bool
    witness: object = None


def verify_cocycle(spec, gamma):
    """Exact cocycle test and a window coboundary solve with witness."""
    dv = apply_differential(spec, gamma)
    placements = {}
    if spec.scalar_quotient:
        is_cocycle = not _restriction_coords(spec, dv, {})
    else:
        is_cocycle = not cochain_coords(dv, placements)
    if not is_cocycle:
        return VerifyResult(False, False)
    q = gamma.q
    target = cochain_coords(_split_values(gamma), placements)
    if not target:
        return VerifyResult(True, True, witness=None)
    bound = max(gamma.lam_degree(), 0) + _COBOUNDARY_SLACK
    # the full slices, differential columns first, so a solution index below
    # len(pairs) is a coordinate of the witness
    pairs = []
    if q > 0:
        for d in range(bound + 1):
            pairs += slice_pairs(spec, q - 1, d)
    columns = [cochain_coords(_differential_image(spec, q - 1, p), placements)
               for p in pairs]
    if spec.scalar_quotient:
        for d in range(bound + 1):
            columns += [_mult_coords(spec, q, p) for p in slice_pairs(spec, q, d)]
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


