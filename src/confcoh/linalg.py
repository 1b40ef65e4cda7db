"""Exact linear algebra over the rationals.

Vectors are dicts {key: int or Fraction} with zero entries never stored;
keys are arbitrary comparable hashables (slice-basis labels, column indices).
The elimination is ordered (columns processed in sorted key order) so reduced
forms, kernels and solutions are deterministic, which the golden tests rely
on.

Inputs may hold ints, Fractions or both.  The elimination runs on primitive
integer rows: each input row is cleared of its denominators by their lcm and
divided by the gcd of its entries (its content), and a pivot row p with pivot
entry a clears the entry c of another row r by r := (a/g) r - (c/g) p,
g = gcd(a, c), after which r is made primitive again.  The pivot rows are
cleared at the later pivots once the forward pass is done, from the last row
up, and the unit-pivot Fraction rows are built once, at the end.  The RREF
of a span is unique, so the reduced rows, pivots, kernels, solutions and
remainders are the values a Fraction elimination gives, and every vector
returned holds Fractions.  Each reduced row carries its primitive integer
form (``ReducedRow.ints``, pivot entry positive), which reduce_mod_span and a
later sparse_rref of the same rows read instead of clearing the row again.

A dense fraction-free (Bareiss) rank is kept alongside as the independent
cross-check mandated for the rational elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ReducedRow(dict):
    """A reduced row {key: Fraction} with a unit pivot, carrying its primitive
    integer multiple ``ints`` (the row times the lcm of its denominators)."""

    __slots__ = ("ints",)


def _cleared(row):
    """(ints, den): the row times den, the lcm of its entries' denominators."""
    den = 1
    for c in row.values():
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    if den == 1:
        return {k: c.numerator for k, c in row.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in row.items()}, den


def _primitive(row):
    """A fresh primitive int multiple of a nonzero row."""
    if isinstance(row, ReducedRow):
        return dict(row.ints)
    ints = _cleared(row)[0]
    g = gcd(*ints.values())
    return {k: c // g for k, c in ints.items()} if g != 1 else ints


def _combine(r, s, t, p):
    """s r - t p, dropping zeros; r is updated in place when s is 1."""
    if s != 1:
        r = {k: s * x for k, x in r.items()}
    for k, x in p.items():
        y = r.get(k)
        if y is None:
            r[k] = -t * x
        else:
            y -= t * x
            if y:
                r[k] = y
            else:
                del r[k]
    return r


def _eliminate(r, key, p, a):
    """The primitive multiple of (a/g) r - (c/g) p, c = r[key] and
    g = gcd(a, c), for a pivot row p with entry a at key; r may be updated in
    place."""
    c = r[key]
    g = gcd(a, c)
    r = _combine(r, a // g, c // g, p)
    if r:
        g = gcd(*r.values())
        if g != 1:
            r = {k: x // g for k, x in r.items()}
    return r


def _unit_row(ints, key):
    """The Fraction row with a unit pivot at key, carrying ints."""
    a = ints[key]
    row = ReducedRow({k: Fraction(x, a) for k, x in ints.items()})
    row.ints = ints
    return row


def sparse_rref(rows):
    """Ordered reduced row echelon form of dict-vectors.

    Returns (reduced_rows, pivot_keys): nonzero ReducedRows with unit pivots,
    each pivot key appearing in exactly one row, processed in sorted key
    order; among the rows holding a key, the shortest (the first of those)
    is its pivot row.  Entries may be int or Fraction; the reduced rows hold
    Fractions.
    """
    work = [_primitive(r) for r in rows if r]
    reduced = []
    pivots = []
    keys = sorted({k for r in work for k in r})
    for key in keys:
        pivot_row = None
        best = None
        for idx, r in enumerate(work):
            if key in r and (best is None or len(r) < best):
                pivot_row = idx
                best = len(r)
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        a = row[key]
        if a < 0:
            row = {k: -x for k, x in row.items()}
            a = -a
        work = [_eliminate(r, key, row, a) if key in r else r for r in work]
        work = [r for r in work if r]
        reduced.append(row)
        pivots.append(key)
    # back substitution, from the last pivot row up: the rows below are
    # reduced already, so clearing one pivot entry brings back no other
    place = {key: i for i, key in enumerate(pivots)}
    for i in range(len(reduced) - 2, -1, -1):
        r = reduced[i]
        for key in [k for k in r if place.get(k, i) > i]:
            p = reduced[place[key]]
            r = _eliminate(r, key, p, p[key])
        reduced[i] = r
    return [_unit_row(r, key) for r, key in zip(reduced, pivots)], pivots


def rank(rows):
    return len(sparse_rref(rows)[0])


def reduce_mod_span(reduced_rows, pivots, vector):
    """Remainder of vector modulo an already-reduced row space.

    reduced_rows and pivots are as sparse_rref returns them; the remainder is
    computed in ints over one common denominator and holds Fractions.
    """
    v, den = _cleared(vector)
    for row, key in zip(reduced_rows, pivots):
        c = v.get(key)
        if c is None:
            continue
        ints = row.ints
        a = ints[key]
        g = gcd(a, c)
        s = a // g
        v = _combine(v, s, c // g, ints)
        if s != 1:
            den *= s
            g = gcd(den, *v.values())
            if g != 1:
                v = {k: x // g for k, x in v.items()}
                den //= g
    return {k: Fraction(x, den) for k, x in v.items()}


def transpose(columns):
    """The rows {column index: entry} of the matrix with the given columns,
    in the order their keys first appear."""
    rows = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return list(rows.values())


def kernel_of_columns(columns):
    """Kernel basis of the map x -> sum x_j columns[j].

    Returns vectors over column indices 0..n-1, echelon-normalized, with the
    free index set in increasing order.
    """
    n = len(columns)
    reduced, pivots = sparse_rref(transpose(columns))
    pivot_set = set(pivots)
    basis = {free: {free: Fraction(1)}
             for free in range(n) if free not in pivot_set}
    for row, piv in zip(reduced, pivots):
        # the other entries of a reduced row sit at free indices
        for free, c in row.items():
            if free != piv:
                basis[free][piv] = -c
    return list(basis.values())


def solve_columns(columns, target):
    """Solve sum x_j columns[j] = target; returns x dict or None."""
    n = len(columns)
    reduced, pivots = sparse_rref(transpose([*columns, target]))
    if n in pivots:
        return None
    x = {}
    for row, piv in zip(reduced, pivots):
        c = row.get(n)
        if c:
            # Row reads x_piv + sum_{free} r_f x_f = c; free vars set to 0.
            x[piv] = c
    return x


# no caller in src; bench/tracer.py names it in TARGETS and wraps it by name
# (--trace 1, bench/test_bench.py)
def intersection_dim(rows_a, rows_b):
    ra = rank(rows_a)
    rb = rank(rows_b)
    return ra + rb - rank(list(rows_a) + list(rows_b))


def rank_bareiss(dense_rows):
    """Fraction-free rank of a dense rational matrix (independent route).

    Rows are cleared to integers, then Bareiss elimination keeps every
    intermediate entry an exact integer via the divisibility identity
    m[i][j] <- (m[r][c]*m[i][j] - m[i][c]*m[r][j]) / previous_pivot.
    """
    m = []
    for row in dense_rows:
        denom_lcm = 1
        for x in row:
            f = Fraction(x)
            denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
        m.append([int(Fraction(x) * denom_lcm) for x in row])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r
