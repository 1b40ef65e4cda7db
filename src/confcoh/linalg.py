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
g = gcd(a, c), after which r is made primitive again.  The rows holding a key
are found through a key -> row index built for each pass.

It comes in two depths, and each caller reads the one it needs:

* echelon, the forward pass alone: primitive int rows, each zero at every
  earlier pivot.  Its pivot set is the RREF's, and reduced in increasing
  pivot order a vector keeps the RREF's remainder, the unique vector of its
  class that is zero at every pivot.  rank, the remainders of
  reduce_mod_span and remainder_multiple, and the engine's quotients,
  coboundary spans and remainder ranks read it.
* the RREF: the pivot rows are also cleared at the later pivots, from the
  last row up (back substitution).  sparse_rref builds the unit-pivot
  Fraction rows from them, each carrying its primitive integer form
  (``ReducedRow.ints``, pivot entry positive); kernel_of_columns and
  solve_columns read the integer rows, one Fraction per entry.  Kernels,
  solutions and the engine's representatives read these.

The RREF of a span is unique, so rows, pivots, kernels, solutions and
remainders are the values a Fraction elimination gives.

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


def echelon(rows):
    """Ordered row echelon form of dict-vectors: the forward pass alone.

    Returns (rows, pivot_keys): primitive int rows, each with a positive
    entry at its pivot key and zero at every earlier pivot, in increasing
    pivot order.  Keys are processed in sorted order; among the rows holding
    a key, the shortest (the first of those) is its pivot row.  Entries may
    be int or Fraction.  The pivot set and the remainder of a vector modulo
    the rows (reduce_mod_span) are those of the RREF.
    """
    work = [_primitive(r) for r in rows if r]
    # key -> indices of the work rows that hold it or held it; a row only
    # gains keys from its pivot rows, all above the current key
    holders = {}
    for i, r in enumerate(work):
        for k in r:
            ids = holders.get(k)
            if ids is None:
                holders[k] = [i]
            else:
                ids.append(i)
    reduced = []
    pivots = []
    for key in sorted(holders):
        ids = [i for i in holders.pop(key) if key in work[i]]
        if not ids:
            continue
        best = ids[0]
        size = len(work[best])
        for i in ids:
            n = len(work[i])
            if n < size or n == size and i < best:
                best, size = i, n
        row = work[best]
        work[best] = {}
        a = row[key]
        if a < 0:
            row = {k: -x for k, x in row.items()}
            a = -a
        # _eliminate inlined, so that each key a row gains is indexed
        for i in ids:
            r = work[i]
            c = r.get(key)
            if c is None:  # the pivot row, or an index listed twice
                continue
            g = gcd(a, c)
            s, t = a // g, c // g
            if s != 1:
                r = {k: s * x for k, x in r.items()}
            for k, x in row.items():
                y = r.get(k)
                if y is None:
                    r[k] = -t * x
                    holders[k].append(i)
                else:
                    y -= t * x
                    if y:
                        r[k] = y
                    else:
                        del r[k]
            if r:
                g = gcd(*r.values())
                if g != 1:
                    r = {k: x // g for k, x in r.items()}
            work[i] = r
        reduced.append(row)
        pivots.append(key)
    return reduced, pivots


def _back_substitute(rows, pivots):
    """Clear each echelon row at the later pivots, in place, from the last
    row up: the rows below are reduced already, so clearing one pivot entry
    brings back no other.  The rows stay primitive, pivot entry positive."""
    place = {key: i for i, key in enumerate(pivots)}
    for i in range(len(rows) - 2, -1, -1):
        r = rows[i]
        for key in [k for k in r if place.get(k, i) > i]:
            p = rows[place[key]]
            r = _eliminate(r, key, p, p[key])
        rows[i] = r
    return rows


def sparse_rref(rows):
    """Ordered reduced row echelon form of dict-vectors.

    Returns (reduced_rows, pivot_keys): nonzero ReducedRows with unit pivots,
    each pivot key appearing in exactly one row, with the pivots of echelon.
    Entries may be int or Fraction; the reduced rows hold Fractions.
    """
    ints, pivots = echelon(rows)
    _back_substitute(ints, pivots)
    return [_unit_row(r, key) for r, key in zip(ints, pivots)], pivots


def rank(rows):
    return len(echelon(rows)[1])


def _reduce(rows, pivots, vector):
    """(v, den): v / den is the remainder of vector modulo the rows, v an
    int vector."""
    v, den = _cleared(vector)
    for row, key in zip(rows, pivots):
        c = v.get(key)
        if c is None:
            continue
        ints = row.ints if isinstance(row, ReducedRow) else row
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
    return v, den


def reduce_mod_span(rows, pivots, vector):
    """Remainder of vector modulo a row space, holding Fractions.

    rows and pivots are as echelon or sparse_rref returns them, or a mix of
    the two for one span (the rows in increasing pivot order, each zero at
    the earlier pivots).  Reduced in that order, the vector is left zero at
    every pivot key: the unique such vector of its class.  The remainder is
    computed in ints over one common denominator.
    """
    v, den = _reduce(rows, pivots, vector)
    return {k: Fraction(x, den) for k, x in v.items()}


def remainder_multiple(rows, pivots, vector):
    """An int multiple of reduce_mod_span's remainder, for callers that
    read only what scaling leaves unchanged: a rank, a span or an RREF."""
    return _reduce(rows, pivots, vector)[0]


def transpose(columns):
    """The rows {column index: entry} of the matrix with the given columns,
    in the order their keys first appear."""
    rows = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return list(rows.values())


def _reduced_ints(columns):
    """The back-substituted int rows and pivots of the transposed columns."""
    rows, pivots = echelon(transpose(columns))
    return _back_substitute(rows, pivots), pivots


def kernel_of_columns(columns):
    """Kernel basis of the map x -> sum x_j columns[j].

    Returns vectors over column indices 0..n-1, echelon-normalized, with the
    free index set in increasing order.
    """
    n = len(columns)
    rows, pivots = _reduced_ints(columns)
    pivot_set = set(pivots)
    basis = {free: {free: Fraction(1)}
             for free in range(n) if free not in pivot_set}
    for row, piv in zip(rows, pivots):
        # the other entries of a reduced row sit at free indices
        a = row[piv]
        for free, c in row.items():
            if free != piv:
                basis[free][piv] = Fraction(-c, a)
    return list(basis.values())


def solve_columns(columns, target):
    """Solve sum x_j columns[j] = target; returns x dict or None."""
    n = len(columns)
    rows, pivots = _reduced_ints([*columns, target])
    if n in pivots:
        return None
    x = {}
    for row, piv in zip(rows, pivots):
        c = row.get(n)
        if c:
            # Row reads a x_piv + sum_{free} r_f x_f = c, a its pivot entry;
            # free vars set to 0.
            x[piv] = Fraction(c, row[piv])
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
