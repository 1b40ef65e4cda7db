"""Exact linear algebra over the rationals.

Vectors are dicts {key: Fraction} with zero entries never stored; keys are
arbitrary comparable hashables (slice-basis labels, column indices).  The
elimination is ordered (columns processed in sorted key order) so reduced
forms, kernels and solutions are deterministic, which the golden tests rely
on.  A dense fraction-free (Bareiss) rank is kept alongside as the
independent cross-check mandated for the rational elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ONE = Fraction(1)


def vec_axpy(target, coeff, source):
    """target += coeff * source, in place, dropping zeros."""
    if not coeff:
        return target
    for k, c in source.items():
        s = target.get(k)
        if s is None:
            target[k] = coeff * c
        else:
            s = s + coeff * c
            if s:
                target[k] = s
            else:
                del target[k]
    return target


def sparse_rref(rows):
    """Ordered reduced row echelon form of dict-vectors.

    Returns (reduced_rows, pivot_keys): nonzero rows with unit pivots, each
    pivot key appearing in exactly one row, processed in sorted key order.
    Entries may be int or Fraction; the reduced rows hold Fractions.
    """
    work = [dict(r) for r in rows if r]
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
        inv = _ONE / row[key]
        row = {k: c * inv for k, c in row.items()}
        for r in work:
            c = r.get(key)
            if c is not None:
                vec_axpy(r, -c, row)
        for r in reduced:
            c = r.get(key)
            if c is not None:
                vec_axpy(r, -c, row)
        work = [r for r in work if r]
        reduced.append(row)
        pivots.append(key)
    return reduced, pivots


def rank(rows):
    return len(sparse_rref(rows)[0])


def span_contains(basis_rows, vector):
    """Whether vector lies in the row span (basis_rows need not be reduced)."""
    reduced, pivots = sparse_rref(basis_rows)
    v = dict(vector)
    for row, key in zip(reduced, pivots):
        c = v.get(key)
        if c is not None:
            vec_axpy(v, -c, row)
    return not v


def reduce_mod_span(reduced_rows, pivots, vector):
    """Remainder of vector modulo an already-reduced row space."""
    v = dict(vector)
    for row, key in zip(reduced_rows, pivots):
        c = v.get(key)
        if c is not None:
            vec_axpy(v, -c, row)
    return v


def kernel_of_columns(columns):
    """Kernel basis of the map x -> sum x_j columns[j].

    Returns vectors over column indices 0..n-1, echelon-normalized, with the
    free index set in increasing order.
    """
    n = len(columns)
    row_map = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            row_map.setdefault(key, {})[j] = c
    reduced, pivots = sparse_rref(list(row_map.values()))
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for row, piv in zip(reduced, pivots):
            c = row.get(free)
            if c:
                vec[piv] = -c
        basis.append(vec)
    return basis


def solve_columns(columns, target):
    """Solve sum x_j columns[j] = target; returns x dict or None."""
    n = len(columns)
    row_map = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            row_map.setdefault(key, {})[j] = c
    for key, c in target.items():
        row_map.setdefault(key, {})[n] = c
    reduced, pivots = sparse_rref(list(row_map.values()))
    if n in pivots:
        return None
    x = {}
    for row, piv in zip(reduced, pivots):
        c = row.get(n)
        if c:
            # Row reads x_piv + sum_{free} r_f x_f = c; free vars set to 0.
            x[piv] = c
    return x


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
