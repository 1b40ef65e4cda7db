"""Reference routes and random fixtures shared by the test modules."""

from fractions import Fraction
from math import gcd, lcm

from confcoh.cochain import LEIBNIZ, Cochain, all_tuples
from confcoh.poly import RatPoly, from_terms, lam, vec_is_zero, zero_vec
from confcoh.skew import element_terms


def element_value(elem, q):
    """The value polynomial of the antisymmetrized basis element on its
    sorted tuple: ``element_terms`` read as a RatPoly."""
    lams = [lam(s + 1) for s in range(q)]
    return from_terms({tuple((lams[s], e) for s, e in enumerate(exps) if e): c
                       for (exps, _), c in element_terms(elem, q).items()})


def random_plain_cochain(algebra, module, q, max_deg, rng, variant=LEIBNIZ,
                         density=0.4):
    """A random cochain with no symmetry constraint (Leibniz/Hochschild)."""
    values = {}
    for t in all_tuples(algebra.ngens, q):
        if rng.random() > density:
            continue
        vec = list(zero_vec(module.dim))
        for b in range(module.dim):
            exps = tuple(rng.randint(0, max(0, max_deg // max(q, 1))) for _ in range(q))
            coeff = rng.randint(-3, 3)
            if not coeff:
                continue
            mono = tuple(sorted((lam(s + 1), e) for s, e in enumerate(exps) if e))
            vec[b] = vec[b] + RatPoly({mono: coeff})
        if not vec_is_zero(tuple(vec)):
            values[t] = tuple(vec)
    return Cochain(algebra, module, q, variant, values)


def _primitive_ints(row):
    den = lcm(*(Fraction(c).denominator for c in row.values()))
    ints = {k: int(c * den) for k, c in row.items()}
    g = gcd(*ints.values())
    return {k: c // g for k, c in ints.items()}


def echelon_oracle(rows):
    """The forward pass of the primitive integer elimination as it rescans
    every work row for each key, kept as the oracle of ``linalg.echelon``:
    keys in sorted order, the first of the shortest rows holding a key is
    its pivot row (pivot entry made positive), and a pivot row p with entry
    a clears the entry c of another row r by r := (a/g) r - (c/g) p,
    g = gcd(a, c), after which r is made primitive again."""
    work = [_primitive_ints(r) for r in rows if r]
    reduced, pivots = [], []
    for key in sorted({k for r in work for k in r}):
        pivot_row = None
        for idx, r in enumerate(work):
            if key in r and (pivot_row is None or len(r) < len(work[pivot_row])):
                pivot_row = idx
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        if row[key] < 0:
            row = {k: -x for k, x in row.items()}
        a = row[key]
        cleared = []
        for r in work:
            if key in r:
                c = r[key]
                g = gcd(a, c)
                r = {k: a // g * r.get(k, 0) - c // g * row.get(k, 0)
                     for k in r.keys() | row.keys()}
                r = {k: x for k, x in r.items() if x}
                if r:
                    g = gcd(*r.values())
                    r = {k: x // g for k, x in r.items()}
            if r:
                cleared.append(r)
        work = cleared
        reduced.append(row)
        pivots.append(key)
    return reduced, pivots
