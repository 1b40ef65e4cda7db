"""Reference routes and random fixtures shared by the test modules."""

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
