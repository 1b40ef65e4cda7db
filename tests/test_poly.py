import random
from fractions import Fraction

import pytest

from confcoh.errors import ParseError
from confcoh.poly import (
    DEL,
    RatPoly,
    bracket_residual,
    bracket_support,
    lam,
    multinomials,
    param,
    parse_poly,
    split_terms,
    terms_poly,
)


L1 = RatPoly.var(lam(1))
L2 = RatPoly.var(lam(2))
D = RatPoly.var(DEL)


def test_addition_doubles():
    assert L1 + L1 == 2 * L1


def test_difference_of_squares():
    assert (L1 - L2) * (L1 + L2) == L1 ** 2 - L2 ** 2


def test_multiply_by_zero():
    assert ((D + 2 * L1) * RatPoly.zero()).is_zero()


def test_substitute_skew_flip():
    # lam1^2 under lam1 -> -lam1 - d
    got = (L1 ** 2).substitute(lam(1), -L1 - D)
    assert got == L1 ** 2 + 2 * L1 * D + D ** 2


def test_substitute_collapse():
    assert (L1 + L2).substitute(lam(2), -L1).is_zero()


def test_substitute_del_minus_lam():
    # (d + 2 lam1) with d -> -lam1 leaves lam1
    assert (D + 2 * L1).substitute(DEL, -L1) == L1


def test_simultaneous_substitution_is_collision_free():
    p = L1 * L2
    swapped = p.subst_many({lam(1): L2, lam(2): L1})
    assert swapped == p
    q = (L1 + L2).subst_many({lam(1): L2, lam(2): L1})
    assert q == L1 + L2


def test_disjoint_substitutions_commute():
    # replacements avoid each other's variable, so order cannot matter
    p = (L1 + D) ** 2 * (L2 + 1)
    a_then_b = p.substitute(lam(1), D + 2).substitute(lam(2), D ** 2 - 1)
    b_then_a = p.substitute(lam(2), D ** 2 - 1).substitute(lam(1), D + 2)
    assert a_then_b == b_then_a


def test_rational_coefficients_stay_exact():
    p = RatPoly.const(Fraction(1, 3)) * L1 + RatPoly.const(Fraction(2, 3)) * L1
    assert p == L1


def test_pow_and_const():
    assert (L1 + 1) ** 2 == L1 ** 2 + 2 * L1 + 1
    assert (L1 ** 0) == RatPoly.const(1)


def test_degrees():
    p = L1 ** 2 * L2 + D ** 3
    assert p.lam_degree() == 3
    assert p.degree_in(lambda v: v == DEL) == 3
    assert RatPoly.zero().lam_degree() == -1


def test_coeff_of_lams():
    p = 3 * L1 ** 2 * L2 * D + 5 * L1
    assert p.coeff_of_lams((2, 1)) == 3 * D
    assert p.coeff_of_lams((1, 0)) == RatPoly.const(5)
    assert p.coeff_of_lams((0, 0)).is_zero()


def test_derivative():
    p = L1 ** 3 + 2 * L1 * L2
    assert p.derivative(lam(1)) == 3 * L1 ** 2 + 2 * L2


def test_div_linear_exact():
    # (d + lam1) * (d - lam2) divided by (d - (-lam1))
    prod = (D + L1) * (D - L2)
    quot, rem = prod.div_linear(DEL, -L1)
    assert rem.is_zero()
    assert quot == D - L2


def test_div_linear_remainder():
    p = D ** 2 + 1
    quot, rem = p.div_linear(DEL, -L1)
    assert rem == L1 ** 2 + 1
    assert quot * (D + L1) + rem == p


def test_parse_round_trip():
    texts = [
        "d + 2*lam1",
        "lam1^3 - lam2^3",
        "1/2*lam1*lam2 - 7",
        "-(lam1 - lam2)^2",
        "alpha + 3/4*d",
    ]
    for text in texts:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


def test_parse_whitespace_insensitive():
    assert parse_poly(" d +  2 * lam1 ") == D + 2 * L1
    assert parse_poly("3 / 4") == RatPoly.const(Fraction(3, 4))


def test_parse_params():
    p = parse_poly("a*lam1 + b")
    assert p == RatPoly.var(param("a")) * L1 + RatPoly.var(param("b"))


def test_parse_errors_carry_columns():
    with pytest.raises(ParseError):
        parse_poly("lam1 + + 2")
    with pytest.raises(ParseError):
        parse_poly("lam1 ?")
    with pytest.raises(ParseError):
        parse_poly("(lam1")


def test_str_is_deterministic():
    p = L1 ** 2 - L2 ** 2 + RatPoly.const(Fraction(1, 2))
    assert str(p) == "lam1^2 - lam2^2 + 1/2"


def test_term_tables_round_trip():
    a, b = RatPoly.var(param("a")), RatPoly.var(param("b"))
    lam3 = RatPoly.var(lam(3))
    for p in (RatPoly.zero(), RatPoly.const(Fraction(-3, 2)), L1 ** 2 * L2 * D,
              Fraction(1, 3) * a * b * L2 - 4 * lam3 * D ** 2 + a * L1 + 7,
              lam3 * b + L2 ** 3):
        table = split_terms(p)
        assert all(type(c) is int or c.denominator != 1 for c in table.values())
        assert terms_poly(table) == p
        assert all(type(c) is Fraction for c in terms_poly(table).terms.values())


# -- the RatPoly two-layer identity: an exact oracle for bracket_residual ----

_X, _Y = RatPoly.var(lam(1)), RatPoly.var(lam(2))
_AT_Y, _AT_SUM, _CUT = {lam(1): _Y}, {lam(1): _X + _Y}, {DEL: -_X - _Y}


def _bracket_residual_oracle(outer, inner, table, deltas, commutator):
    """bracket_residual by RatPoly substitution, powers and products."""
    distinct = {}
    row_shift = [distinct.setdefault(dl, len(distinct)) for dl in deltas]
    inner_at_y = [{lam(1): _Y, DEL: dl + _X} for dl in distinct]
    inner_at_x = [{DEL: dl + _Y} for dl in distinct]
    rows = [None] * len(outer)  # the nonzero entries of outer_i, by row
    cache = {}

    def nonzero_rows(i):
        if rows[i] is None:
            rows[i] = [[(l, p) for l, p in enumerate(row) if p] for row in outer[i]]
        return rows[i]

    def sub(key, p, mapping):
        if len(p.terms) == 1 and () in p.terms:  # constants stay as they are
            return p
        v = cache.get(key)
        if v is None:
            v = cache[key] = p.subst_many(mapping)
        return v

    def residual(i, j, r, s):
        h = row_shift[r]
        lhs = rhs = RatPoly.zero()
        for l, p in nonzero_rows(i)[r]:
            q = inner[j][l][s]
            if q:
                lhs = lhs + p * sub((0, j, l, s, h), q, inner_at_y[h])
        if commutator:
            for l, p in nonzero_rows(j)[r]:
                q = inner[i][l][s]
                if q:
                    rhs = rhs + sub((1, j, r, l), p, _AT_Y) * sub(
                        (2, i, l, s, h), q, inner_at_x[h])
        products = cache.get((i, j))
        if products is None:
            products = cache[(i, j)] = [
                (k, c) for k, c in enumerate(table[i][j]) if c
            ]
        for k, c in products:
            o = outer[k][r][s]
            if o:
                rhs = rhs + sub((3, i, j, k), c, _CUT) * sub(
                    (4, k, r, s), o, _AT_SUM)
        return lhs - rhs if rhs else lhs

    return residual


def _random_entry(rng, zero_frac):
    """A random polynomial in lam1, lam2, d and a named parameter, or 0."""
    if rng.random() < zero_frac:
        return RatPoly.zero()
    variables = [lam(1), lam(2), DEL, param("alpha")]
    out = RatPoly.zero()
    for _ in range(rng.randint(1, 3)):
        term = RatPoly.const(Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 1, 2, 3])))
        for v in variables:
            e = rng.choice([0, 0, 0, 1, 2])
            if e and (v != param("alpha") or rng.random() < 0.5):
                term = term * RatPoly.var(v, e)
        out = out + term
    return out


def _random_identity(rng):
    n, dim = rng.randint(1, 3), rng.randint(1, 3)
    zero_frac = rng.choice([0.3, 0.6])

    def matrices(rows, cols):
        return [[[_random_entry(rng, zero_frac) for _ in range(cols)]
                 for _ in range(rows)] for _ in range(n)]

    outer = matrices(dim, dim)
    inner = outer if rng.random() < 0.3 else matrices(dim, dim)
    table = [[tuple(_random_entry(rng, zero_frac) for _ in range(n))
              for _ in range(n)] for _ in range(n)]
    choices = [RatPoly.var(DEL), RatPoly.const(Fraction(-3, 2)),
               RatPoly.const(2), RatPoly.zero()]
    deltas = [rng.choice(choices) for _ in range(dim)]
    return n, dim, outer, inner, table, deltas


@pytest.mark.parametrize("seed", range(12))
def test_bracket_residual_matches_the_ratpoly_oracle(seed):
    rng = random.Random(1800 + seed)
    for _ in range(4):
        n, dim, outer, inner, table, deltas = _random_identity(rng)

        def split(mats):
            return [[[split_terms(p) for p in row] for row in m] for m in mats]

        for commutator in (True, False):
            oracle = _bracket_residual_oracle(outer, inner, table, deltas,
                                              commutator)
            got = bracket_residual(outer, inner, table, deltas, commutator)
            # entries handed over as term tables read the same
            tabled = bracket_residual(
                split(outer), split(inner),
                [[tuple(split_terms(c) for c in v) for v in row] for row in table],
                deltas, commutator)
            support = bracket_support(outer, inner, table, commutator)
            for i in range(n):
                for j in range(n):
                    for r in range(dim):
                        for s in range(dim):
                            want = oracle(i, j, r, s)
                            entry = got(i, j, r, s)
                            assert all(entry.values())
                            assert terms_poly(entry) == want
                            assert tabled(i, j, r, s) == entry
                            if want:
                                assert (r, s) in support(i, j)


def test_bracket_residual_refuses_a_parameter_in_a_row_shift():
    m = [[[RatPoly.const(1)]]]
    with pytest.raises(ValueError):
        bracket_residual(m, m, [[(RatPoly.zero(),)]],
                         [RatPoly.var(DEL) + RatPoly.var(param("a"))], True)


def test_multinomials_of_no_parts():
    # the empty sum: its zeroth power is 1, every other power 0
    assert multinomials(0, 0) == (((), 1),)
    assert multinomials(0, 3) == ()
