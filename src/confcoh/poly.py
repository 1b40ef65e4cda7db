"""Sparse multivariate polynomials over exact rationals.

Variables come from one shared alphabet:

* ``lam(i)`` -- the bracket parameters lam1, lam2, ... (1-based),
* ``DEL``    -- the generator ``d`` of the ground polynomial ring,
* ``param(name)`` -- free named parameters (the external parameter of the
  contraction/action operators, symbolic entries in spec files).

A polynomial is stored as ``{monomial: Fraction}`` where a monomial is a
tuple of ``(variable, exponent)`` pairs sorted by variable, exponents > 0.
Zero coefficients are never stored, so equality is dict equality.  All
operations are exact; substitution of a polynomial for a variable is total
and simultaneous substitutions never collide.

The textual grammar (used by spec files and the CLI) is: integers, rationals
``p/q``, variables ``lam1..lamN``, ``d``, parameter identifiers, ``+ - * ^``
and parentheses, whitespace-insensitive.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import ParseError

# Variable encoding: tuples ordered lam1 < lam2 < ... < d < params (by name).
_LAM, _DEL, _PARAM = 0, 1, 2

DEL = (_DEL, 0)

_lam_cache = {}


def lam(i):
    """The i-th bracket parameter (1-based)."""
    v = _lam_cache.get(i)
    if v is None:
        if i < 1:
            raise ValueError("lam indices are 1-based")
        v = _lam_cache[i] = (_LAM, i)
    return v


def param(name):
    """A free named parameter."""
    return (_PARAM, name)


def is_lam(v):
    return v[0] == _LAM


def parameter_names(polys):
    """The sorted names of the named parameters occurring in ``polys``."""
    return sorted({v[1] for p in polys for v in p.variables() if v[0] == _PARAM})


def var_name(v):
    kind, key = v
    if kind == _LAM:
        return f"lam{key}"
    if kind == _DEL:
        return "d"
    return key


_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatPoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms must already be canonical: sorted-pair monomials, no zeros.
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return _POLY_ZERO

    @staticmethod
    def const(c):
        c = Fraction(c)
        if not c:
            return _POLY_ZERO
        return RatPoly({(): c})

    @staticmethod
    def var(v, exp=1, coeff=1):
        c = Fraction(coeff)
        if not c:
            return _POLY_ZERO
        if exp == 0:
            return RatPoly({(): c})
        return RatPoly({((v, exp),): c})

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def const_value(self):
        return self.terms.get((), _ZERO)

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == RatPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        elif not isinstance(other, RatPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        elif not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return _POLY_ZERO
            return RatPoly({m: cc * c for m, cc in self.terms.items()})
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return _POLY_ZERO
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative exponent")
        result = RatPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitution ------------------------------------------------------

    def substitute(self, v, repl):
        """Total substitution of ``repl`` (poly or scalar) for variable v."""
        return self.subst_many({v: repl})

    def subst_many(self, mapping):
        """Simultaneous substitution {var: poly-or-scalar}; collision-free."""
        if not self.terms or not mapping:
            return self
        repls = {}
        for v, r in mapping.items():
            repls[v] = r if isinstance(r, RatPoly) else RatPoly.const(r)
        out = _POLY_ZERO
        powcache = {}
        for m, c in self.terms.items():
            kept = []
            factors = []
            for v, e in m:
                r = repls.get(v)
                if r is None:
                    kept.append((v, e))
                else:
                    key = (v, e)
                    p = powcache.get(key)
                    if p is None:
                        p = powcache[key] = r ** e
                    factors.append(p)
            term = RatPoly({tuple(kept): c})
            for f in factors:
                term = term * f
            out = out + term
        return out

    # -- structure queries --------------------------------------------------

    def degree_in(self, pred):
        """Max total degree counting only variables with pred(v) true."""
        best = -1
        for m in self.terms:
            d = sum(e for v, e in m if pred(v))
            if d > best:
                best = d
        return best

    def lam_degree(self):
        """Max total degree in the lam variables (-1 for the zero poly)."""
        return self.degree_in(is_lam)

    def del_degree(self):
        return self.degree_in(lambda v: v == DEL)

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def coeff_of_lams(self, exps):
        """Coefficient of lam1^exps[0] * ... * lamq^exps[q-1].

        Returns the polynomial in the remaining variables (d, params);
        lam variables with index > len(exps) must not occur.
        """
        q = len(exps)
        target = {i + 1: e for i, e in enumerate(exps) if e}
        out = {}
        for m, c in self.terms.items():
            rest = []
            got = {}
            for v, e in m:
                if v[0] == _LAM:
                    got[v[1]] = e
                else:
                    rest.append((v, e))
            if got == target:
                out[tuple(rest)] = c
        return RatPoly(out)

    def derivative(self, v):
        out = {}
        for m, c in self.terms.items():
            for idx, (w, e) in enumerate(m):
                if w == v:
                    rest = m[:idx] + ((w, e - 1),) if e > 1 else m[:idx]
                    rest = rest + m[idx + 1:]
                    out[rest] = out.get(rest, _ZERO) + c * e
                    break
        return RatPoly({m: c for m, c in out.items() if c})

    def coeffs_in(self, v):
        """View as a polynomial in v: list of coefficient polys, index = power."""
        deg = self.degree_in(lambda w: w == v)
        if deg < 0:
            return []
        out = [{} for _ in range(deg + 1)]
        for m, c in self.terms.items():
            e = 0
            rest = []
            for w, ee in m:
                if w == v:
                    e = ee
                else:
                    rest.append((w, ee))
            out[e][tuple(rest)] = c
        return [RatPoly(t) for t in out]

    def div_linear(self, v, root):
        """Divide by (v - root): returns (quotient, remainder).

        ``root`` is a polynomial not involving v; remainder does not involve
        v either (it equals self with v := root).
        """
        coeffs = self.coeffs_in(v)
        if not coeffs:
            return _POLY_ZERO, _POLY_ZERO
        if not isinstance(root, RatPoly):
            root = RatPoly.const(root)
        vpoly = RatPoly.var(v)
        quot = _POLY_ZERO
        carry = _POLY_ZERO
        for k in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[k] + carry * root if k < len(coeffs) - 1 else coeffs[k]
            quot = quot + carry * vpoly ** (k - 1)
        rem = coeffs[0] + carry * root if len(coeffs) > 1 else coeffs[0]
        return quot, rem

    # -- display -----------------------------------------------------------

    def _sorted_terms(self):
        def key(item):
            m, _ = item
            return (-sum(e for _, e in m), m)

        return sorted(self.terms.items(), key=key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self._sorted_terms():
            factors = [
                var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in m
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"RatPoly({self})"


_POLY_ZERO = RatPoly({})


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def exact(coeff):
    """An integral Fraction as int (cheaper arithmetic), others unchanged."""
    return coeff.numerator if coeff.denominator == 1 else coeff


def from_terms(terms):
    """RatPoly from {monomial: int or Fraction}; zeros are dropped."""
    return RatPoly({m: c if type(c) is Fraction else Fraction(c)
                    for m, c in terms.items() if c})


_MULTINOMIALS = {}


def multinomials(n, m):
    """The expansion of (x_1 + ... + x_n)^m: every exponent vector k of n
    parts summing to m, with its int coefficient m! / (k_1! ... k_n!).
    Filled on first use."""
    key = (n, m)
    out = _MULTINOMIALS.get(key)
    if out is None:
        if n == 1:
            out = (((m,), 1),)
        else:
            # k_1 = j, the rest a vector of n - 1 parts summing to m - j
            out = tuple(
                ((j,) + k, comb(m, j) * c)
                for j in range(m + 1)
                for k, c in multinomials(n - 1, m - j)
            )
        _MULTINOMIALS[key] = out
    return out


# -- vectors of polynomials (module- and algebra-valued values) -------------


def zero_vec(n):
    return (_POLY_ZERO,) * n


def unit_vec(n, i, scale=None):
    out = [_POLY_ZERO] * n
    out[i] = RatPoly.const(1) if scale is None else scale
    return tuple(out)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_subst(u, mapping):
    return tuple(a.subst_many(mapping) for a in u)


def vec_is_zero(u):
    return all(not a for a in u)


def mat_apply(mat, vec):
    """mat: rows of RatPoly; vec: tuple of RatPoly."""
    return tuple(
        sum((row[j] * vec[j] for j in range(len(vec)) if vec[j]), _POLY_ZERO)
        for row in mat
    )


def mat_subst(mat, mapping):
    return [[p.subst_many(mapping) for p in row] for row in mat]


def mat_mul(a, b):
    """Product of polynomial matrices; zero entries are skipped."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    return [
        [
            sum((a[r][t] * b[t][s] for t in range(k) if a[r][t] and b[t][s]),
                _POLY_ZERO)
            for s in range(m)
        ]
        for r in range(n)
    ]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def left_matrices(table):
    """Per generator i, the matrix of a_i acting through the bracket table:
    entry (m, l) is table[i][l][m]."""
    return [[list(row) for row in zip(*rows)] for rows in table]


# the two bracket parameters x = lam1, y = lam2 and the substitutions of
# the two-layer identity that do not depend on d
_X, _Y = RatPoly.var(lam(1)), RatPoly.var(lam(2))
_AT_Y, _AT_SUM, _CUT = {lam(1): _Y}, {lam(1): _X + _Y}, {DEL: -_X - _Y}


def bracket_residual(outer, inner, table, deltas, commutator):
    """The two-layer lambda-bracket identity, one matrix entry at a time.

    The conformal Jacobi identity, the module axiom and associativity are
    all  a_x (b_y v) -/+ b_y (a_x v) = (a_x b)_{x+y} v.  ``outer[i]`` and
    ``inner[i]`` are the matrices (polynomials in lam1, d) of generator i
    acting in the outer and the inner layer, ``table[i][j][k]`` is the k-th
    component of a_i a_j, and ``deltas[r]`` is the action of d on row r (d
    itself, or the scalar of a torsion row).  Returns residual(i, j, r, s),
    entry (r, s) of

        outer_i(x) inner_j(y)|d->delta+x - outer_j(y) inner_i(x)|d->delta+y
            - sum_k table_ij^k(x, d->-x-y) outer_k(x+y)

    with x = lam1, y = lam2; the middle (commutator) term is left out when
    ``commutator`` is false, for associativity.  Zero entries are skipped,
    substituted entries are kept for the life of the function and nothing
    is computed before it is asked for, so callers can stop at the first
    nonzero entry.
    """
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
        lhs = rhs = _POLY_ZERO
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


def bracket_support(outer, inner, table, commutator):
    """support(i, j): a set holding every (r, s) at which
    bracket_residual(outer, inner, table, ., commutator)(i, j, r, s) can be
    nonzero.

    Each term of entry (r, s) carries outer_i[r][l] inner_j[l][s],
    outer_j[r][l] inner_i[l][s] (the commutator term) or outer_k[r][s] with
    table_ij^k != 0, so every other entry is zero whatever the polynomials.
    """
    def pattern(mats):
        return [[[c for c, p in enumerate(row) if p] for row in m] for m in mats]

    out_nz, in_nz = pattern(outer), pattern(inner)

    def product_support(a, b):
        return {(r, s) for r, row in enumerate(a) for l in row for s in b[l]}

    def support(i, j):
        out = product_support(out_nz[i], in_nz[j])
        if commutator:
            out |= product_support(out_nz[j], in_nz[i])
        for k, c in enumerate(table[i][j]):
            if c:
                out.update((r, s) for r, row in enumerate(out_nz[k]) for s in row)
        return out

    return support


# -- expression grammar ------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()])"
)
_LAM_NAME = re.compile(r"lam(\d+)$")


def parse_poly(text):
    """Parse the polynomial grammar; raises ParseError with a column."""
    stripped = []
    columns = []
    for col, ch in enumerate(text):
        if not ch.isspace():
            stripped.append(ch)
            columns.append(col + 1)
    src = "".join(stripped)

    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", columns[pos])
        kind = m.lastgroup
        tokens.append((kind, m.group(), columns[pos]))
        pos = m.end()
    tokens.append(("end", "", columns[-1] + 1 if columns else 1))

    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def take(expect=None):
        tok = tokens[state["i"]]
        if expect is not None and tok[1] != expect:
            raise ParseError(f"expected {expect!r}, found {tok[1]!r}", tok[2])
        state["i"] += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek()[1] in ("+", "-"):
            op = take()[1]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek()[1] == "*":
            take()
            node = node * parse_factor()
        return node

    def parse_factor():
        sign = 1
        while peek()[1] == "-":
            take()
            sign = -sign
        node = parse_atom()
        if peek()[1] == "^":
            take()
            kind, text_, col = take()
            if kind != "num" or "/" in text_:
                raise ParseError("exponent must be a non-negative integer", col)
            node = node ** int(text_)
        return node if sign == 1 else -node

    def parse_atom():
        kind, text_, col = peek()
        if kind == "num":
            take()
            return RatPoly.const(Fraction(text_))
        if kind == "ident":
            take()
            lm = _LAM_NAME.match(text_)
            if lm:
                return RatPoly.var(lam(int(lm.group(1))))
            if text_ == "d":
                return RatPoly.var(DEL)
            return RatPoly.var(param(text_))
        if text_ == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        raise ParseError(f"unexpected token {text_!r}", col)

    result = parse_expr()
    if peek()[0] != "end":
        tok = peek()
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return result
