import random
from fractions import Fraction
from math import gcd

from confcoh.linalg import (
    echelon,
    intersection_dim,
    kernel_of_columns,
    rank,
    rank_bareiss,
    reduce_mod_span,
    remainder_multiple,
    solve_columns,
    sparse_rref,
)
from oracles import echelon_oracle


def dict_rows(dense):
    return [
        {j: Fraction(x) for j, x in enumerate(row) if x} for row in dense
    ]


def test_rref_simple():
    rows = dict_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reduced, pivots = sparse_rref(rows)
    assert len(reduced) == 2
    assert pivots == [0, 1]


def test_rank_and_kernel():
    # three columns over a two-key space; the third is the sum of the others
    cols = dict_rows([[1, 0], [0, 1], [1, 1]])
    kernel = kernel_of_columns(cols)
    assert len(kernel) == 1
    k = kernel[0]
    # x0 * c0 + x1 * c1 + x2 * c2 = 0 with c2 = c0 + c1
    total = {}
    for j, x in k.items():
        for key, v in cols[j].items():
            total[key] = total.get(key, Fraction(0)) + x * v
    assert all(not v for v in total.values())


def test_solve_columns():
    cols = dict_rows([[1, 0], [1, 1], [0, 2]])
    target = {0: Fraction(3), 1: Fraction(5)}
    x = solve_columns(cols, target)
    total = {}
    for j, v in x.items():
        for key, c in cols[j].items():
            total[key] = total.get(key, Fraction(0)) + v * c
    assert {k: v for k, v in total.items() if v} == target
    assert solve_columns(dict_rows([[1, 0]]), {1: Fraction(1)}) is None


def test_span_and_intersection():
    u = dict_rows([[1, 0, 0], [0, 1, 0]])
    v = dict_rows([[1, 1, 0], [0, 0, 1]])
    assert intersection_dim(u, v) == 1


def test_bareiss_matches_rational_elimination():
    rng = random.Random(2024)
    for _ in range(10):
        n = 20
        dense = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        # plant some rank deficiency occasionally
        if rng.random() < 0.5:
            dense[3] = [2 * x for x in dense[1]]
            dense[7] = [x + y for x, y in zip(dense[0], dense[2])]
        sparse = dict_rows(dense)
        assert rank_bareiss(dense) == rank(sparse)


def test_rref_is_deterministic():
    rows = dict_rows([[0, 1, 2], [1, 1, 1], [1, 2, 3]])
    a = sparse_rref(rows)
    b = sparse_rref(list(reversed(rows)))
    assert a[1] == b[1]
    assert sorted(map(sorted, (r.items() for r in a[0]))) == sorted(
        map(sorted, (r.items() for r in b[0]))
    )


def test_rref_of_int_rows_is_exact():
    reduced, pivots = sparse_rref([{0: 3, 1: 1}, {0: 1, 2: 2}])
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 2: 2}, {1: 1, 2: -6}]
    for row in reduced:
        assert all(type(c) is Fraction for c in row.values())
    (only,), _ = sparse_rref([{0: 3, 1: 1}])
    assert only == {0: Fraction(1), 1: Fraction(1, 3)}
    assert all(type(c) is Fraction for c in only.values())


# The Fraction elimination that sparse_rref, reduce_mod_span,
# kernel_of_columns and solve_columns replaced, kept as the exact oracle of
# the primitive integer elimination: every pivot row is scaled to a unit
# pivot and cleared from the others in Fraction arithmetic.

def _oracle_axpy(target, coeff, source):
    for k, c in source.items():
        s = target.get(k, 0) + coeff * c
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _oracle_rref(rows):
    work = [dict(r) for r in rows if r]
    reduced, pivots = [], []
    for key in sorted({k for r in work for k in r}):
        pivot_row, best = None, None
        for idx, r in enumerate(work):
            if key in r and (best is None or len(r) < best):
                pivot_row, best = idx, len(r)
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        inv = Fraction(1) / row[key]
        row = {k: c * inv for k, c in row.items()}
        for r in work + reduced:
            c = r.get(key)
            if c is not None:
                _oracle_axpy(r, -c, row)
        work = [r for r in work if r]
        reduced.append(row)
        pivots.append(key)
    return reduced, pivots


def _oracle_reduce(reduced_rows, pivots, vector):
    v = dict(vector)
    for row, key in zip(reduced_rows, pivots):
        c = v.get(key)
        if c is not None:
            _oracle_axpy(v, -c, row)
    return v


def _transpose(columns, target=None):
    row_map = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            row_map.setdefault(key, {})[j] = c
    for key, c in (target or {}).items():
        row_map.setdefault(key, {})[len(columns)] = c
    return list(row_map.values())


def _oracle_kernel(columns):
    reduced, pivots = _oracle_rref(_transpose(columns))
    basis = []
    for free in range(len(columns)):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for row, piv in zip(reduced, pivots):
            if row.get(free):
                vec[piv] = -row[free]
        basis.append(vec)
    return basis


def _oracle_solve(columns, target):
    n = len(columns)
    reduced, pivots = _oracle_rref(_transpose(columns, target))
    if n in pivots:
        return None
    return {piv: row[n] for row, piv in zip(reduced, pivots) if row.get(n)}


_LARGE = 10**12 + 39


def _entry(rng, kind):
    num = rng.choice([n for n in range(-9, 10) if n])
    if kind == "int":
        return num
    den = rng.choice([3, 7, _LARGE]) if kind == "frac" else rng.choice([1, 3, 7])
    return Fraction(num * rng.choice([1, _LARGE]), den)


def _random_rows(rng, kind, tuple_keys):
    """Sparse rows with int, Fraction or mixed entries, with planted
    duplicate, negated, scaled and cancelling rows."""
    nkeys = rng.randint(1, 9)
    keys = [("ab"[j % 2], j) for j in range(nkeys)] if tuple_keys \
        else list(range(nkeys))
    rows = []
    for _ in range(rng.randint(0, 9)):
        support = rng.sample(keys, rng.randint(1, nkeys))
        rows.append({k: _entry(rng, kind) for k in support})
    for _ in range(rng.randint(0, 3)):
        if len(rows) < 2:
            break
        u, v = rng.sample(rows, 2)
        a, b = _entry(rng, kind), _entry(rng, kind)
        combo = {}
        _oracle_axpy(combo, a, u)
        _oracle_axpy(combo, b, v)
        rows.append(rng.choice([dict(u), {k: -c for k, c in u.items()},
                                {k: a * c for k, c in u.items()}]))
        if combo:
            rows.append(combo)
    rng.shuffle(rows)
    return rows


def _fraction_typed(vectors):
    return all(type(c) is Fraction for v in vectors for c in v.values())


def _primitive_form(row, key):
    ints = row.ints
    assert all(type(c) is int for c in ints.values())
    assert ints[key] > 0 and gcd(*ints.values()) == 1
    assert {k: Fraction(c, ints[key]) for k, c in ints.items()} == row


def _seeded_cases():
    rng = random.Random(1414)
    for trial in range(240):
        kind = ("int", "frac", "mixed")[trial % 3]
        tuple_keys = trial % 4 == 3
        yield rng, (kind, tuple_keys), _random_rows(rng, kind, tuple_keys)


def test_rref_matches_fraction_oracle():
    ranks = set()
    for rng, (kind, tuple_keys), rows in _seeded_cases():
        reduced, pivots = sparse_rref(rows)
        want_rows, want_pivots = _oracle_rref(rows)
        assert pivots == want_pivots
        assert reduced == want_rows
        assert _fraction_typed(reduced)
        for row, key in zip(reduced, pivots):
            _primitive_form(row, key)
        ranks.add((kind, len(rows) - len(reduced) > 0))
        # re-fed reduced rows with new rows, as a grown coboundary RREF
        extra = _random_rows(rng, kind, tuple_keys)
        again = sparse_rref(list(reduced) + extra)
        assert again == _oracle_rref(want_rows + extra)
    assert ranks == {(k, deficient) for k in ("int", "frac", "mixed")
                     for deficient in (False, True)}
    assert sparse_rref([]) == ([], [])
    assert sparse_rref([{}, {}]) == ([], [])


def test_reduce_mod_span_matches_fraction_oracle():
    zero_remainders = 0
    for rng, _, rows in _seeded_cases():
        reduced, pivots = sparse_rref(rows)
        want_rows, _ = _oracle_rref(rows)
        keys = sorted({k for r in rows for k in r}, key=repr)
        vectors = [dict(r) for r in rows]
        for _ in range(3):
            if keys:
                support = rng.sample(keys, rng.randint(1, len(keys)))
                vectors.append({k: _entry(rng, rng.choice(("int", "frac")))
                                for k in support})
        vectors.append({})
        for v in vectors:
            got = reduce_mod_span(reduced, pivots, v)
            assert got == _oracle_reduce(want_rows, pivots, v)
            assert _fraction_typed([got])
            assert not set(got) & set(pivots)
            zero_remainders += not got
    assert zero_remainders > 240
    assert reduce_mod_span([], [], {0: 3, 1: Fraction(1, 7)}) == {
        0: Fraction(3), 1: Fraction(1, 7)}


def test_kernel_and_solve_match_fraction_oracle():
    unsolvable = 0
    for rng, (kind, _), columns in _seeded_cases():
        kernel = kernel_of_columns(columns)
        assert kernel == _oracle_kernel(columns)
        assert _fraction_typed(kernel)
        keys = sorted({k for c in columns for k in c}, key=repr)
        targets = [{}]
        if columns:
            targets.append(dict(rng.choice(columns)))
        if keys:
            targets.append({k: _entry(rng, kind)
                            for k in rng.sample(keys, rng.randint(1, len(keys)))})
        for target in targets:
            x = solve_columns(columns, target)
            want = _oracle_solve(columns, target)
            assert x == want
            if x is None:
                unsolvable += 1
            else:
                assert _fraction_typed([x])
    assert unsolvable > 20
    assert kernel_of_columns([]) == []
    assert solve_columns([], {}) == {}
    assert solve_columns([], {0: 1}) is None


# The forward-only echelon form against the scanning oracle, and the callers
# that read it (rank, reduce_mod_span) against the RREF and Fraction routes.

_BIG_DEN = 10**6 + 3


def _echelon_entry(rng):
    num = rng.choice([n for n in range(-9, 10) if n])
    return rng.choice([num, num, Fraction(num, rng.choice([2, 9, _BIG_DEN]))])


def _cancel_and_return(rng, k0, k1, k2, k3):
    """Rows whose elimination at k0 cancels the third row's entry at k2,
    which the second row, the pivot row of k1, brings back."""
    a, b, m, x, y, z = (_echelon_entry(rng) for _ in range(6))
    return [{k0: a, k2: b}, {k1: x, k2: z},
            {k0: m * a, k1: x * y, k2: m * b, k3: y}]


def _echelon_cases():
    """The seeded matrices of _seeded_cases with zero rows, and with a
    planted cancel-and-return pattern in half of them, plus a fixed one."""
    for rng, (kind, tuple_keys), rows in _seeded_cases():
        keys = sorted({k for r in rows for k in r})
        rows = rows + [{}] * rng.randint(0, 2)
        if len(keys) >= 4 and rng.random() < 0.5:
            rows += _cancel_and_return(rng, *sorted(rng.sample(keys, 4)))
            rows.append(dict(rng.choice(rows)))
        rng.shuffle(rows)
        yield rng, rows
    yield random.Random(5), [{0: 2, 2: -3}, {1: 5, 2: 1},
                             {0: 4, 1: 7, 2: -6, 3: Fraction(-1, _BIG_DEN)}]


def test_echelon_matches_scanning_oracle():
    cancelled = 0
    for _, rows in _echelon_cases():
        before = [dict(r) for r in rows]
        got_rows, pivots = echelon(rows)
        want_rows, want_pivots = echelon_oracle(rows)
        assert rows == before
        assert pivots == want_pivots
        assert got_rows == want_rows
        for i, (row, key) in enumerate(zip(got_rows, pivots)):
            assert all(type(c) is int for c in row.values())
            assert row[key] > 0 and gcd(*row.values()) == 1
            assert not set(row) & set(pivots[:i])
        assert pivots == sparse_rref(rows)[1]
        cancelled += len(pivots) < len([r for r in rows if r])
    assert cancelled > 100
    # the third row loses key 2 at key 0 and gets it back at key 1
    assert echelon([{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1, 3: 1}]) == (
        [{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: -1}], [0, 1, 2])
    assert echelon([]) == ([], [])
    assert echelon([{}, {}]) == ([], [])


def test_reduce_mod_span_reads_echelon_rows():
    for rng, rows in _echelon_cases():
        ech_rows, pivots = echelon(rows)
        rref_rows, _ = sparse_rref(rows)
        want_rows, _ = _oracle_rref(rows)
        mixed = [rng.choice(pair) for pair in zip(ech_rows, rref_rows)]
        keys = sorted({k for r in rows for k in r}, key=repr)
        vectors = [dict(r) for r in rows]
        if keys:
            vectors += [{k: _echelon_entry(rng)
                         for k in rng.sample(keys, rng.randint(1, len(keys)))}
                        for _ in range(3)]
        for v in vectors:
            want = _oracle_reduce(want_rows, pivots, v)
            for span in (ech_rows, rref_rows, mixed):
                assert reduce_mod_span(span, pivots, v) == want
            multiple = remainder_multiple(ech_rows, pivots, v)
            assert all(type(c) is int for c in multiple.values())
            assert multiple.keys() == want.keys()
            assert len({Fraction(multiple[k]) / want[k] for k in want}) <= 1


def test_rank_matches_bareiss_on_sparse_rows():
    deficient = 0
    for _, rows in _echelon_cases():
        keys = sorted({k for r in rows for k in r}, key=repr)
        dense = [[r.get(k, 0) for k in keys] for r in rows]
        assert rank(rows) == rank_bareiss(dense)
        deficient += rank(rows) < len([r for r in rows if r])
    assert deficient > 100


def test_kernel_of_echelon_cases_matches_fraction_oracle():
    for _, columns in _echelon_cases():
        kernel = kernel_of_columns(columns)
        assert kernel == _oracle_kernel(columns)
        assert _fraction_typed(kernel)
