import random
from fractions import Fraction

from confcoh.linalg import (
    intersection_dim,
    kernel_of_columns,
    rank,
    rank_bareiss,
    solve_columns,
    sparse_rref,
)


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
