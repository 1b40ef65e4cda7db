import pytest

from confcoh.algebra import build_assoc_current


def matrix_units_current():
    """Cur M_2(Q) on the matrix units e11, e12, e21, e22: e_ab e_cd =
    delta_bc e_ad, the non-commutative associative fixture."""
    units = [(a, b) for a in range(2) for b in range(2)]
    mult = [
        [[int(b == c and units[k] == (a, d)) for k in range(4)]
         for (c, d) in units]
        for (a, b) in units
    ]
    return build_assoc_current(("e11", "e12", "e21", "e22"), mult)


@pytest.fixture
def mat2_current():
    return matrix_units_current()
