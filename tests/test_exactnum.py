import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtwist.exactnum import (
    D_MAX,
    check_d,
    fmt_rat,
    is_squarefree,
    parse_rat,
    unit_residue,
    vp,
)


class TestVp:
    def test_integers(self):
        assert vp(12, 2) == 2
        assert vp(12, 3) == 1
        assert vp(12, 5) == 0
        assert vp(-8, 2) == 3

    def test_rationals(self):
        assert vp(Fraction(3, 8), 2) == -3
        assert vp(Fraction(9, 2), 3) == 2

    def test_zero(self):
        assert vp(0, 7) == math.inf

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            vp(10, 6)
        with pytest.raises(ValueError):
            vp(10, 1)

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_defining_property(self, n, p):
        v = vp(n, p)
        assert n % p**v == 0 and (n // p**v) % p != 0


class TestUnitResidue:
    def test_basic(self):
        assert unit_residue(12, 2, 2) == 3   # 12 = 4*3
        assert unit_residue(Fraction(1, 3), 2, 3) == 3  # 3^-1 mod 8
        assert unit_residue(-1, 2, 2) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_residue(0, 2)

    @given(st.fractions(min_value=-100, max_value=100).filter(lambda x: x != 0),
           st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=4))
    def test_is_a_unit(self, x, p, k):
        r = unit_residue(x, p, k)
        assert 0 < r < p**k and r % p != 0


class TestSquarefree:
    def test_values(self):
        assert is_squarefree(1)
        assert is_squarefree(-1)
        assert is_squarefree(2)
        assert is_squarefree(30)
        assert is_squarefree(-105)
        assert not is_squarefree(4)
        assert not is_squarefree(12)
        assert not is_squarefree(-49)
        assert not is_squarefree(8 * 121)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree(0)

    @given(st.integers(min_value=2, max_value=1000),
           st.integers(min_value=1, max_value=1000))
    def test_square_multiples_rejected(self, k, m):
        assert not is_squarefree(k * k * m)


class TestCheckD:
    def test_size_limit(self):
        # 2 * 223 * 208513 * 10753058401, square-free, just inside the limit
        assert check_d(-(D_MAX - 2)) == -(D_MAX - 2)
        for d in (D_MAX + 1, -(10**24 + 7)):  # 10^24 + 7 is prime
            with pytest.raises(ValueError, match="exceeds 10\\^18"):
                check_d(d)

    def test_not_squarefree(self):
        for d in (0, 12, -D_MAX):
            with pytest.raises(ValueError, match="square-free"):
                check_d(d)


class TestRatIO:
    def test_round_trip(self):
        for s in ["3", "-7", "22/7", "-1/27"]:
            assert fmt_rat(parse_rat(s)) == s

    def test_fmt_integer(self):
        assert fmt_rat(Fraction(8, 4)) == "2"
