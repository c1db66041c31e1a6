import json
from pathlib import Path

import pytest

from reeskit.errors import DomainError
from reeskit.resolutions import NEG_INF, abw_generation_degree, ku_generation_degree, n_constants

FIXTURES = Path(__file__).parent / "fixtures"


class TestAbw:
    def test_examples(self):
        assert abw_generation_degree(2, 3, 5, 2) == 2
        assert abw_generation_degree(2, 3, 1, 2) == NEG_INF
        for m, n, k in [(1, 1, 1), (2, 5, 3), (4, 4, 2)]:
            assert abw_generation_degree(m, n, k, 0) == 0

    def test_linearity_and_cutoff(self):
        for m in range(1, 6):
            for n in range(m, 6):
                for k in range(1, 7):
                    length = min(k, m) * (n - m)
                    for i in range(0, length + 4):
                        value = abw_generation_degree(m, n, k, i)
                        if i == 0:
                            assert value == 0
                        elif i <= length:
                            assert value == i
                        else:
                            assert value == NEG_INF

    def test_range_validation(self):
        with pytest.raises(DomainError):
            abw_generation_degree(3, 2, 1, 0)
        with pytest.raises(DomainError):
            abw_generation_degree(2, 3, 0, 0)
        with pytest.raises(DomainError):
            abw_generation_degree(2, 3, 1, -1)


class TestKu:
    def test_examples(self):
        assert ku_generation_degree(5, 3, 4) == 4
        assert ku_generation_degree(5, 2, 3) == NEG_INF
        assert ku_generation_degree(7, 10, 4) == 4

    def test_fixture_table(self):
        records = json.loads((FIXTURES / "ku_generation_degrees.json").read_text())
        assert len(records) == 3 * 8 * 9
        for rec in records:
            expected = NEG_INF if rec["value"] == "-inf" else rec["value"]
            assert ku_generation_degree(rec["n"], rec["k"], rec["i"]) == expected, rec

    def test_exceptional_entry_exceeds_linear_value(self):
        # On the exceptional position the degree exceeds i by (n-i+1)/2 - 1 >= 0.
        for n in (3, 5, 7, 9):
            for k in range(1, n - 1, 2):
                i = k + 1
                if i > n - 1:
                    continue
                value = ku_generation_degree(n, k, i)
                assert value == i + (n - i + 1) // 2 - 1
                assert value >= i

    def test_range_validation(self):
        with pytest.raises(DomainError):
            ku_generation_degree(4, 1, 0)
        with pytest.raises(DomainError):
            ku_generation_degree(1, 1, 0)
        with pytest.raises(DomainError):
            ku_generation_degree(5, 0, 0)


class TestNConstants:
    def test_examples(self):
        assert n_constants("square_submax", 4) == 1
        assert n_constants("pfaff_n_minus_2", 8) == 2
        assert n_constants("pfaff_general", 5) == 8

    def test_values_small(self):
        assert n_constants("square_submax", 2) == 0
        assert n_constants("square_submax", 3) == 0
        assert n_constants("square_submax", 5) == 2
        assert n_constants("ordinary_minors", 3) == 1
        assert n_constants("ordinary_minors", 4) == 2
        assert n_constants("pfaff_n_minus_2", 4) == 0
        assert n_constants("pfaff_n_minus_2", 6) == 0
        assert n_constants("pfaff_n_minus_2", 10) == 4
        assert n_constants("pfaff_general", 4) == 4

    def test_integrality_across_ranges(self):
        for n in range(2, 40):
            assert isinstance(n_constants("square_submax", n), int)
            assert n_constants("square_submax", n) >= 0
        for t in range(3, 40):
            assert isinstance(n_constants("ordinary_minors", t), int)
            assert isinstance(n_constants("pfaff_general", t), int)
        for n in range(4, 40, 2):
            assert isinstance(n_constants("pfaff_n_minus_2", n), int)
            assert n_constants("pfaff_n_minus_2", n) >= 0

    def test_bad_selector(self):
        with pytest.raises(DomainError):
            n_constants("nope", 4)
        with pytest.raises(DomainError):
            n_constants("pfaff_n_minus_2", 7)
