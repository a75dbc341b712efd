"""Tests for the cost ledger and congestion round accounting."""

import pytest

from repro.congest import CostLedger, PhaseCost, congestion_rounds


class TestCostLedger:
    def test_accumulates(self):
        ledger = CostLedger()
        ledger.add("a", 10, messages=5)
        ledger.add("b", 20, messages=7)
        assert ledger.total_rounds == 30
        assert ledger.total_messages == 12
        assert len(ledger.phases()) == 2

    def test_breakdown_merges_repeats(self):
        ledger = CostLedger()
        ledger.add("phase", 5)
        ledger.add("phase", 7)
        assert ledger.breakdown() == {"phase": 12}

    def test_merge_with_prefix(self):
        a = CostLedger()
        a.add("x", 1)
        b = CostLedger()
        b.add("y", 2)
        a.merge(b, prefix="sub/")
        assert a.breakdown() == {"x": 1, "sub/y": 2}

    def test_negative_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.add("bad", -1)

    def test_format_table(self):
        ledger = CostLedger()
        ledger.add("alpha", 3)
        text = ledger.format_table()
        assert "alpha" in text
        assert "TOTAL" in text

    def test_phase_cost_addition(self):
        total = PhaseCost("p", 1, 2, 3) + PhaseCost("p", 4, 5, 6)
        assert (total.rounds, total.messages, total.words) == (5, 7, 9)

    def test_iteration(self):
        ledger = CostLedger()
        ledger.add("one", 1)
        ledger.add("two", 2)
        assert [p.name for p in ledger] == ["one", "two"]


class TestCongestionRounds:
    def test_each_iteration_at_least_one_round(self):
        assert congestion_rounds([0, 0, 0], 2) == 3

    def test_ceil_per_iteration(self):
        assert congestion_rounds([4, 5], 2) == 2 + 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            congestion_rounds([1], 0)
