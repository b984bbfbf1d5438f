"""Cost-model parameter tests: the paper's stated ratios must hold."""

import pytest

from repro.params import (BASE_PAGE, BLOCKS_PER_HUGEPAGE, DEFAULT_MACHINE,
                          HUGE_PAGE, MachineParams,
                          GIB, KIB, MIB)


class TestConstants:
    def test_page_geometry(self):
        assert HUGE_PAGE == 512 * BASE_PAGE
        assert HUGE_PAGE // BASE_PAGE == 512    # §1: "512x more page faults"
        assert BLOCKS_PER_HUGEPAGE == 512

    def test_unit_helpers(self):
        assert GIB == 1024 * MIB == 1024 * 1024 * KIB


class TestMachineRatios:
    """§2.1's stated PM-vs-DRAM ratios."""

    def test_pm_read_latency_2_to_3x_dram(self):
        m = DEFAULT_MACHINE
        assert 2.0 <= m.pm_load_ns / m.dram_load_ns <= 3.0

    def test_pm_write_latency_similar_to_dram(self):
        m = DEFAULT_MACHINE
        assert m.pm_store_ns <= 2 * m.dram_load_ns

    def test_pm_read_bw_third_of_dram(self):
        m = DEFAULT_MACHINE
        assert 0.25 <= m.pm_read_bw / m.dram_read_bw <= 0.40

    def test_pm_write_bw_about_017x_dram(self):
        m = DEFAULT_MACHINE
        assert 0.12 <= m.pm_write_bw / m.dram_write_bw <= 0.22

    def test_fault_cost_1_to_2us(self):
        m = DEFAULT_MACHINE
        assert 1000.0 <= m.fault_base_ns <= 2600.0

    def test_fault_dwarfs_cacheline_access(self):
        """§1: fault (1-2us) >> 64B access (100-200ns)."""
        m = DEFAULT_MACHINE
        assert m.fault_base_ns > 5 * m.pm_load_ns


class TestCostFunctions:
    def test_read_write_scale_with_bytes(self):
        m = DEFAULT_MACHINE
        assert m.pm_read_ns(2 * MIB) == pytest.approx(2 * m.pm_read_ns(MIB))
        assert m.pm_write_ns(2 * MIB) == pytest.approx(
            2 * m.pm_write_ns(MIB))

    def test_persist_small_uses_clwb(self):
        m = DEFAULT_MACHINE
        one_line = m.persist_ns(64)
        assert one_line >= m.clwb_ns + m.sfence_ns

    def test_persist_large_caps_flush(self):
        """Bulk writes use non-temporal stores: flush cost is capped."""
        m = DEFAULT_MACHINE
        big = m.persist_ns(MIB)
        assert big < m.pm_write_ns(MIB) + 16 * m.clwb_ns + m.sfence_ns

    def test_persist_monotone(self):
        m = DEFAULT_MACHINE
        last = 0.0
        for nbytes in (1, 64, 512, 4096, 65536):
            cur = m.persist_ns(nbytes)
            assert cur >= last
            last = cur

