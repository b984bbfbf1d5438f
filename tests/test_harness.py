"""Harness tests: setup groups, report rendering."""

import pytest

from repro.harness import (ALL_SPECS, DATA_GROUP, METADATA_GROUP,
                           SPECS_BY_NAME, Table, aged_fs, format_cdf,
                           format_series, fresh_fs)
from repro.params import MIB


class TestSpecs:
    def test_all_nine_configurations(self):
        assert len(ALL_SPECS) == 9
        assert set(METADATA_GROUP) | set(DATA_GROUP) == set(SPECS_BY_NAME)

    def test_groups_match_consistency_flags(self):
        # the groups follow each spec's flag; these are §5.1's groups
        assert set(DATA_GROUP) == {"NOVA", "Strata", "WineFS"}
        assert set(METADATA_GROUP) == {"ext4-DAX", "xfs-DAX", "PMFS",
                                       "NOVA-relaxed", "SplitFS",
                                       "WineFS-relaxed"}

    @pytest.mark.parametrize("name", sorted(SPECS_BY_NAME))
    def test_fresh_fs_builds(self, name):
        fs, ctx = fresh_fs(name, size_gib=0.125, track_data=True)
        assert fs.name == name
        assert fs.mounted
        f = fs.create("/probe", ctx)
        f.append(b"ok", ctx)
        assert fs.read_file("/probe", ctx) == b"ok"

    @pytest.mark.parametrize("name", sorted(SPECS_BY_NAME))
    def test_cost_only_mode_reads_zeroes(self, name):
        """track_data=False (the bench default) still reports sizes and
        charges costs, but file contents are not materialized."""
        fs, ctx = fresh_fs(name, size_gib=0.125)
        f = fs.create("/probe", ctx)
        f.append(b"ok", ctx)
        assert fs.getattr_ino(f.ino).size == 2
        assert fs.read_file("/probe", ctx) == b"\x00\x00"

    def test_aged_fs_reaches_target(self):
        fs, ctx = aged_fs("WineFS", size_gib=0.25, utilization=0.5,
                          churn_multiple=1.0)
        assert 0.35 <= fs.statfs().utilization <= 0.65
        # clocks are reset after aging so measurements start at zero
        assert ctx.clock.elapsed == 0.0

    def test_pmfs_not_aged(self):
        fs, ctx = aged_fs("PMFS", size_gib=0.25, utilization=0.5,
                          churn_multiple=1.0)
        # the paper cannot age PMFS either; it stays clean
        assert fs.statfs().utilization < 0.1


class TestReport:
    def test_table_renders(self):
        t = Table("Title", ["a", "b"])
        t.add_row("x", 1.5)
        t.add_row("yy", 12345.0)
        out = t.render()
        assert "Title" in out
        assert "12,345" in out

    def test_table_wrong_arity(self):
        t = Table("T", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_table_multiline_cells(self):
        # column widths must come from the widest *line* of a cell, not
        # its raw length, and rows grow to their tallest cell
        t = Table("T", ["fs", "objectives", "status"])
        t.add_row("WineFS", "p99<=1000ns: OK\nerrors<=0.001: VIOLATED",
                  "VIOLATED")
        t.add_row("ext4-DAX", "p99<=1000ns: OK", "OK")
        lines = t.render().splitlines()
        # title + header + rule + (2 lines for row 1) + (1 line for row 2)
        assert len(lines) == 6
        # widest objective line, not the joined cell, sets the width
        header = lines[1]
        assert len(header) < len("p99<=1000ns: OK"
                                 "errors<=0.001: VIOLATED") + 20
        assert "errors<=0.001: VIOLATED" in lines[4]
        # continuation lines leave the other columns blank
        assert lines[4].startswith(" ")
        # no line ends in padding, and the rule spans the whole grid
        assert all(line == line.rstrip() for line in lines)
        assert len(lines[2]) == len(lines[3]) == 8 + 2 + 23 + 2 + 8
        assert lines[4] == " " * 10 + "errors<=0.001: VIOLATED"

    def test_format_series(self):
        out = format_series("S", {"fs": [(1.0, 2.0), (3.0, 4.0)]},
                            x_label="x", y_label="y")
        assert "fs" in out and "4.000" in out

    def test_format_cdf_percentiles(self):
        cdf = [(float(i), i / 100.0) for i in range(101)]
        out = format_cdf("C", {"fs": cdf})
        assert "p50" in out and "p90" in out
