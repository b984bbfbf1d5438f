"""Experiment harness.

Ties file systems, aging, and workloads together into the paper's
experiments and prints figure/table-shaped text output.

* :mod:`repro.harness.setup` — build machines, format/age file systems
  (aged images snapshot-cached under ``$REPRO_SNAPSHOT_DIR``), the
  strict/relaxed comparison groups of §5.1.
* :mod:`repro.harness.fleet` — process-pool runner for independent
  (fs, scenario, seed) cells with deterministic merge order, and the
  ``Campaign`` registry behind ``repro bench|slo|serve|snapshot``.
* :mod:`repro.harness.report` — fixed-width tables and ASCII series
  (each bench prints "the same rows/series the paper reports").
"""

from .setup import (FSSpec, ALL_SPECS, SPECS_BY_NAME,
                    METADATA_GROUP, DATA_GROUP,
                    make_fs, aged_fs, aged_cache_key, fresh_fs)
from .fleet import (CAMPAIGNS, Campaign, run_fleet, merge_numeric,
                    bench_cell, slo_cell, serve_cell, corpus_cell)
from .report import (Table, format_series, format_cdf,
                     phase_breakdown_table, slo_table, availability_table)

__all__ = ["FSSpec", "ALL_SPECS", "SPECS_BY_NAME",
           "METADATA_GROUP", "DATA_GROUP",
           "make_fs", "aged_fs", "aged_cache_key", "fresh_fs",
           "CAMPAIGNS", "Campaign", "run_fleet", "merge_numeric",
           "bench_cell", "slo_cell", "serve_cell", "corpus_cell",
           "Table", "format_series", "format_cdf",
           "phase_breakdown_table", "slo_table", "availability_table"]
