"""metric-names seeds: the registry the call sites are checked against."""

METRIC_NAMES = frozenset({
    "page_faults",
})
SPAN_NAMES = frozenset({
    "vfs.read",
})
SPAN_PREFIXES = frozenset({
    "fault.",
})
