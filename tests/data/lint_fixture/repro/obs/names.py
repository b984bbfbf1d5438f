"""metric-names seeds: the registry the call sites are checked against."""

SPAN_NAMES = frozenset({
    "vfs.read",
})
SPAN_PREFIXES = frozenset({
    "fault.",
})
