"""snapshot-whitelist seeds: an unlisted import and a reused tag byte."""

_MODULE_WHITELIST = (
    "repro.fs.common_base",
)

_T_INT = b"i"
_T_VINT = b"v"
_T_CLASH = b"i"
