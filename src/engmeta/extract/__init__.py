"""Config-driven metadata extraction from simulation input/output/log files."""

from .config import (
    OCCURRENCES,
    VALUE_TYPES,
    ExtractionConfig,
    ExtractionRule,
    parse_config,
)
from .engine import (
    MODES,
    AssembleResult,
    CoercionFailure,
    ExtractionReport,
    RawHit,
    assemble,
    coerce,
    extract,
    glob_matches,
    parse_line,
    scan_file,
)

__all__ = [
    "OCCURRENCES",
    "VALUE_TYPES",
    "MODES",
    "AssembleResult",
    "CoercionFailure",
    "ExtractionConfig",
    "ExtractionReport",
    "ExtractionRule",
    "RawHit",
    "assemble",
    "coerce",
    "extract",
    "glob_matches",
    "parse_config",
    "parse_line",
    "scan_file",
]
