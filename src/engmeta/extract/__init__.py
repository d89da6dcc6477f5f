"""Config-driven metadata extraction from simulation input/output/log files.

The rule-file names load with this package; the engine's names load its
module on first use (PEP 562), so parsing a rule file loads no engine.
"""

from importlib import import_module

from .config import OCCURRENCES, VALUE_TYPES, ExtractionConfig, ExtractionRule, parse_config

# the engine's names, resolved by __getattr__
_ENGINE = ("MODES", "AssembleResult", "CoercionFailure", "ExtractionReport", "RawHit", "assemble",
           "coerce", "extract", "glob_matches", "parse_line", "scan_file")

__all__ = ["OCCURRENCES", "VALUE_TYPES", "ExtractionConfig", "ExtractionRule", "parse_config",
           *_ENGINE]


def __getattr__(name: str):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(".engine", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
