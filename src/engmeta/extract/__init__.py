"""Config-driven metadata extraction from simulation input/output/log files.

The rule-file names load with this package; the engine's names load its
module on first use (PEP 562, the package's ``_lazy``), so parsing a rule
file loads no engine.
"""

from .. import _lazy
from .config import OCCURRENCES, VALUE_TYPES, ExtractionConfig, ExtractionRule, parse_config

# the engine's names, resolved by __getattr__
_ENGINE = ("MODES", "AssembleResult", "CoercionFailure", "ExtractionReport", "RawHit", "assemble",
           "coerce", "extract", "glob_matches", "parse_line", "scan_file")

__all__ = ["OCCURRENCES", "VALUE_TYPES", "ExtractionConfig", "ExtractionRule", "parse_config",
           *_ENGINE]

__getattr__, __dir__ = _lazy(globals(), dict.fromkeys(_ENGINE, "engine"))
