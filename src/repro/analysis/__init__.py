"""Static invariant lints and runtime sanitizers.

S-QUERY's correctness claims rest on invariants the rest of the code
only enforces by convention: the simulation must stay bit-deterministic,
key locks must be released on every exit path, every network shipment
must be billed to the cost model, and snapshot versions must stay
immutable after commit.
This package checks those invariants mechanically:

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` — an
  AST-based lint pass (``python -m repro.analysis lint``) that walks the
  source tree and reports rule violations with ``file:line``;
* :mod:`repro.analysis.sanitizers` — a runtime layer (enabled via
  :class:`repro.config.SanitizerConfig`) that wraps state backends, the
  query service, and node resources to detect invariant violations while
  tests and chaos runs execute.

See ``docs/ANALYSIS.md`` for the rule catalogue and workflows.
"""

from __future__ import annotations

from .lint import (
    Violation,
    filter_baselined,
    lint_paths,
    load_baseline,
    write_baseline,
)
from .rules import ALL_RULES, rule_names
from .sanitizers import (
    SanitizerRuntime,
    SanitizerViolation,
    active_runtimes,
    default_config,
    drain_runtimes,
    install_sanitizers,
    set_default_config,
)

__all__ = [
    "ALL_RULES",
    "SanitizerRuntime",
    "SanitizerViolation",
    "Violation",
    "active_runtimes",
    "default_config",
    "drain_runtimes",
    "filter_baselined",
    "install_sanitizers",
    "lint_paths",
    "load_baseline",
    "rule_names",
    "set_default_config",
    "write_baseline",
]
