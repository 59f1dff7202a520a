"""The staged pipeline engine (see ``docs/architecture.md``).

``repro.engine`` composes the reproduction's existing stages — event
sources, the POET server, fault injection, causal hold-back, and
multi-pattern dispatch — into one explicit
:class:`~repro.engine.pipeline.Pipeline` artifact shared by the CLI,
the deployment checker, the benchmarks, and the examples.
"""

from repro.engine.cases import (
    CASE_STUDY_NAMES,
    CASES,
    CaseStudy,
    build_case,
    case_patterns,
)
from repro.engine.dispatch import CHECKPOINT_FORMAT, ShardedDispatcher
from repro.engine.pipeline import (
    DEFAULT_BATCH_SIZE,
    Pipeline,
    PipelineResult,
)

__all__ = [
    "CASE_STUDY_NAMES",
    "CASES",
    "CHECKPOINT_FORMAT",
    "CaseStudy",
    "DEFAULT_BATCH_SIZE",
    "Pipeline",
    "PipelineResult",
    "ShardedDispatcher",
    "build_case",
    "case_patterns",
]
