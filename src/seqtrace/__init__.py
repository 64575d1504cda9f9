"""Trace semantics for asynchronous sequence diagrams.

Parse a textual diagram DSL, evaluate diagrams to finite trace sets under
bounded loop unrolling, and compare diagrams with each other (refinement)
or with recorded system traces (conformance).
"""

from seqtrace.ast import (
    Alt,
    Basic,
    Consider,
    Create,
    Destroy,
    Fragment,
    Ignore,
    Loc,
    Loop,
    Message,
    Namespace,
    Par,
    Skip,
    Trace,
    TraceSet,
    WeakSeq,
    message_alphabet,
    render_trace,
    shares_lifeline,
)
from seqtrace.conformance import (
    ConformanceMode,
    Verdict,
    conform,
    parse_trace_log,
    refines,
    validate,
)
from seqtrace.errors import (
    DestroyAbsentError,
    DiagramError,
    DuplicateCreateError,
    DuplicateLifelineError,
    EmptyBlockError,
    InputTooLargeError,
    LogParseError,
    ParseError,
    TraceSetOverflowError,
    UnknownLifelineError,
)
from seqtrace.parser import (
    ParsedDiagram,
    canonicalize,
    dump_diagram,
    parse,
    render_fragment,
)
from seqtrace.semantics import (
    DEFAULT_LOOP_BOUND,
    DEFAULT_MAX_TRACES,
    Denotation,
    EvalLimits,
    concat_sets,
    count_traces,
    denote,
    filter_trace,
    interleave_sets,
    interleave_traces,
    kleene_bounded,
    rendered_traces,
    theorem1_diff,
    theorem1_sides,
    weak,
    weak_over_set,
)

__version__ = "0.1.0"

# The reference oracle and the fragment generator serve tests and scripts,
# not the CLI, so they load on first use (PEP 562).
_ORACLE_NAMES = frozenset((
    "GeneratorConfig", "generate_fragment", "generate_fragments", "oracle_interleave", "oracle_weak"
))


def __getattr__(name: str) -> object:
    if name in _ORACLE_NAMES:
        from seqtrace import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Alt",
    "Basic",
    "Consider",
    "ConformanceMode",
    "Create",
    "DEFAULT_LOOP_BOUND",
    "DEFAULT_MAX_TRACES",
    "Denotation",
    "DestroyAbsentError",
    "Destroy",
    "DiagramError",
    "DuplicateCreateError",
    "DuplicateLifelineError",
    "EmptyBlockError",
    "EvalLimits",
    "Fragment",
    "GeneratorConfig",
    "Ignore",
    "InputTooLargeError",
    "Loc",
    "LogParseError",
    "Loop",
    "Message",
    "Namespace",
    "Par",
    "ParseError",
    "ParsedDiagram",
    "Skip",
    "Trace",
    "TraceSet",
    "TraceSetOverflowError",
    "UnknownLifelineError",
    "Verdict",
    "WeakSeq",
    "canonicalize",
    "concat_sets",
    "conform",
    "count_traces",
    "denote",
    "dump_diagram",
    "filter_trace",
    "generate_fragment",
    "generate_fragments",
    "interleave_sets",
    "interleave_traces",
    "kleene_bounded",
    "message_alphabet",
    "oracle_interleave",
    "oracle_weak",
    "parse",
    "parse_trace_log",
    "refines",
    "render_fragment",
    "render_trace",
    "rendered_traces",
    "shares_lifeline",
    "theorem1_diff",
    "theorem1_sides",
    "validate",
    "weak",
    "weak_over_set",
]
