"""Trace semantics for asynchronous sequence diagrams.

Parse a textual diagram DSL, evaluate diagrams to finite trace sets under
bounded loop unrolling, and compare diagrams with each other (refinement)
or with recorded system traces (conformance).

Each module loads on first use of one of its public names (PEP 562), so a
program loads only what it runs: the CLI's ``parse`` and ``check`` never
load the evaluator.
"""

__version__ = "0.1.0"

# Each module -> the public names it defines.
_NAMES = {
    "ast": (
        "Alt", "Basic", "ConformanceMode", "Consider", "Create", "DEFAULT_LOOP_BOUND",
        "DEFAULT_MAX_TRACES", "Destroy", "Fragment", "Ignore", "Loc", "Loop", "Message",
        "Namespace", "Par", "Skip", "Trace", "TraceSet", "WeakSeq", "message_alphabet",
        "render_trace", "shares_lifeline",
    ),
    "conformance": ("Verdict", "conform", "parse_trace_log", "refines"),
    "errors": (
        "DestroyAbsentError", "DiagramError", "DuplicateCreateError", "DuplicateLifelineError",
        "EmptyBlockError", "LogParseError", "ParseError", "TraceSetOverflowError",
        "UnknownLifelineError",
    ),
    "parser": (
        "ParsedDiagram", "canonicalize", "dump_diagram", "parse", "render_fragment", "validate",
    ),
    "semantics": (
        "Denotation", "EvalLimits", "concat_sets", "count_traces", "denote", "filter_trace",
        "interleave_sets", "interleave_traces", "kleene_bounded", "rendered_traces",
        "theorem1_diff", "theorem1_sides", "weak", "weak_over_set",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = frozenset(_NAMES) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """A public name, from the module that defines it, or a submodule; each
    is imported on first use and then bound here."""
    from importlib import import_module

    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
