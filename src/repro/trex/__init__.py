"""T-REX-style baseline: queries compiled to state machines, sequential."""

from repro.trex.automaton import compile_detector, q1_ast_query, q3_ast_query
from repro.trex.engine import TRexEngine, TRexResult

__all__ = [
    "TRexEngine",
    "TRexResult",
    "q1_ast_query",
    "q3_ast_query",
    "compile_detector",
]
