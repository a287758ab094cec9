"""Self-similar nontransitive dice built from the Lo Shu magic square.

The library constructs families of 3^k six-sided dice addressed by ternary
words, where the rock-paper-scissors dominance cycle recurs at every
nesting level: any two distinct dice duel at exactly 5/9 in the direction
given by their first differing trit. Everything is exact rational
arithmetic; ``verify_family`` proves a family's structure from its node
tables and checks the pairs they cannot vouch for (see ``metadice.sweep``),
and ``verify_stack`` proves a validated stack from its depth alone.

The record classes are ``NamedTuple``s or ``dice.Value`` subclasses with
an explicit ``__init__``, not the standard library's record decorator:
every CLI command is a fresh process, and importing that module (which
loads ``inspect``) and decorating classes with it was a large share of
start-up. ``tests/test_records.py`` checks that ``import metadice.cli``
loads neither module.
"""

from metadice.dice import (
    Die,
    DieParseError,
    DuelResult,
    Face,
    LengthMismatchError,
    TeamOverlapError,
    duel,
    face_text,
    parse_die,
    round_robin,
)
from metadice.export import (
    DominanceGraph,
    NormalizedPoint,
    build_graph,
    graph_to_json,
    node_name,
    normalized_values,
    points_to_csv,
    to_dot,
)
from metadice.hierarchy import (
    DiceFamily,
    FamilyFormatError,
    LevelSummary,
    PairFailure,
    VerificationReport,
    Word,
    die_number,
    face_value,
    family_from_json,
    family_from_rows,
    family_to_json,
    generate,
    monte_carlo,
    predicted_winner,
    verify_family,
    verify_stack,
    word_of,
)
from metadice.loshu import (
    RESIDUE_ROWS,
    SORTED_ROWS,
    SQUARE,
    SWAPPED_ROWS,
    AssignmentStack,
    DigitAssignment,
    LevelRule,
    StackValidationError,
    ValidationResult,
    format_stack,
    parse_assignment,
    parse_stack,
    preset_stack,
    rotate,
    validate_leading,
    validate_rankwise,
)
from metadice.sweep import available_backends

__version__ = "0.1.0"

__all__ = [
    "AssignmentStack",
    "DiceFamily",
    "Die",
    "DieParseError",
    "DigitAssignment",
    "DominanceGraph",
    "DuelResult",
    "Face",
    "FamilyFormatError",
    "LengthMismatchError",
    "LevelRule",
    "LevelSummary",
    "NormalizedPoint",
    "PairFailure",
    "RESIDUE_ROWS",
    "SORTED_ROWS",
    "SQUARE",
    "SWAPPED_ROWS",
    "StackValidationError",
    "TeamOverlapError",
    "ValidationResult",
    "VerificationReport",
    "Word",
    "available_backends",
    "build_graph",
    "die_number",
    "duel",
    "face_text",
    "face_value",
    "family_from_json",
    "family_from_rows",
    "family_to_json",
    "format_stack",
    "generate",
    "graph_to_json",
    "monte_carlo",
    "node_name",
    "normalized_values",
    "parse_assignment",
    "parse_die",
    "parse_stack",
    "points_to_csv",
    "predicted_winner",
    "preset_stack",
    "rotate",
    "round_robin",
    "to_dot",
    "validate_leading",
    "validate_rankwise",
    "verify_family",
    "verify_stack",
    "word_of",
]
