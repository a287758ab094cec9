"""Self-similar nontransitive dice built from the Lo Shu magic square.

Any two distinct dice of a family duel at exactly 5/9, in the direction of
their first differing trit. Each name is imported from its module, listed
here from the bottom layer up; a module imports only lower layers as it
loads, so a command compiles only the layers it runs:

- ``sweep``: the failure records, their one writer and reader: ``pack``,
  ``unpack``, ``failure_rows``, ``outcome_counts``, ``level_counts``, the
  ``sweep_pairs`` oracle, the ``VerificationReport`` with its
  ``LevelSummary`` rows, and ``joined``;
- ``loshu``, the stack layer: ``SQUARE``, ``DigitAssignment``,
  ``LevelRule``, ``AssignmentStack``, ``parse_stack``, ``preset_stack``,
  the validators, ``walk_dice``, ``verify_stack``, ``family_header``, and
  the value core: ``Value``, ``is_int``, ``is_digit_string``, ``NINTHS``,
  ``Face``, ``LengthMismatchError``;
- ``dice``, the exact duel engine: ``Die``, ``parse_die``, ``duel``,
  ``DuelResult``, ``round_robin``;
- ``hierarchy``, the family layer: ``DiceFamily``, ``generate``,
  ``verify_family``, ``PairFailure``, ``monte_carlo``, the family
  documents;
- ``certificate``: ``certify``, the node-table proof and localized scan;
- ``export``: the dominance graph's ``graph_rows``, drawn from a stack's
  depth alone or from a family's dice, and the normalized points;
- ``cli``: ``main`` and one streamed writer per command and format.
"""

__version__ = "0.1.0"
