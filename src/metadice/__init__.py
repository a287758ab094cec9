"""Self-similar nontransitive dice built from the Lo Shu magic square.

Any two distinct dice of a family duel at exactly 5/9, in the direction of
their first differing trit. Each name is imported from its module:

- ``dice``: ``Die``, ``parse_die``, ``duel``, ``DuelResult``, ``round_robin``;
- ``loshu``: ``SQUARE``, ``DigitAssignment``, ``LevelRule``,
  ``AssignmentStack``, ``parse_stack``, ``preset_stack``, the validators;
- ``hierarchy``: ``DiceFamily``, ``walk_dice``, ``generate``,
  ``verify_family``, ``verify_stack``, ``VerificationReport``, the family
  documents;
- ``sweep``: the failure records, their one writer and reader: ``pack``,
  ``unpack``, ``failure_rows``, ``outcome_counts``, ``level_counts``, and
  the ``sweep_pairs`` oracle;
- ``certificate``: ``certify``, the node-table proof and localized scan;
- ``export``: the dominance graph's ``graph_rows``, drawn from a stack's
  depth alone or from a family's dice, and the normalized points;
- ``cli``: ``main`` and one streamed writer per command and format.
"""

__version__ = "0.1.0"
