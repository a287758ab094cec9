"""The node-table certificate, walked one level of blocks at a time.

The dice of a depth-k family lie in the sibling blocks of
:mod:`metadice.sweep`, and two dice first differ at the level whose
sibling blocks hold them. The same block layout carries a proof that
reads no pair, and it decides which pairs are checked at all. A pair that
first differs at level p >= 2 under node N splits its nine comparisons
6 + 3, provided both dice carry their child blocks' digits at levels
1..p; deeper digits cannot change it.
When the three digits of the pair's level-1 block are distinct, they settle
the six cross-rank comparisons, three wins each way, and N's table settles
the three same-rank ones. At level 1 the level-1 table settles all nine.
``certify`` walks the levels once, in O(3^k·k) steps when every table
holds. At each level it recovers every node's table from its child blocks,
finds each die that leaves its block and each node whose pairs no table
vouches for, and compares those pairs there and then. Verification so
takes one of two paths:

- ``certificate``: no die strays and every table holds, so every pair
  passes and none is read. A validated stack is proven from its depth
  without reading a die: its tables hold by validation and ``generate``
  puts every die on its blocks' digits, so
  :func:`metadice.loshu.verify_stack` builds this report with no dice
  and no call here;
- ``localized``: only the pairs with a stray die at or above their first
  differing level, or under a node no table vouches for, are compared. A
  bad node's pairs are the forward scans, as in ``sweep_pairs``, of the
  dice in its first two child blocks; a stray die scans forward and back,
  over the sibling blocks that :func:`metadice.sweep.siblings` names with
  their expected wins, and :func:`metadice.sweep.scan` records each pair
  it finds failing before the stray die as the record of that earlier,
  lower die.

Both find the failures :func:`metadice.sweep.sweep_pairs` finds, which
checks every pair, each tagged with its level, as one record each.

:func:`metadice.hierarchy.verify_family` imports this module when it
runs, so only the commands that check a family's dice, ``verify`` and
``graph --full-graph`` of a family, compile it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import Iterator, Sequence

from metadice.loshu import die_label, table_fault, trits
from metadice.sweep import Faces, Failure, scan, scan_later, siblings


def certify(
    rank_faces: Sequence[Faces], depth: int
) -> tuple[str | None, list[Failure], int]:
    """Prove from its node tables that every pair duels 5/9 the cycle's way,
    or check every pair the tables cannot vouch for.

    At level p (1-based) each block of 3^(depth-p+1) dice is a node, and
    digit p of its three child blocks' faces, rank by rank, is the node's
    table. A child block's reference digit at a rank is the one most of its
    dice carry; when no digit is carried by more dice than every other, the
    earliest in die order wins. The family is proven when every die carries
    its blocks' reference digits and every table has nine distinct digits
    and is leading at level 1 and rank-wise deeper. Then a pair first
    differing at level 1 duels by the leading property, and one first
    differing at level p >= 2 wins 3 of its 6 cross-rank comparisons on
    its level-1 digits and 2 or 1 of its 3 same-rank ones on the level-p
    table. The walk reads each digit once, takes majorities only in blocks
    whose dice disagree, and checks each distinct table of a level once,
    as its one-character digit strings, with
    :func:`metadice.loshu.table_fault`, the check a stack's tables pass.

    The certificate is sufficient, not necessary: a family it cannot prove
    may still pass. So at each level the walk compares the pairs first
    differing there that the tables leave open: those with a die that
    strays at that level or above, and those under a node whose table
    fails or whose level-1 block repeats a digit across its ranks.

    Returns (reason, failures, pairs compared). The reason is the first
    fault in walk order, level by level and a stray die before a failed
    table, or None when the family is proven. The failures are
    :func:`sweep_pairs`'s records of the compared pairs, in (i, j) order.
    """
    if depth < 1 or len(rank_faces) != 3 ** depth:
        raise ValueError(f"a depth-{depth} certificate needs exactly 3^{depth} dice")
    # columns[r][p]: digit p of the rank-r face of every die, in die order
    columns = [tuple(zip(*(faces[r] for faces in rank_faces))) for r in range(3)]
    reason, faces = None, None
    failures: list[Failure] = []
    scanned = 0
    strayed: set[int] = set()  # the dice that stray at this level or above
    for p in range(depth):
        size = 3 ** (depth - p - 1)
        digits = [column[p] for column in columns]
        refs, strays = [], set()
        for col in digits:
            heads = col[::size]
            if any(col[offset::size] != heads for offset in range(1, size)):
                heads = _block_majorities(col, size, strays)
            refs.append(heads)
        strayed |= strays
        if strays and reason is None:
            reason = _disagreement(digits, refs, min(strays), size, p, depth)
        rows = list(zip(*refs))  # (rank 0, 1, 2) digits of each child block
        verdicts: dict[tuple, str | None] = {}
        bad = set()
        if p == 0:
            # a level-1 block whose digits repeat across ranks cannot settle
            # the cross-rank comparisons of the pairs beneath it
            crowded = [b for b, row in enumerate(rows) if len(set(row)) < 3]
        else:
            width = 3 ** (p - 1)  # the nodes of level p under one such block
            for b in crowded:
                bad.update(range(b * width, (b + 1) * width))
        for node, table in enumerate(zip(rows[0::3], rows[1::3], rows[2::3])):
            if table not in verdicts:
                verdicts[table] = table_fault(table, p + 1)
            if verdicts[table] is not None:
                bad.add(node)
                if reason is None:
                    reason = (
                        f"level {p + 1}, prefix ({trits(node, p)}), table"
                        f" {';'.join(map(','.join, table))}:"
                        f" {verdicts[table]}"
                    )
        if (strayed or bad) and faces is None:
            faces = [(int(f0), int(f1), int(f2)) for f0, f1, f2 in rank_faces]
        span = 3 * size
        suspects = sorted(i for i in strayed if i // span not in bad)
        members = (i for n in bad for i in range(n * span, n * span + 2 * size))
        for i in chain(suspects, members):
            scanned += scan_later(faces, i, size, p + 1, failures)
        for i in suspects:
            # the sibling blocks before i, whose dice are cut at i: a later
            # block's range is empty. The other suspects are skipped, as
            # their own forward scans compared them with i
            for lo, expected in siblings(i, size):
                for first, stop in _gaps(lo, min(lo + size, i), suspects):
                    scan(faces, i, first, stop, expected, p + 1, failures)
                    scanned += stop - first
    failures.sort()
    return reason, failures, scanned


def _block_majorities(
    col: tuple[str, ...], size: int, strays: set[int]
) -> tuple[str, ...]:
    """Each child block's reference digit in one rank's column, adding the
    dice that do not carry it to ``strays``."""
    refs = []
    for lo in range(0, len(col), size):
        block = col[lo : lo + size]
        ref = block[0]
        if block.count(ref) != size:
            # most_common keeps first-seen order among equal counts
            ref = Counter(block).most_common(1)[0][0]
            strays.update(i for i, d in enumerate(block, lo) if d != ref)
        refs.append(ref)
    return tuple(refs)


def _disagreement(
    digits: list[tuple[str, ...]],
    refs: list[tuple[str, ...]],
    i: int,
    size: int,
    p: int,
    depth: int,
) -> str:
    """Name die i, which strays from its child block at level p, next to
    the first die of the block that carries the reference digit."""
    block = i // size
    rank = next(r for r, col in enumerate(digits) if col[i] != refs[r][block])
    col, ref = digits[rank], refs[rank][block]
    carrier = col.index(ref, block * size, (block + 1) * size)
    return (
        f"level {p + 1}, prefix ({trits(i // (3 * size), p)}):"
        f" {die_label(i, depth)} has digit {col[i]} at rank {rank}"
        f" where {die_label(carrier, depth)} has {ref}"
    )


def _gaps(lo: int, hi: int, skip: list[int]) -> Iterator[tuple[int, int]]:
    """The runs of [lo, hi) between the indices of the sorted ``skip``."""
    for k in range(bisect_left(skip, lo), len(skip)):
        if skip[k] >= hi:
            break
        if skip[k] > lo:
            yield lo, skip[k]
        lo = skip[k] + 1
    if lo < hi:
        yield lo, hi
