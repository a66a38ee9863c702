"""SPMF-style text interop for sequence databases and mined patterns.

`SPMF <https://www.philippe-fournier-viger.com/spmf/>`_ is the de-facto
toolbox for sequential-pattern mining; its text format (items as integers,
``-1`` closes an itemset, ``-2`` closes a sequence) is the lingua franca of
the field.  These functions write a CrowdWeb database and its mined
patterns in that format (``crowdweb export-spmf``), e.g. to cross-check the
miners against SPMF's PrefixSpan.

Items here are atomic, so every itemset holds exactly one item.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Hashable, List, Sequence, TypeVar, Union

from ..sequences import SequenceDatabase
from .base import SequentialPattern, sort_patterns

__all__ = [
    "ItemCodec",
    "write_spmf_database",
    "write_spmf_patterns",
]

Item = TypeVar("Item", bound=Hashable)


class ItemCodec:
    """Stable mapping from items to SPMF integer ids.

    Ids start at 1 (SPMF reserves non-positive integers as separators) and
    are assigned in sorted-repr order, so the same database always produces
    the same encoding.
    """

    def __init__(self, items: Sequence[Item]) -> None:
        ordered = sorted(set(items), key=repr)
        self._to_id: Dict[Item, int] = {item: i + 1 for i, item in enumerate(ordered)}

    @classmethod
    def for_database(cls, db: SequenceDatabase) -> "ItemCodec":
        return cls([item for seq in db for item in seq])

    def encode(self, item: Item) -> int:
        try:
            return self._to_id[item]
        except KeyError:
            raise KeyError(f"item {item!r} not in codec") from None

    def __len__(self) -> int:
        return len(self._to_id)

    def __contains__(self, item: Item) -> bool:
        return item in self._to_id

    def mapping_lines(self) -> List[str]:
        """Human-readable ``id<TAB>repr(item)`` lines (the sidecar format)."""
        return [f"{i}\t{item!r}" for item, i in self._to_id.items()]


def write_spmf_database(
    db: SequenceDatabase, path: Union[str, Path]
) -> ItemCodec:
    """Write a database in SPMF sequence format; returns the codec used.

    A ``<path>.dict`` sidecar records the id→item mapping.
    """
    path = Path(path)
    codec = ItemCodec.for_database(db)
    lines = []
    for seq in db:
        parts: List[str] = []
        for item in seq:
            parts.append(str(codec.encode(item)))
            parts.append("-1")
        parts.append("-2")
        lines.append(" ".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path(str(path) + ".dict").write_text(
        "\n".join(codec.mapping_lines()) + "\n", encoding="utf-8"
    )
    return codec


def write_spmf_patterns(
    patterns: Sequence[SequentialPattern],
    codec: ItemCodec,
    path: Union[str, Path],
) -> None:
    """Write patterns in SPMF output style: ``1 -1 2 -1 #SUP: 5``."""
    path = Path(path)
    lines = []
    for p in sort_patterns(patterns):
        ids = " -1 ".join(str(codec.encode(item)) for item in p.items)
        lines.append(f"{ids} -1 #SUP: {p.count}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
