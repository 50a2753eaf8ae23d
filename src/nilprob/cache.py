"""Append-only results cache for exact probability computations.

The cache is one JSON-lines file keyed by content hashes, so entries stay
valid exactly as long as the multiplication table, subgroup, shifts and k
match.  Stale entries from older schema versions are ignored on load; the
file is only ever appended to, which keeps it trivially auditable.

A ``ResultCache`` opens one append handle at its first put and keeps it
until ``close()`` (or the end of a ``with`` block).  Each entry is one
line, written and flushed by itself, so caches on the same directory
interleave whole lines.  A line whose kind's fields do not parse, such as
one torn by a crash, is skipped on load, so its value is computed again.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .exact import fraction_text, np_sup, parse_fraction, require_shift_budget
from .groups import GroupTable
from .structure import SubgroupRef

SCHEMA_VERSION = 2
CACHE_FILENAME = "nilprob-cache.jsonl"
ENV_CACHE_DIR = "NILPROB_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nilprob"


def _key(kind: str, table_hash: str, elements: Sequence[int], extra: str) -> str:
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(b"|")
    h.update(table_hash.encode())
    h.update(b"|")
    h.update(",".join(map(str, elements)).encode())
    h.update(b"|")
    h.update(extra.encode())
    return h.hexdigest()


def np_key(table_hash: str, elements: Sequence[int], shifts: Sequence[int]) -> str:
    """The key of np(H; shifts) for the subgroup ``elements`` of a table."""
    return _key("np", table_hash, elements, ",".join(map(str, shifts)))


def sup_key(table_hash: str, elements: Sequence[int], k: int) -> str:
    """The key of the supremum of np(H; shifts) over (k+1)-tuples of shifts."""
    return _key("sup", table_hash, elements, str(k))


def _int(x) -> int:
    if type(x) is not int:
        raise ValueError(f"not an integer: {x!r}")
    return x


#: Each kind of entry's fields, read back at load as the value its ``get_*`` returns;
#: a reader raises ValueError, KeyError or TypeError on a malformed entry.
_READERS = {
    "np": lambda e: (parse_fraction(e["value"]), _int(e["counted"]), _int(e["total"])),
    "sup": lambda e: (parse_fraction(e["value"]), tuple(_int(x) for x in e["witness"])),
}


class ResultCache:
    """Load-once, append-on-write cache of np values and suprema; close it when done."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.path = self.directory / CACHE_FILENAME
        self._entries: dict[str, tuple] = {}  # key -> (kind, value)
        self._fh: Optional[TextIO] = None
        self._load()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the append handle; a later put opens a new one."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    entry = json.loads(line)
                    if entry["schema"] == SCHEMA_VERSION and isinstance(entry["key"], str):
                        kind = entry["kind"]
                        self._entries[entry["key"]] = (kind, _READERS[kind](entry))
                except (ValueError, KeyError, TypeError, RecursionError):
                    continue  # a torn or malformed line never poisons the cache

    def _put(self, kind: str, key: str, result, **fields) -> None:
        """Store ``result`` under ``key`` and append its entry: schema, key, kind and ``fields``.

        A key already stored keeps its result, and nothing is written.
        """
        if key in self._entries:
            return
        self._entries[key] = (kind, result)
        if self._fh is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        entry = {"schema": SCHEMA_VERSION, "key": key, "kind": kind, **fields}
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    def _get(self, kind: str, key: str):
        found = self._entries.get(key)
        return found[1] if found is not None and found[0] == kind else None

    # -- np(H; shifts) ---------------------------------------------------

    def get_np(self, key: str) -> Optional[tuple[Fraction, int, int]]:
        """The entry under an :func:`np_key`, or None."""
        return self._get("np", key)

    def put_np(self, key: str, value: Fraction, counted: int, total: int) -> None:
        self._put("np", key, (value, counted, total), value=fraction_text(value),
                  counted=counted, total=total)

    # -- np_sup ------------------------------------------------------------

    def sup(
        self, g: GroupTable, h: SubgroupRef, k: int, budget: int
    ) -> tuple[Fraction, tuple[int, ...]]:
        """``np_sup(g, h, k, budget)``, cached; the key is hashed once.

        The shift budget is checked before the lookup, so a cached value
        is refused exactly when computing it would be.
        """
        require_shift_budget(g, h, k, budget)
        key = sup_key(g.table_hash, h.elements, k)
        value = self.get_sup(key)
        if value is None:
            value = np_sup(g, h, k, budget)
            self.put_sup(key, value)
        return value

    def get_sup(self, key: str) -> Optional[tuple[Fraction, tuple[int, ...]]]:
        """The entry under a :func:`sup_key`, or None."""
        return self._get("sup", key)

    def put_sup(self, key: str, value: tuple[Fraction, tuple[int, ...]]) -> None:
        sup, witness = value
        self._put("sup", key, (sup, tuple(witness)), value=fraction_text(sup),
                  witness=list(witness))

    def __len__(self) -> int:
        return len(self._entries)
