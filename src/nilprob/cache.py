"""Append-only results cache for exact probability computations.

The cache is one JSON-lines file keyed by content hashes, so entries stay
valid exactly as long as the multiplication table, subgroup, shifts and k
match.  Stale entries from older schema versions are ignored on load; the
file is only ever appended to, which keeps it trivially auditable.

A ``ResultCache`` opens one append handle at its first put and keeps it
until ``close()`` (or the end of a ``with`` block).  Each entry is one
line, written and flushed by itself, so caches on the same directory
interleave whole lines, and a line torn by a crash is skipped on load.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, TextIO

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


def _parse_fraction(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


class ResultCache:
    """Load-once, append-on-write cache of np values and suprema; close it when done."""

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.path = self.directory / CACHE_FILENAME
        self._entries: dict[str, dict] = {}
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
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn write never poisons the cache
                if entry.get("schema") != SCHEMA_VERSION:
                    continue
                key = entry.get("key")
                if isinstance(key, str):
                    self._entries[key] = entry

    def _append(self, entry: dict) -> None:
        if self._fh is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    # -- np(H; shifts) ---------------------------------------------------

    def get_np(self, key: str) -> Optional[tuple[Fraction, int, int]]:
        """The entry under an :func:`np_key`, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        return _parse_fraction(entry["value"]), entry["counted"], entry["total"]

    def put_np(self, key: str, value: Fraction, counted: int, total: int) -> None:
        if key in self._entries:
            return
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": "np",
            "value": f"{value.numerator}/{value.denominator}",
            "counted": counted,
            "total": total,
        }
        self._entries[key] = entry
        self._append(entry)

    # -- np_sup ------------------------------------------------------------

    def sup(
        self,
        table_hash: str,
        elements: Sequence[int],
        k: int,
        compute: Callable[[], tuple[Fraction, tuple[int, ...]]],
    ) -> tuple[Fraction, tuple[int, ...]]:
        """The cached supremum, or ``compute()`` stored; the key is hashed once."""
        key = sup_key(table_hash, elements, k)
        value = self.get_sup(key)
        if value is None:
            value = compute()
            self.put_sup(key, value)
        return value

    def get_sup(self, key: str) -> Optional[tuple[Fraction, tuple[int, ...]]]:
        """The entry under a :func:`sup_key`, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        return _parse_fraction(entry["value"]), tuple(entry["witness"])

    def put_sup(self, key: str, value: tuple[Fraction, tuple[int, ...]]) -> None:
        if key in self._entries:
            return
        sup, witness = value
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": "sup",
            "value": f"{sup.numerator}/{sup.denominator}",
            "witness": list(witness),
        }
        self._entries[key] = entry
        self._append(entry)

    def __len__(self) -> int:
        return len(self._entries)
