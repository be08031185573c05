"""Reproducible string-set generators for simulation studies.

Two kinds of corpora: fully random strings, and strings with known
subsequences planted at random disjoint positions so the maximal/longest
common subsequence structure is known by construction. Both are pure
functions of their seed; per-string streams are derived so generation
order (or parallelism) cannot change the output.
"""

from __future__ import annotations

import json
import string as _string
from dataclasses import dataclass
from pathlib import Path
from random import Random

from ._validation import check_count
from .randomized import derive_run_seed

_BASE62 = _string.ascii_uppercase + _string.ascii_lowercase + _string.digits


def alphabet(size: int) -> str:
    """Deterministic alphabet of ``size`` distinct characters.

    Letters and digits first, then consecutive code points from U+00C0
    for anything larger (not all letters: size 86 adds U+00D7 ``×``), up
    to the last one before the surrogates at U+D800: 55,166 in all.
    """
    check_count(size, "size")
    if size <= len(_BASE62):
        return _BASE62[:size]
    # Lone surrogates cannot be written as UTF-8.
    most = len(_BASE62) + 0xD800 - 0xC0
    if size > most:
        raise ValueError(f"size must be <= {most}, got {size}")
    return _BASE62 + "".join(chr(0xC0 + i) for i in range(size - len(_BASE62)))


def random_strings(n_strings: int, length: int, alphabet_size: int, seed: int = 0) -> list[str]:
    """``n_strings`` strings of ``length`` i.i.d. uniform characters."""
    check_count(n_strings, "n_strings")
    check_count(length, "length", minimum=0)
    chars = alphabet(alphabet_size)
    check_count(seed, "seed", minimum=0)
    out = []
    for i in range(n_strings):
        rng = Random(derive_run_seed(seed, i))
        out.append("".join(rng.choice(chars) for _ in range(length)))
    return out


@dataclass(frozen=True)
class PlantedSpec:
    """Recipe for a corpus with known common subsequences.

    Every generated string contains each planted subsequence, placed at
    random disjoint index sets chosen sequentially in the given order
    (the order matters: later sequences intermingle with earlier ones).
    Remaining slots are filled with uniform characters from the full
    alphabet, which includes the core alphabet, so filler may collide
    with planted characters.
    """

    n_strings: int
    string_length: int
    planted_lengths: tuple[int, ...] = (3, 6, 9, 12)
    planted: tuple[str, ...] | None = None
    core_alphabet_size: int = 15
    full_alphabet_size: int = 30
    seed: int = 0

    def __post_init__(self):
        check_count(self.n_strings, "n_strings")
        check_count(self.string_length, "string_length")
        if self.planted is not None:
            object.__setattr__(self, "planted", tuple(self.planted))
            object.__setattr__(
                self, "planted_lengths", tuple(len(s) for s in self.planted)
            )
        object.__setattr__(self, "planted_lengths", tuple(self.planted_lengths))
        for n in self.planted_lengths:
            check_count(n, "planted length")
        if sum(self.planted_lengths) > self.string_length:
            raise ValueError(
                f"planted lengths sum to {sum(self.planted_lengths)}, "
                f"exceeding string length {self.string_length}"
            )
        if self.core_alphabet_size > self.full_alphabet_size:
            raise ValueError("core alphabet cannot exceed the full alphabet")
        check_count(self.seed, "seed", minimum=0)


def planted_strings(spec: PlantedSpec) -> tuple[list[str], list[str]]:
    """Generate a planted corpus; returns (strings, planted sequences).

    Planted sequences are drawn uniformly from the core alphabet unless
    supplied explicitly on the spec.
    """
    if spec.planted is not None:
        planted = list(spec.planted)
    else:
        rng = Random(derive_run_seed(spec.seed, "planted"))
        core = alphabet(spec.core_alphabet_size)
        planted = [
            "".join(rng.choice(core) for _ in range(n)) for n in spec.planted_lengths
        ]
    full = alphabet(spec.full_alphabet_size)

    out = []
    for i in range(spec.n_strings):
        rng = Random(derive_run_seed(spec.seed, i))
        cells: list[str | None] = [None] * spec.string_length
        free = list(range(spec.string_length))
        for seq in planted:
            slots = sorted(rng.sample(free, len(seq)))
            for pos, c in zip(slots, seq):
                cells[pos] = c
            taken = set(slots)
            free = [p for p in free if p not in taken]
        for pos in free:
            cells[pos] = rng.choice(full)
        out.append("".join(cells))
    return out, planted


def write_corpus(directory: str | Path, strings: list[str], meta: dict) -> None:
    """Write a corpus as newline-delimited UTF-8 plus a JSON sidecar.

    Raises ValueError, before writing anything, when a string holds a
    ``\n`` or ``\r``: reading the file back would split it.
    """
    for i, s in enumerate(strings):
        if "\n" in s or "\r" in s:
            raise ValueError(f"string #{i} ({s!r}) holds a line break")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "strings.txt").write_text(
        "".join(s + "\n" for s in strings), encoding="utf-8"
    )
    (directory / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_corpus(directory: str | Path) -> tuple[list[str], dict]:
    """Read back a corpus written by :func:`write_corpus`."""
    directory = Path(directory)
    strings = read_string_file(directory / "strings.txt")
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    return strings, meta


def read_string_file(path: str | Path) -> list[str]:
    """Newline-delimited UTF-8 strings, one per line.

    A trailing newline is optional; blank lines are empty strings (legal
    input). An empty file holds no strings. A leading byte-order mark,
    as some editors write, is dropped.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    if text == "":
        return []
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")
