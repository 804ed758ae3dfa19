"""Flat ``key=value`` configuration files.

One assignment per line; blank lines and ``#`` comments are ignored. The
caller names each key it accepts with its converter; any other key, a key
given twice or a value the converter refuses is an ``InputError``. A
relative path in a value of one of the ``PATH_KINDS`` is taken from the
config file's directory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Mapping

from .errors import InputError


def switch(text: str) -> bool:
    """An on/off value: exactly ``true`` or ``false``."""
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def path(text: str, base: Path | None = None) -> str:
    """A file path. A relative one read from a config file in directory
    ``base`` is taken from there; one given as a flag stays as given."""
    return text if base is None or not text else str(base / text)


def paths(text: str, base: Path | None = None) -> list[str]:
    """A comma-separated list of ``path`` values, each item stripped, empty items dropped."""
    return [path(item.strip(), base) for item in text.split(",") if item.strip()]


def year_paths(text: str, base: Path | None = None) -> list[str]:
    """A comma-separated list of ``YEAR=PATH`` items, each PATH part a ``path`` value."""
    pairs = (item.partition("=") for item in paths(text))
    return [year + sep + path(rest, base) if sep else year for year, sep, rest in pairs]


PATH_KINDS = (path, paths, year_paths)
# the kinds of repeatable flags: a flag given again adds an item
LIST_KINDS = (paths, year_paths)


def load_config(source: str | Path, kinds: Mapping[str, Callable[[str], object]]) -> dict:
    """Values of the file's keys, each converted by ``kinds[key]``."""
    source = Path(source)
    if not source.is_file():
        raise InputError(f"config file not found: {source}")
    out: dict = {}
    for line_no, line in enumerate(source.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in kinds:
            known = ", ".join(kinds)
            raise InputError(f"{source}:{line_no}: unknown config key {key!r} (known: {known})")
        if key in out:
            raise InputError(f"{source}:{line_no}: config key {key!r} given twice")
        kind = kinds[key]
        try:
            out[key] = kind(value, source.parent) if kind in PATH_KINDS else kind(value)
        except ValueError:
            raise InputError(
                f"{source}:{line_no}: config key {key!r}: cannot parse {value!r}"
            ) from None
    return out
