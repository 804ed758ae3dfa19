"""Flat ``key=value`` configuration files.

One assignment per line; blank lines and ``#`` comments are ignored. The
caller names each key it accepts with its converter; any other key, a key
given twice or a value the converter refuses is an ``InputError``.
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


def items(text: str) -> list[str]:
    """A comma-separated list, each item stripped, empty items dropped."""
    return [item.strip() for item in text.split(",") if item.strip()]


def load_config(path: str | Path, kinds: Mapping[str, Callable[[str], object]]) -> dict:
    """Values of the file's keys, each converted by ``kinds[key]``."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    out: dict = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in kinds:
            known = ", ".join(kinds)
            raise InputError(f"{path}:{line_no}: unknown config key {key!r} (known: {known})")
        if key in out:
            raise InputError(f"{path}:{line_no}: config key {key!r} given twice")
        try:
            out[key] = kinds[key](value)
        except ValueError:
            raise InputError(
                f"{path}:{line_no}: config key {key!r}: cannot parse {value!r}"
            ) from None
    return out
