"""Line-oriented ``key = value`` files used for configs, priors and sidecars.

Grammar (one entry per line):

    # comment                 <- ignored, as are blank lines
    some.key = value          <- key: dotted lowercase identifiers
                                 value: everything after '=', stripped

Parse errors carry ``path:line:`` anchors so a bad study config points at the
offending line.
"""

from __future__ import annotations

import os

from .errors import ConfigError


def parse_kv_text(text: str, source: str = "<string>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_kv_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"{path}: file not found")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_text(fh.read(), source=path)


def write_kv_file(path: str, entries: dict[str, object], header: str | None = None) -> None:
    lines = []
    if header:
        lines.append(f"# {header}")
    for key, value in entries.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_KINDS = {float: "a number", int: "an integer"}


def get_value(kv: dict[str, str], key: str, source: str, parse=float, default=None):
    """`parse(kv[key])` for parse in (float, int, str); `default` when the key
    is absent, which makes the key required when it is None."""
    if key not in kv:
        if default is None:
            raise ConfigError(f"{source}: missing required key {key!r}")
        return default
    try:
        return parse(kv[key])
    except ValueError:
        raise ConfigError(f"{source}: key {key!r} is not {_KINDS[parse]}: {kv[key]!r}") from None
