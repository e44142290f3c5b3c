"""Line-oriented ``key = value`` files used for configs, priors and sidecars.

Grammar (one entry per line):

    # comment                 <- ignored, as are blank lines
    some.key = value          <- key: dotted lowercase identifiers
                                 value: everything after '=', stripped

`KVFile` reads configs and priors files alike. Parse errors carry
``path:line:`` anchors, a number must be `finite` (no nan or inf) or an
`integer`, and `check_all_read` rejects every key the reader did not ask
for, so a typo'd key is an error, not a dropped setting. `read_input` is
the one way the package reads a file, these and the CSV inputs alike.

The parsers `finite`, `integer`, `int64` and `binary` read a value, a key's,
a CSV cell's or a flag's. A number is an ASCII sign, ASCII digits with at
most one point, and an exponent, with blanks around it: no digit-group
underscores or non-ASCII digits, which float() and int() would take. A
parser that rejects its text raises ValueError whose message words what the
text is not ("not an integer"), for the caller to anchor.
"""

from __future__ import annotations

import math

from .errors import ConfigError

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _spelled_in_ascii(text: str) -> bool:
    """No non-ASCII character and no underscore in `text`. Beyond an ASCII
    sign, digits, point and exponent with blanks around them, float() and
    int() take only digit-group underscores, non-ASCII digits and blanks,
    which this rules out, and (float) nan and inf, which `finite` rejects."""
    return text.isascii() and "_" not in text


def finite(text: str) -> float:
    """The float `text` spells, blanks around it allowed; ValueError for nan,
    inf, a value that overflows or no decimal number at all."""
    try:
        value = float(text) if _spelled_in_ascii(text) else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def integer(text: str) -> int:
    """The int `text` spells, blanks around it allowed; ValueError otherwise."""
    try:
        if _spelled_in_ascii(text):
            return int(text)
    except ValueError:
        pass
    raise ValueError("not an integer")


def int64(text: str) -> int:
    """`integer` within the range of the int64 arrays that hold the CSV
    integer columns; ValueError otherwise."""
    value = integer(text)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError("not a 64-bit integer")
    return value


def binary(text: str) -> int:
    """0 or 1 from exactly "0" or "1", blanks around it allowed; ValueError otherwise."""
    text = text.strip()
    if text not in ("0", "1"):
        raise ValueError("not 0 or 1")
    return int(text)


def read_input(path: str) -> str:
    """The text of `path` decoded as UTF-8, less one leading byte-order mark
    (spreadsheets write one), its line ends as in the file; ConfigError
    naming the path and the reason when it cannot be opened (a missing file,
    a directory, no permission) or is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot open ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


class KVFile:
    """A parsed `key = value` file, or no entries at all when the path is None.

    Each `get` notes its key; `check_all_read` then rejects every other key
    in the file.
    """

    def __init__(self, path: str | None):
        self.path = path if path is not None else "<flags>"
        self.kv: dict[str, str] = {}
        self.read: set[str] = set()
        if path is None:
            return
        for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in self.kv:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            self.kv[key] = value.strip()

    def get(self, key: str, parse=finite, default=None, flag=None):
        """`flag` when given, else `parse` (one of this module's parsers, or
        str) of the file's value, else `default`; the key is required when
        `default` is None."""
        self.read.add(key)
        if flag is not None:
            return flag
        if key not in self.kv:
            if default is None:
                raise ConfigError(f"{self.path}: missing required key {key!r}")
            return default
        try:
            return parse(self.kv[key])
        except ValueError as exc:
            raise ConfigError(f"{self.path}: key {key!r} is {exc}: {self.kv[key]!r}") from None

    def check_all_read(self) -> None:
        unread = [key for key in self.kv if key not in self.read]
        if unread:
            raise ConfigError(f"{self.path}: unknown key {unread[0]!r}")


def write_kv_file(path: str, entries: dict[str, object], header: str) -> None:
    lines = [f"# {header}"]
    for key, value in entries.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
