"""The one input path: every file the toolkit reads yields values, or a
ValidationError (exit code 2) naming its path and the offending line or key.

``open_text`` alone turns a byte that is not UTF-8 into an error naming its
line; ``blamed`` puts the path in front; JSON documents are objects whose
fields are checked, not coerced. Standard library only, so ``report`` and
``qsar-predict`` start without numpy.
"""

import contextlib
import json
import sys

from .errors import ParseError, ValidationError


@contextlib.contextmanager
def open_text(path):
    """Open ``path`` as UTF-8 text with line endings kept (``newline=""``).

    A byte that does not decode, wherever the block reads it, is a
    ParseError naming its line as ``str.splitlines`` counts lines.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as error:
        # The error's offset counts from the start of the decoded chunk, not the file.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode(error.encoding)
        except UnicodeDecodeError as exc:
            line = len((data[:exc.start].decode(exc.encoding) + "x").splitlines())
            raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid {exc.encoding}",
                             line=line) from None
        raise ParseError(str(error)) from None


@contextlib.contextmanager
def blamed(path):
    """Prefix ``path`` to the message of a ValidationError raised in the block."""
    try:
        yield
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_json_object(path, what):
    """The JSON object in ``path``; ``what`` names the document in errors."""
    with blamed(path), open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"{what} must be a JSON object")
    return doc


def check_keys(section, known, where):
    """Require ``section`` to be an object holding only ``known`` keys."""
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def integer(value, minimum, name):
    """``value`` as an int >= ``minimum``; an integral float counts."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def number(value, name):
    """``value`` as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def string(value, name):
    """``value``, which must be a str."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def array(value, name):
    """``value``, which must be a JSON array (a list)."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value
