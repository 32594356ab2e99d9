"""The YAML subset that scenario files are written in, read strictly.

:func:`read` gives the one document of a scenario file as dicts, lists,
strings, numbers, booleans and ``None``.  It reads block mappings and
sequences by indentation, flow collections, plain and quoted scalars on one
line, ``#`` comments, anchors, aliases and ``<<`` merge keys; plain scalars
resolve as PyYAML's ``SafeLoader`` resolves them, with YAML 1.2's exponent
floats.  Any other form is the error ``<name>: invalid YAML: <problem>`` with
``in "<name>", line L, column C`` (README, "Scenario files", lists the rules).
"""

from __future__ import annotations

import math
import re

from .config import MAX_BLOCK_DEPTH, MAX_FLOW_DEPTH, _join
from .geometry import ConfigError

_NOT_PLAIN = " \t\n\0-?:,[]{}#&*!|>'\"%@`"  # cannot start a plain scalar ("-x" and ":x" can)
_UNSUPPORTED = {"!": "a tag", "|": "a block scalar", ">": "a block scalar",
                "?": "a complex key ('? ')", "%": "a directive"}
_PLAIN = {  # a plain scalar's characters, in block (False) and flow (True) context
    False: re.compile(r"(?:[^ \t\n\0:#]|:(?=[^ \t\n\0])|#| +(?!#))*"),
    True: re.compile(r"(?:[^ \t\n\0:#,?\[\]{}]|:(?=[^ \t\n\0,\[\]{}])|#| +(?![#,?\[\]{}]))*"),
}
_QUOTED = {"'": re.compile(r"'((?:[^'\n]|'')*)'"), '"': re.compile(r'"((?:[^"\\\n]|\\[^\n])*)"')}
_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|U([0-9a-fA-F]{8})|(.))")
_ESCAPES = dict(zip("0abt\tnvfre \"\\/N_LP", "\0\a\b\t\t\n\v\f\r\x1b \"\\/\x85\xa0\u2028\u2029"))
_SPACES = re.compile(r" *")
_FLOW_SPACE = re.compile(r"(?:[ \n]|#[^\n]*)*")  # between flow tokens
_NAME = re.compile(r"[0-9A-Za-z_-]+")
_UNPRINTABLE = re.compile(  # control characters, surrogates, U+FFFE/F and the
    # line separators YAML 1.1 has beyond \n; a class this small compiles fast
    "[\x00-\x08\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]"
)
_NULLS = {"~", "null", "Null", "NULL"}
_BOOLS = {form: word in ("yes", "true", "on")
          for word in ("yes", "no", "true", "false", "on", "off")
          for form in (word, word.title(), word.upper())}
_INT = re.compile(r"[-+]?(?:0b[0-1_]+|0[0-7_]+|(?:0|[1-9][0-9_]*)|0x[0-9a-fA-F_]+"
                  r"|[1-9][0-9_]*(?::[0-5]?[0-9])+)")
_FLOAT = re.compile(
    r"[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
    r"|[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)"
    # YAML 1.2's exponent floats, such as 1e-3 and 1E5, which YAML 1.1 reads as strings
    r"|[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+"
)
_MERGE = object()  # the key under which a mapping holds its plain "<<" value until it merges


class _Invalid(Exception):
    """Text outside the subset: the problem, and the index it is at (or None)."""


def read(raw: bytes, name: str):
    """The value of the one document in ``raw``, ``None`` if it is empty;
    error messages cite ``name``, the file's path."""
    codec = {b"\xff\xfe": "utf-16-le", b"\xfe\xff": "utf-16-be"}.get(raw[:2], "utf-8")
    try:
        text, bad = raw.decode(codec), None
    except UnicodeDecodeError as exc:
        text, bad = raw[: exc.start].decode(codec, "replace"), exc
    reader = _Reader(text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n"))
    s, end = reader.s, len(reader.s) - 2
    try:
        if bad is not None:
            byte = f"#x{raw[bad.start]:02x}"
            raise _Invalid(f"'{codec}' codec can't decode byte {byte}: {bad.reason}", end)
        char = _UNPRINTABLE.search(s, 0, end)
        if char:
            raise _Invalid(f"found character #x{ord(char.group()):04x}, which the subset does not allow",
                           char.start())
        i, n = reader.next_line(0, True)
        if n < 0:
            return None
        value, i, n = reader.node(i, n, "", 0, None)
        if n >= 0:
            raise _Invalid("expected the end of the document", i)
        return value
    except _Invalid as exc:
        problem, i = exc.args
        where = ""
        if i is not None:
            line, column = s.count("\n", 0, i) + 1, i - s.rfind("\n", 0, i)
            where = f'\n  in "{name}", line {line}, column {column}'
        raise ConfigError(f"{name}: invalid YAML: {problem}{where}") from None


class _Reader:
    """One document's text, and the anchors seen while reading it."""

    def __init__(self, text: str):
        self.s = text + "\n\0"  # "\0" marks the end
        self.anchors: dict = {}
        self.open: set = set()  # ids of the anchored mappings not yet read to their end

    def next_line(self, i: int, first: bool = False) -> tuple[int, int]:
        """From a line's start, the first character of the next line that is
        not blank or a comment, and its indentation (-1 at the end)."""
        s = self.s
        while True:
            j = _SPACES.match(s, i).end()
            if s[j] == "\0":
                return j, -1
            if s[j] == "\t":
                raise _Invalid("found a tab in the indentation", j)
            if s[j] in "#\n":
                i = s.index("\n", j) + 1
            elif j == i and s.startswith(("---", "..."), j) and s[j + 3] in " \n\0":
                if not first or s[j] == ".":
                    raise _Invalid("found a second document or a document end marker", j)
                return self.next_line(self.end_line(j + 3))
            else:
                return j, j - i

    def end_line(self, i: int) -> int:
        """Past the spaces, comment and line break that end a line."""
        s = self.s
        i = _SPACES.match(s, i).end()
        if s[i] == "#":
            i = s.index("\n", i)
        if s[i] not in "\n\0":
            raise _Invalid(f"expected the end of the line, found {s[i]!r}", i)
        return i + (s[i] == "\n")

    def anchor(self, i: int, skip: re.Pattern) -> tuple[str | None, int]:
        """The name of the anchor ``&name`` at ``i``, if there is one, and the
        index past it and the ``skip`` after it."""
        if self.s[i] != "&":
            return None, i
        m = _NAME.match(self.s, i + 1)
        if m is None or m.group() in self.anchors:
            raise _Invalid("expected a new anchor name", i)
        return m.group(), skip.match(self.s, m.end()).end()

    def anchored(self, anchor: str | None, value):
        if anchor is not None:
            self.anchors[anchor] = value
            if isinstance(value, dict):
                self.open.add(id(value))
        return value

    def put(self, own: dict, first: dict, key, value, at: int, path: str) -> None:
        """Add ``key: value``, the key at ``at``, to a mapping being read."""
        if key in first:
            one, two = (self.s.count("\n", 0, i) + 1 for i in (first[key], at))
            raise ConfigError(f"{_join(path, key)}: given twice, on lines {one} and {two}")
        first[key] = at
        own[_MERGE if key == "<<" and self.s[at] == "<" else key] = value

    def merged(self, result: dict, own: dict, first: dict) -> dict:
        """``result`` filled with what a ``<<`` key merges (the first mapping of
        a list winning), then with the mapping's own keys over it."""
        if _MERGE in own:
            merge = own.pop(_MERGE)
            for m in reversed(merge if isinstance(merge, list) else [merge]):
                if not isinstance(m, dict) or id(m) in self.open:
                    problem = "'<<' takes a mapping or a list of them, none enclosing it"
                    raise _Invalid(problem, first["<<"])
                result.update(m)
        result.update(own)
        self.open.discard(id(result))
        return result

    def scalar(self, i: int, flow: bool):
        """The scalar at ``i`` and the index past it."""
        s, c = self.s, self.s[i]
        if c in "'\"":
            m = _QUOTED[c].match(s, i)
            if m is None:
                raise _Invalid("found a quoted scalar that does not end on its line", i)
            if c == "'":
                return m.group(1).replace("''", "'"), m.end()
            try:
                return _ESCAPE.sub(
                    lambda e: _ESCAPES[e[4]] if e[4] else chr(int(e[1] or e[2] or e[3], 16)),
                    m.group(1),
                ), m.end()
            except KeyError as exc:
                raise _Invalid(f"found the unknown escape \\{exc.args[0]}", i)
        if not _starts_plain(s, i, flow):
            if c in _UNSUPPORTED:
                raise _Invalid(f"{_UNSUPPORTED[c]} is not supported", i)
            raise _Invalid("found the end of the file" if c == "\0" else f"found {c!r}", i)
        raw = _PLAIN[flow].match(s, i).group().rstrip(" ")
        try:
            return _resolve(raw), i + len(raw)
        except ValueError:  # 0x_, or more digits than int() reads
            raise _Invalid(f"cannot read {raw!r} as a number", i)

    def flow(self, i: int, path: str, level: int, anchor: str | None = None):
        """The node at ``i`` on one line in block context (``level`` 0) or
        inside ``level`` flow collections, and the index past it."""
        s, c = self.s, self.s[i]
        if anchor is None:
            anchor, i = self.anchor(i, _FLOW_SPACE if level else _SPACES)
            c = s[i]
        if c == "*":
            m = _NAME.match(s, i + 1)
            if m is None or m.group() not in self.anchors:
                raise _Invalid("found an alias to no anchor before it", i)
            return self.anchors[m.group()], m.end()
        if c not in "[{":
            value, i = self.scalar(i, level > 0)
            return self.anchored(anchor, value), i
        if level >= MAX_FLOW_DEPTH:
            raise _Invalid(f"flow collections nested deeper than {MAX_FLOW_DEPTH} levels", i)
        close = "]" if c == "[" else "}"
        result, own, first = self.anchored(anchor, [] if c == "[" else {}), {}, {}
        i = _FLOW_SPACE.match(s, i + 1).end()
        while s[i] != close:
            if c == "[":
                value, i = self.flow(i, f"{path}[{len(result)}]", level + 1)
                result.append(value)
            else:
                key, j = self.scalar(i, True)
                j = _FLOW_SPACE.match(s, j).end()
                if s[j] != ":":
                    raise _Invalid("expected ':' after the key", j)
                j = _FLOW_SPACE.match(s, j + 1).end()
                value, j = (None, j) if s[j] in ",}" else self.flow(j, _join(path, key), level + 1)
                self.put(own, first, key, value, i, path)
                i = j
            i = _FLOW_SPACE.match(s, i).end()
            if s[i] == ",":
                i = _FLOW_SPACE.match(s, i + 1).end()
            elif s[i] != close:
                raise _Invalid(f"expected ',' or '{close}'", i)
        return (result if c == "[" else self.merged(result, own, first)), i + 1

    def node(self, i: int, n: int, path: str, depth: int, anchor: str | None):
        """The block node at ``i``, in column ``n`` and inside ``depth`` block
        collections; then the next line's first character and indentation."""
        s = self.s
        entry = s[i] == "-" and s[i + 1] in " \n\0"
        key = None if entry else self.key(i)
        if not entry and key is None:
            value, i = self.flow(i, path, 0, anchor)
            return (value, *self.next_line(self.end_line(i)))
        if depth >= MAX_BLOCK_DEPTH:
            raise _Invalid("nested too deeply", None)
        if entry:
            items = self.anchored(anchor, [])
            while True:
                value, i, m = self.value(i + 1, n, f"{path}[{len(items)}]", depth + 1, True)
                items.append(value)
                if m != n or s[i] != "-" or s[i + 1] not in " \n\0":
                    return items, i, m
        result, own, first = self.anchored(anchor, {}), {}, {}
        while key is not None:
            value, j, m = self.value(key[1], n, _join(path, key[0]), depth + 1, False)
            self.put(own, first, key[0], value, i, path)
            if m != n:
                return self.merged(result, own, first), j, m
            i, key = j, self.key(j)
        raise _Invalid("expected a key and ': '", i)

    def key(self, i: int):
        """The block mapping key at ``i`` and the index past its ``:``, or None.
        A tab after the ``:`` ends the key too, so the error names the tab."""
        s = self.s
        if s[i] not in "'\"" and not _starts_plain(s, i, False):
            return None
        key, j = self.scalar(i, False)
        j = _SPACES.match(s, j).end()
        return (key, j + 1) if s[j] == ":" and s[j + 1] in " \t\n\0" else None

    def value(self, i: int, n: int, path: str, depth: int, item: bool):
        """The value after the ``:`` of a key or the ``-`` of an ``item`` in
        column ``n``; then the next line's first character and indentation."""
        s = self.s
        i = _SPACES.match(s, i).end()
        anchor, i = self.anchor(i, _SPACES)
        if s[i] in "#\n\0":  # the value is on the lines below, or empty
            j, m = self.next_line(self.end_line(i))
            if m > n or m == n and not item and s[j] == "-" and s[j + 1] in " \n\0":
                value, j, m = self.node(j, m, path, depth, anchor)
            else:
                value = self.anchored(anchor, None)
        elif item and anchor is None:  # compact: "- - 1", "- key: value"
            value, j, m = self.node(i, i - s.rfind("\n", 0, i) - 1, path, depth, None)
        else:
            value, j = self.flow(i, path, 0, anchor)
            j, m = self.next_line(self.end_line(j))
        if m > n:
            raise _Invalid("found a line indented deeper than its collection", j)
        return value, j, m


def _starts_plain(s: str, i: int, flow: bool) -> bool:
    c = s[i]
    if c in "-?:":  # "- ", "? " and ": " are indicators, and in flow "?x" and ":x" too
        return s[i + 1] not in " \t\n\0" and (c == "-" or not flow)
    return c not in _NOT_PLAIN


def _resolve(raw: str):
    """A plain scalar's value, as SafeLoader constructs it."""
    if raw in _NULLS:
        return None
    if raw in _BOOLS:
        return _BOOLS[raw]
    kind = int if _INT.fullmatch(raw) else float if _FLOAT.fullmatch(raw) else None
    if kind is None:
        return raw
    v = raw.lower().replace("_", "")
    sign, v = (-1, v[1:]) if v[0] == "-" else (1, v.lstrip("+"))
    if v in (".inf", ".nan"):
        return sign * math.inf if v == ".inf" else math.nan
    if kind is int and v[:2] in ("0b", "0x"):
        return sign * int(v[2:], 2 if v[1] == "b" else 16)
    if kind is int and v[0] == "0":
        return sign * int(v, 8)
    total, scale = kind(0), 1
    for part in reversed(v.split(":")):  # 1:30 is 90 (base 60)
        total += kind(part) * scale
        scale *= 60
    return sign * total
