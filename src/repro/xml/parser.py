"""From-scratch XML tokenizer and document parser.

Implements the subset of XML 1.0 the experiments need, with no third-party
or stdlib-XML dependencies (the parser *is* one of the paper's assumed
substrates):

* elements with attributes (single- or double-quoted), self-closing tags;
* character data with the five predefined entities plus decimal and
  hexadecimal character references (which must name an XML 1.0
  ``Char``: ``#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
  [#x10000-#x10FFFF]``);
* CDATA sections, comments, processing instructions;
* an XML declaration and a (non-validating, skipped) DOCTYPE, whose
  quoted literals may hold ``>``, ``[`` and ``]``.

The tokenizer is one left-to-right scan driven by compiled regular
expressions: a single match consumes a whole start tag (name, every
attribute and the optional ``/``), one an end tag, and character data
runs up to the next ``<``.  Comments, CDATA sections, processing
instructions and the DOCTYPE are rare and keep small dedicated helpers.
The lexical rules are exact and shared by every path:

* whitespace inside tags is exactly ``" \\t\\r\\n"``;
* a name starts with a character for which ``str.isalpha()`` holds, or
  with ``_`` or ``:``, and continues with ``str.isalnum()`` characters
  or ``_:.-`` (the regex class ``[\\w:.-]`` is exactly that set; the
  start rule is checked on the matched name's first character);
* attributes need not be separated by whitespace after a closing quote,
  duplicates are rejected, and values are entity-decoded.

A tag the regex rejects is re-read piece by piece only to locate the
error, so every :class:`~repro.errors.XMLSyntaxError` carries the same
message, offset, line and column as a character-by-character reading.
:func:`parse` feeds the tokens to the tree builder in
:mod:`repro.xml.model`.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, Optional

from repro.errors import XMLSyntaxError
from repro.xml.tokens import Comment, EndTag, Instruction, StartTag, Text

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRAS = "_:"

_WS = r"[ \t\r\n]*"
#: a maximal name: the lookahead keeps a name from backtracking into a
#: shorter one (``<abc="1">`` must not read as ``<ab c="1">``)
_NAME = r"[\w:][\w:.\-]*(?![\w:.\-])"
_ATTRIBUTE_BODY = rf"{_WS}({_NAME}){_WS}={_WS}(?:\"([^\"]*)\"|'([^']*)')"

_NAME_RE = re.compile(_NAME)
_WS_RE = re.compile(_WS)
#: one attribute: (key, double-quoted value, single-quoted value)
_ATTRIBUTE = re.compile(_ATTRIBUTE_BODY)
#: a whole start tag: (name, attribute run, "/" or "")
_START_TAG = re.compile(
    rf"<({_NAME})((?:{_WS}{_NAME}{_WS}={_WS}(?:\"[^\"]*\"|'[^']*'))*)"
    rf"{_WS}(/?)>")
_END_TAG = re.compile(rf"</({_NAME}){_WS}>")


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRAS


def _error(text: str, position: int, message: str) -> XMLSyntaxError:
    """An error at ``position`` with its 1-based line and column."""
    consumed = text[:position]
    line = consumed.count("\n") + 1
    column = position - consumed.rfind("\n")
    return XMLSyntaxError(message, position=position, line=line,
                          column=column)


def _read_name(text: str, position: int) -> str:
    match = _NAME_RE.match(text, position)
    if match is None or not _is_name_start(text[position]):
        raise _error(text, position, "expected a name")
    return match.group()


def _skip_whitespace(text: str, position: int) -> int:
    return _WS_RE.match(text, position).end()


def _is_xml_char(code: int) -> bool:
    """XML 1.0 ``Char`` production."""
    return (0x20 <= code <= 0xD7FF or code in (0x9, 0xA, 0xD)
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF)


def decode_entities(raw: str, text: Optional[str] = None,
                    position: int = 0) -> str:
    """Expand ``&name;``, ``&#dd;`` and ``&#xhh;`` references in ``raw``.

    Errors are positioned at ``position`` of ``text`` when the caller
    passes the document ``text`` ``raw`` was cut from, unpositioned
    otherwise.
    """
    if "&" not in raw:
        return raw
    pieces: list[str] = []
    index = 0
    while index < len(raw):
        amp = raw.find("&", index)
        if amp < 0:
            pieces.append(raw[index:])
            break
        pieces.append(raw[index:amp])
        semi = raw.find(";", amp + 1)
        if semi < 0:
            raise _entity_error("unterminated entity reference", text,
                                position)
        pieces.append(_decode_entity(raw[amp + 1:semi], text, position))
        index = semi + 1
    return "".join(pieces)


def _entity_error(message: str, text: Optional[str],
                  position: int) -> XMLSyntaxError:
    if text is None:
        return XMLSyntaxError(message)
    return _error(text, position, message)


def _decode_entity(entity: str, text: Optional[str], position: int) -> str:
    if entity in _PREDEFINED_ENTITIES:
        return _PREDEFINED_ENTITIES[entity]
    code = -1
    try:
        if entity.startswith("#x") or entity.startswith("#X"):
            code = int(entity[2:], 16)
        elif entity.startswith("#"):
            code = int(entity[1:])
    except ValueError:
        pass
    if 0 <= code <= 0x10FFFF:
        if not _is_xml_char(code):
            raise _entity_error(
                f"character reference &{entity}; is not an XML "
                f"character", text, position)
        return chr(code)
    raise _entity_error(f"unknown entity &{entity};", text, position)


def tokenize(text: str) -> Iterator[StartTag | EndTag | Text | Comment |
                                    Instruction]:
    """Scan ``text`` into the paper's begin/end/text token list.

    Self-closing elements emit a ``StartTag`` immediately followed by the
    matching ``EndTag`` — the element still occupies two label slots, as
    the L-Tree labeling requires.
    """
    start_tag = _START_TAG.match
    end_tag = _END_TAG.match
    find = text.find
    length = len(text)
    position = 0
    while position < length:
        if text[position] != "<":
            stop = find("<", position)
            if stop < 0:
                stop = length
            raw = text[position:stop]
            position = stop
            yield Text(decode_entities(raw, text, stop) if "&" in raw
                       else raw)
            continue
        match = start_tag(text, position)
        if match is not None:
            name = match.group(1)
            if not (name[0].isalpha() or name[0] in _NAME_START_EXTRAS):
                raise _error(text, position + 1, "expected a name")
            # the attribute run is decoded in place, never copied out
            start, stop = match.span(2)
            attributes = _attributes(text, start, stop, set()) \
                if stop > start else ()
            position = match.end()
            yield StartTag(name, attributes)
            if match.group(3):
                yield EndTag(name)
            continue
        match = end_tag(text, position)
        if match is not None:
            name = match.group(1)
            if not (name[0].isalpha() or name[0] in _NAME_START_EXTRAS):
                raise _error(text, position + 2, "expected a name")
            position = match.end()
            yield EndTag(name)
            continue
        if text.startswith("<!--", position):
            token, position = _scan_comment(text, position)
        elif text.startswith("<![CDATA[", position):
            token, position = _scan_cdata(text, position)
        elif text.startswith("<!DOCTYPE", position):
            token, position = None, _skip_doctype(text, position)
        elif text.startswith("<?", position):
            token, position = _scan_instruction(text, position)
        elif text.startswith("</", position):
            raise _end_tag_error(text, position)
        else:
            raise _start_tag_error(text, position)
        if token is not None:
            yield token


def _attributes(text: str, start: int, stop: int, seen: set[str]
                ) -> tuple[tuple[str, str], ...]:
    """Decode the attributes of ``text[start:stop]`` (well-formed by
    construction), applying the name, duplicate and entity checks in
    document order."""
    attributes = []
    for attribute in _ATTRIBUTE.finditer(text, start, stop):
        key, double, single = attribute.groups()
        _check_key(text, attribute.start(1), key, seen)
        raw = double if double is not None else single
        attributes.append((key, decode_entities(raw, text, attribute.end())
                           if "&" in raw else raw))
    return tuple(attributes)


def _check_key(text: str, position: int, key: str, seen: set[str]) -> None:
    if not _is_name_start(key[0]):
        raise _error(text, position, "expected a name")
    if key in seen:
        raise _error(text, position + len(key),
                     f"duplicate attribute {key!r}")
    seen.add(key)


def _start_tag_error(text: str, position: int) -> XMLSyntaxError:
    """Locate the first error of a start tag :data:`_START_TAG` rejected.

    Re-reads the tag the way a character-by-character scan would:
    every well-formed attribute before the fault still gets its name,
    duplicate and entity checks, so the reported error is the first one
    in document order.
    """
    position += 1
    name = _read_name(text, position)
    position += len(name)
    seen: set[str] = set()
    while True:
        attribute = _ATTRIBUTE.match(text, position)
        if attribute is None:
            break
        _attributes(text, position, attribute.end(), seen)
        position = attribute.end()
    # the next attribute is malformed (a closing ">" or "/>" here would
    # have let the whole-tag match succeed)
    position = _skip_whitespace(text, position)
    if position >= len(text):
        return _error(text, position, f"unterminated start tag <{name}")
    key = _read_name(text, position)
    _check_key(text, position, key, seen)
    position = _skip_whitespace(text, position + len(key))
    if not text.startswith("=", position):
        return _error(text, position, f"attribute {key!r} lacks '='")
    position = _skip_whitespace(text, position + 1)
    if position >= len(text):
        # the opening quote is missing at end of input: the value runs
        # past it
        return _error(text, position + 1,
                      f"unterminated value for {key!r}")
    if text[position] not in "'\"":
        return _error(text, position,
                      f"attribute {key!r} value is not quoted")
    return _error(text, position + 1, f"unterminated value for {key!r}")


def _end_tag_error(text: str, position: int) -> XMLSyntaxError:
    """Locate the error of an end tag :data:`_END_TAG` rejected."""
    position += len("</")
    name = _read_name(text, position)
    position = _skip_whitespace(text, position + len(name))
    return _error(text, position, f"malformed end tag </{name}")


def _scan_comment(text: str, position: int) -> tuple[Comment, int]:
    position += len("<!--")
    end = text.find("-->", position)
    if end < 0:
        raise _error(text, position, "unterminated comment")
    return Comment(text[position:end]), end + len("-->")


def _scan_cdata(text: str, position: int) -> tuple[Text, int]:
    position += len("<![CDATA[")
    end = text.find("]]>", position)
    if end < 0:
        raise _error(text, position, "unterminated CDATA section")
    return Text(text[position:end]), end + len("]]>")


def _skip_doctype(text: str, position: int) -> int:
    """Skip a DOCTYPE, balancing an optional internal subset.

    Quoted literals (system and public identifiers, entity values) are
    skipped whole, as are comments and processing instructions inside
    the internal subset, so a ``>``, ``[`` or ``]`` inside them — or an
    apostrophe in a subset comment — neither ends the DOCTYPE nor
    unbalances it.
    """
    position += len("<!DOCTYPE")
    depth = 0
    length = len(text)
    while position < length:
        char = text[position]
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == ">" and depth == 0:
            return position + 1
        elif char in "'\"":
            position = text.find(char, position + 1)
            if position < 0:
                break
        elif depth > 0 and text.startswith("<!--", position):
            position = text.find("-->", position + 4) + 2
            if position < 2:
                break
        elif depth > 0 and text.startswith("<?", position):
            position = text.find("?>", position + 2) + 1
            if position < 1:
                break
        position += 1
    raise _error(text, length, "unterminated DOCTYPE")


def _scan_instruction(text: str, position: int
                      ) -> tuple[Optional[Instruction], int]:
    position += len("<?")
    target = _read_name(text, position)
    position += len(target)
    end = text.find("?>", position)
    if end < 0:
        raise _error(text, position, "unterminated processing instruction")
    content = text[position:end].strip()
    if target.lower() == "xml":
        # XML declaration: consumed, not part of the document
        return None, end + len("?>")
    return Instruction(target, content), end + len("?>")


def parse(text: str, order: Optional[list[tuple[str, Any]]] = None):
    """Parse ``text`` into an :class:`repro.xml.model.XMLDocument`.

    ``order``, when given, receives the root element's document-list
    ``(kind, node)`` pairs as the tree is built (see
    :func:`repro.xml.model.build_document`).
    """
    from repro.xml.model import build_document
    return build_document(tokenize(text), order)
