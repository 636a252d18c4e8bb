"""Read a JSON file whose top-level object holds one long array, in bounded memory.

read_object decodes the file a block of text at a time, and hands the elements
of one array member on a chunk at a time, so what a read holds follows the
block and chunk sizes, not the file's. Values are decoded by the json module's
own scanner; the result, or the error message, is the one json.loads of the
whole text gives.
"""
from __future__ import annotations

import codecs
import io
import json
import re
from pathlib import Path
from typing import IO, Any, Callable, NoReturn, Optional, Union

from .errors import FormatError

# JSON whitespace, as the json module skips it
_SPACE = re.compile(r"[ \t\n\r]*")
# what follows an array element: a comma and space (group 1), or the array's end (group 2)
_AFTER_ELEMENT = re.compile(r"[ \t\n\r]*(?:(,)[ \t\n\r]*|(\]))?")
# The json scanner reads at most this many characters past a token, except to
# the end of an unterminated string; an error further back than this from the
# end of the text read so far cannot come from where a block was cut.
_LOOKAHEAD = 16


def read_object(
    path: Union[str, Path], key: str, elements: Callable[[], Any], block_chars: int, chunk_rows: int
) -> tuple[object, Any]:
    """The file's top-level value, as json.loads reads the text Path.read_text gives.

    When it is an object, each member named key whose value is an array gets
    a fresh elements() and its elements go to that one's add(), chunk_rows at
    a time, while the object holds an empty list in their place. As in
    json.loads, the last of duplicate keys wins, and so does its elements(),
    which is returned beside the value (None when that member is no array).
    Text that is not valid JSON, or not in the file's encoding, raises
    FormatError with json.loads' message, whatever add() was given before.
    """
    with Path(path).open() as fh:  # the encoding and newlines of Path.read_text
        return _JsonText(fh.buffer, fh.encoding, str(path), block_chars, chunk_rows).document(key, elements)


class _More(Exception):
    """The text read so far ends before a step can be decided."""


class _JsonText:
    """A JSON file's text, decoded a block at a time as Path.read_text decodes
    it (the file's encoding, universal newlines), and walked in steps.

    A step (text, at) -> (value, end) reads the text from at. It raises _More
    when the text ends before the step can be decided; it is then run again on
    more text: the next block, or twice the kept text for a value longer than
    a block. A decoded value counts only when text follows it or the file has
    ended, so a number cut at a block edge is never taken. Text before the
    current step is dropped. Errors carry json.loads' message and line, column
    and character position in the whole text; a byte that does not decode
    comes first, as Path.read_text decodes the whole file before parsing.
    """

    def __init__(self, raw: IO[bytes], encoding: str, name: str, block_chars: int, chunk_rows: int):
        self.raw, self.name = raw, name
        self.block_chars, self.chunk_rows = block_chars, chunk_rows
        self.decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder(encoding)(), translate=True)
        decoder = json.JSONDecoder()
        self.scan, self.scan_once = decoder.raw_decode, decoder.scan_once
        self.text, self.at = "", 0
        self.base = 0  # characters of the file before text
        self.lines = 0  # line ends before text
        self.line_end = -1  # the file position of the last of them, or -1
        self.bytes_read = 0
        self.ended = False

    def document(self, key: str, elements: Callable[[], Any]) -> tuple[object, Any]:
        if self._step(self._start) != "{":
            return self._step(self._only), None
        self.at += 1
        data: dict = {}
        sink = None
        closed = self._opened("}")
        while not closed:
            name = self._step(self._key)
            if name == key and self.text.startswith("[", self.at):
                self.at += 1
                data[name], sink = [], self._elements(elements())
                closed = self._step(self._after)
            else:
                data[name], closed = self._step(self._member)
                sink = None if name == key else sink
        self._step(self._end)
        return data, sink

    def _elements(self, sink: Any) -> Any:
        """The array elements after its "[", added to sink a chunk at a time.

        Where it can, a step decodes many elements at once: the text up to a
        "}," about the rest of a chunk ahead, as one array. That succeeds only
        when the text is whole elements, since a cut inside an element leaves
        a string or a bracket open. Otherwise a step decodes one element, and
        after a failed try the rest of the chunk goes one element at a time.
        """
        chunk: list = []
        closed = self._opened("]")
        first, done, single = self.base + self.at, 0, 0
        while not closed:
            text, at = self.text, self.at
            rows = self.chunk_rows - len(chunk)
            try:
                end = 0
                if not single:
                    width = (self.base + at - first) // done if done else 64  # characters per element so far
                    end = text.rfind("},", at, at + width * rows) + 1
                run = self._run(text, at, end) if end else None
                if run is None:
                    single = rows if end else max(single - 1, 0)
                    element, end = self._value(text, at)
                    run = [element]
                after = _AFTER_ELEMENT.match(text, end)
                if after.end() == len(text) and not self.ended:
                    raise _More
                if after.lastindex is None:
                    self._fail("Expecting ',' delimiter", after.end())
            except _More:
                self._more()
                continue
            self.at, closed = after.end(), after.lastindex == 2
            chunk += run
            done += len(run)
            while len(chunk) >= self.chunk_rows:
                sink.add(chunk[: self.chunk_rows])
                del chunk[: self.chunk_rows]
        if chunk:
            sink.add(chunk)
        return sink

    def _run(self, text: str, at: int, end: int) -> Optional[list]:
        """The elements text[at:end] holds when it is whole elements, else None."""
        array = f"[{text[at:end]}]"
        try:
            run, stop = self.scan_once(array, 0)
        except (StopIteration, ValueError, RecursionError):
            return None
        return run if stop == len(array) else None

    def _step(self, run):
        """run(text, at)'s value; its end is the new position."""
        while True:
            try:
                value, self.at = run(self.text, self.at)
                return value
            except _More:
                self._more()

    def _opened(self, close: str) -> bool:
        """Whether the container just opened closes at once, its close read if so."""
        closed = self._step(self._peek) == close
        self.at += closed
        return closed

    def _more(self) -> None:
        kept = self.text[self.at :]
        line_ends = self.text.count("\n", 0, self.at)
        if line_ends:
            self.lines += line_ends
            self.line_end = self.base + self.text.rfind("\n", 0, self.at)
        self.base += self.at
        self.text, self.at = kept + self._decode(self.raw.read(max(self.block_chars, len(kept)))), 0

    def _decode(self, data: bytes) -> str:
        pending = len(self.decoder.getstate()[0])  # bytes of a character cut at the last block's end
        try:
            text = self.decoder.decode(data, final=not data)
        except UnicodeDecodeError as exc:
            at = self.bytes_read - pending
            raise FormatError(f"{self.name}: not valid JSON: {_decode_error(exc, at)}") from None
        self.bytes_read += len(data)
        self.ended = not data
        return text

    def _fail(self, msg: str, pos: int) -> NoReturn:
        """Raise json.loads' error msg at pos of the text, or _More while more text could change it."""
        if not self.ended and (pos > len(self.text) - _LOOKAHEAD or msg.startswith("Unterminated string")):
            raise _More
        last = self.text.rfind("\n", 0, pos)
        line = self.lines + self.text.count("\n", 0, pos) + 1
        column = pos - last if last >= 0 else self.base + pos - self.line_end
        message = f"{self.name}: not valid JSON: {msg}: line {line} column {column} (char {self.base + pos})"
        while not self.ended:
            self._decode(self.raw.read(self.block_chars))
        raise FormatError(message)

    def _skip(self, text: str, at: int) -> int:
        """The position of the first character from at that is not whitespace."""
        at = _SPACE.match(text, at).end()
        if at == len(text) and not self.ended:
            raise _More
        return at

    def _value(self, text: str, at: int) -> tuple[object, int]:
        try:
            return self.scan(text, at)
        except json.JSONDecodeError as exc:
            self._fail(exc.msg, exc.pos)

    def _start(self, text: str, at: int) -> tuple[str, int]:
        if not text and not self.ended:
            raise _More
        if text.startswith("\ufeff"):
            self._fail("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        return self._peek(text, at)

    def _peek(self, text: str, at: int) -> tuple[str, int]:
        """The next character that is not whitespace ("" at the end), not read."""
        at = self._skip(text, at)
        return text[at : at + 1], at

    def _only(self, text: str, at: int) -> tuple[object, int]:
        """A top-level value that is not an object, and the end of the text."""
        value, at = self._value(text, at)
        return value, self._end(text, at)[1]

    def _end(self, text: str, at: int) -> tuple[None, int]:
        at = self._skip(text, at)
        if at < len(text):
            self._fail("Extra data", at)
        return None, at

    def _key(self, text: str, at: int) -> tuple[str, int]:
        if not text.startswith('"', at):
            self._fail("Expecting property name enclosed in double quotes", at)
        key, at = self._value(text, at)
        at = self._skip(text, at)
        if not text.startswith(":", at):
            self._fail("Expecting ':' delimiter", at)
        return key, self._skip(text, at + 1)

    def _member(self, text: str, at: int) -> tuple[tuple[object, bool], int]:
        """A member's value, and whether the object closes after it."""
        value, at = self._value(text, at)
        closed, at = self._after(text, at)
        return (value, closed), at

    def _after(self, text: str, at: int) -> tuple[bool, int]:
        """Whether the object closes after a member that ends at at."""
        at = self._skip(text, at)
        if text.startswith("}", at):
            return True, at + 1
        if not text.startswith(",", at):
            self._fail("Expecting ',' delimiter", at)
        return False, self._skip(text, at + 1)


def _decode_error(exc: UnicodeDecodeError, offset: int) -> str:
    """str(exc) for input that had offset bytes before exc.object."""
    start, end = exc.start + offset, exc.end + offset
    if exc.end == exc.start + 1:
        return f"'{exc.encoding}' codec can't decode byte 0x{exc.object[exc.start]:02x} in position {start}: {exc.reason}"
    return f"'{exc.encoding}' codec can't decode bytes in position {start}-{end - 1}: {exc.reason}"
