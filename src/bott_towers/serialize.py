"""Canonical JSON interchange for sequences, fans, and result documents.

Emitted documents are diff-stable: keys sorted, two-space indent, one
trailing newline, lists in documented orders, ray indices 0-based.
Integers of magnitude at least 2^53 are written as decimal strings so that
double-precision JSON consumers cannot silently round them, and such
strings are accepted wherever an integer is expected.

Documents are written in chunks (:func:`encode_chunks`).  A value of the
top-level object may be an iterator instead of a list: the stream slot.  It
yields the canonical texts of the list's items, which the encoder joins in
batches as they come, so a document of 2^k rows never exists as a tree or as
one string.  The item encoders below (:func:`cone_texts`,
:func:`chart_texts`, :func:`number_texts`, :func:`term_texts`) write those
texts; this module is the only one that knows indents, separators and
quoting.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain, combinations, islice, product
from json.encoder import encode_basestring_ascii

from .errors import ValidationError
from .sequences import IntegralSequence

PRECISION_LIMIT = 2 ** 53
_ITEM = "    "  # indent of the items of a top-level list
_BATCH = 64  # streamed items joined into one chunk


def _small_ints(items) -> bool:
    """Whether there are items and all are plain ints below the limit."""
    return ({*map(type, items)} == {int}
            and -PRECISION_LIMIT < min(items) and max(items) < PRECISION_LIMIT)


def _int_text(value: int) -> str:
    """The text of an int: quoted from magnitude 2^53 on."""
    text = int.__repr__(value)
    return f'"{text}"' if abs(value) >= PRECISION_LIMIT else text


def _frame(indent: str):
    """(open, separator, close) of a non-empty list whose brackets sit at
    `indent`."""
    inner = "\n" + indent + "  "
    return "[" + inner, "," + inner, "\n" + indent + "]"


def _object_frame(keys, indent: str):
    """The texts before each value of an object with these sorted keys at
    `indent`, then its closing text."""
    inner = "\n" + indent + "  "
    return ([("{" if i == 0 else ",") + inner + encode_basestring_ascii(key)
             + ": " for i, key in enumerate(keys)]
            + ["\n" + indent + "}"])


def _encode(doc, indent: str) -> str:
    """The canonical text of one value nested at `indent`."""
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = indent + "  "
        if _small_ints(doc):
            body = map(str, doc)
        elif ({*map(type, doc)} <= {list, tuple}
              and _small_ints(list(chain.from_iterable(doc)))):
            # rows of small ints (matrices, rays): one join per row
            deeper = inner + "  "
            start, sep = "[\n" + deeper, ",\n" + deeper
            end = "\n" + inner + "]"
            body = [start + sep.join(map(str, row)) + end if row else "[]"
                    for row in doc]
        else:
            body = [_encode(item, inner) for item in doc]
        return "[\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = indent + "  "
        body = [encode_basestring_ascii(key) + ": " + _encode(doc[key], inner)
                for key in sorted(doc)]
        return "{\n" + inner + (",\n" + inner).join(body) + "\n" + indent + "}"
    if isinstance(doc, int) and not isinstance(doc, bool):
        return _int_text(doc)
    return json.dumps(doc)


def encode_chunks(doc):
    """The canonical text of a document, as an iterator of chunks.

    A value of the top-level object may be an iterator of item texts (the
    stream slot of the module docstring).  It is consumed as the chunks are
    taken, `_BATCH` items to a chunk; a document without one is one chunk.
    """
    if not (isinstance(doc, dict)
            and any(isinstance(value, Iterator) for value in doc.values())):
        yield _encode(doc, "") + "\n"
        return
    keys = sorted(doc)
    *heads, end = _object_frame(keys, "")
    text = ""
    for key, head in zip(keys, heads):
        value = doc[key]
        if isinstance(value, Iterator):
            yield text + head
            opener, sep, close = _frame("  ")
            text = opener
            while batch := list(islice(value, _BATCH)):
                yield text + sep.join(batch)
                text = sep
            text = "[]" if text is opener else close
        else:
            text += head + _encode(value, "  ")
    yield text + end + "\n"


def encode_canonical(doc) -> str:
    """The canonical text of a document (sorted keys, indent 2, newline).

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2)``
    with every integer of magnitude at least 2^53 first turned into its
    decimal string; object keys must be strings.  Lists of small integers,
    and lists of such rows, are written with one join per list instead of
    going through the pure-Python encoder that ``json`` uses whenever an
    indent is set.  It is the join of :func:`encode_chunks`.
    """
    return "".join(encode_chunks(doc))


def cone_texts(k: int):
    """Item texts of the cones of a stage-k tower fan, codes in binary order.

    The cone of the code w lists the ray indices 2i + w_i; each index text
    is made once, with the brackets folded into the first and last.
    """
    opener, sep, close = _frame(_ITEM)
    choices = [[str(2 * i), str(2 * i + 1)] for i in range(k)]
    choices[0] = [opener + text for text in choices[0]]
    choices[-1] = [text + close for text in choices[-1]]
    return map(sep.join, product(*choices))


def chart_texts(rows):
    """Item texts of the `charts` list from `charts._prefix_rows` events.

    Each event (j, w_j, u_j) encodes one row, once per prefix; a chart is
    written when its code is complete (j equals the row length).
    """
    head, middle, tail = _object_frame(("code", "monomials"), _ITEM)
    opener, sep, close = _frame(_ITEM + "  ")
    row_indent = _ITEM + "    "
    code, texts = [], []
    for j, bit, row in rows:
        del code[j - 1:], texts[j - 1:]
        code.append("1" if bit else "0")
        texts.append(_encode(row, row_indent))
        if j == len(row):
            yield (head + opener + sep.join(code) + close + middle
                   + opener + sep.join(texts) + close + tail)


def number_texts(table):
    """Item texts of the `numbers` list from `sequences._bott_table`: the
    nonempty index sets by size, then lex.  Masks and index texts come from
    side-by-side combinations, as in :func:`term_texts`."""
    head, middle, tail = _object_frame(("set", "value"), _ITEM)
    start, comma, end = _frame(_ITEM + "  ")
    head, middle = head + start, end + middle
    n = len(table).bit_length() - 1
    texts = [str(i) for i in range(1, n + 1)]
    bits = [1 << i for i in range(n)]
    for size in range(1, n + 1):
        for mask, body in zip(map(sum, combinations(bits, size)),
                              map(comma.join, combinations(texts, size))):
            yield head + body + middle + _int_text(table[mask]) + tail


def term_texts(table):
    """Item texts of the `total_chern` list from a table of 2^k coefficients
    indexed by mask (bit j-1 is x_j): graded, then lex by indices, with
    zeros skipped.  Masks and index texts come from side-by-side
    combinations, the empty one giving the degree-0 term."""
    opener, sep, close = _frame(_ITEM)
    start, comma, end = _frame(_ITEM + "  ")
    k = len(table).bit_length() - 1
    texts = [str(j) for j in range(1, k + 1)]
    bits = [1 << j for j in range(k)]
    for size in range(k + 1):
        for mask, body in zip(map(sum, combinations(bits, size)),
                              map(comma.join, combinations(texts, size))):
            if table[mask]:
                yield (opener + (start + body + end if size else "[]") + sep
                       + _int_text(table[mask]) + close)


def parse_int(value, what: str) -> int:
    """An integer from a JSON number or its decimal-string form.

    Floats are refused even when integral: the interchange format is exact.
    A string must be ASCII digits after an optional "-", as the encoder
    writes them.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{what}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if value.isascii() and value.removeprefix("-").isdigit():
            try:
                return int(value, 10)
            except ValueError:  # more digits than int() converts
                pass
        raise ValidationError(f"{what}: not a decimal integer: {value!r}")
    raise ValidationError(
        f"{what}: expected an integer, got {type(value).__name__}")


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(
            f"{what}: expected a JSON array, got {type(value).__name__}")
    return value


def _require_keys(doc, allowed, required, what: str):
    if not isinstance(doc, dict):
        raise ValidationError(f"{what}: expected a JSON object")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValidationError(f"{what}: missing key(s) {missing}")
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ValidationError(f"{what}: unknown key(s) {unknown}")


def sequence_to_doc(c: IntegralSequence) -> dict:
    """{"n": height, "entries": sorted nonzero [i, j, value] triples}."""
    return {"n": c.n, "entries": [list(triple) for triple in c.entries()]}


def sequence_from_doc(doc) -> IntegralSequence:
    _require_keys(doc, {"n", "entries"}, {"n"}, "sequence document")
    n = parse_int(doc["n"], "sequence height n")
    entries = {}
    for triple in _require_list(doc.get("entries", []), "sequence entries"):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise ValidationError(
                f"sequence entry must be an [i, j, value] triple, got {triple!r}")
        i = parse_int(triple[0], "entry index i")
        j = parse_int(triple[1], "entry index j")
        if (i, j) in entries:
            raise ValidationError(f"duplicate sequence entry ({i}, {j})")
        entries[(i, j)] = parse_int(triple[2], f"entry c({i},{j})")
    return IntegralSequence(n, entries)


def fan_to_doc(fan) -> dict:
    """{"dim": d, "rays": [[...]], "cones": [[0-based indices]]}."""
    from .fans import _as_general

    gf = _as_general(fan)
    return {"dim": gf.dim,
            "rays": [list(ray) for ray in gf.rays],
            "cones": [list(cone) for cone in gf.cones]}


def fan_from_doc(doc):
    """The GeneralFan of a fan document."""
    from .fans import GeneralFan

    _require_keys(doc, {"dim", "rays", "cones"}, {"dim", "rays", "cones"},
                  "fan document")
    dim = parse_int(doc["dim"], "fan dimension")
    rays = [[parse_int(x, "ray coordinate") for x in _require_list(ray, "ray")]
            for ray in _require_list(doc["rays"], "fan rays")]
    cones = [[parse_int(r, "cone ray index")
              for r in _require_list(cone, "cone")]
             for cone in _require_list(doc["cones"], "fan cones")]
    return GeneralFan(dim, rays, cones)


def classification_to_doc(result) -> dict:
    """Success: sequence/order/matrix/ray_map; rejection: reject/witness."""
    if result.ok:
        return {"sequence": sequence_to_doc(result.sequence),
                "order": list(result.order),
                "matrix": [list(row) for row in result.matrix],
                "ray_map": list(result.ray_map)}
    return {"reject": result.reject, "witness": result.witness}
