"""Canonical JSON interchange for sequences, fans, and result documents.

Emitted documents are diff-stable: keys sorted, two-space indent, one
trailing newline, lists in documented orders, ray indices 0-based.
Integers of magnitude at least 2^53 are written as decimal strings so that
double-precision JSON consumers cannot silently round them, and such
strings are accepted wherever an integer is expected.  Integer texts are
read from a constant table of -1024..1024; any other is made on each
lookup and never stored, and one of more digits than Python converts is
invalid data.

The frames of lists and objects are built once per process: a list's
bracket and separator texts per nesting depth (:func:`_frame`), and an
object's key heads and closing text per sorted key tuple and depth
(:func:`_object_frame`).  Each cache keeps its `_KEPT` (128) most recent
frames, so documents of ever new keys cannot grow it.

Each list shape has one writer, :func:`int_list` or :func:`int_rows`.  The
encoder calls it after a type sweep; a caller that built the list itself
calls it directly, at the list's nesting depth, and puts the :class:`Written`
text it returns in the document, which the encoder copies verbatim.  Four
documents skip the encoder and are written from fixed frames:
:func:`check_text`, :func:`accepted_text`, :func:`bundle_text` (with and
without `xi`; each row's int texts are made once and joined at both depths
the row is written at) and :func:`cohomology_chunks` (with and without
`oracle`; every key before the `total_chern` stream is one text).

Documents are written in chunks (:func:`encode_chunks`).  A value of the
top-level object may be an iterator instead of a list: the stream slot.  It
yields the canonical texts of the list's items, which the encoder joins in
batches as they come, so a document of 2^k rows never exists as a tree or as
one string.  The item encoders below (:func:`cone_texts`,
:func:`chart_texts`, :func:`number_texts`, :func:`term_texts`) write those
texts: the charts in one pass per prefix node, each chart's text grown from
its parent's items, and the last two one index-set size at a time through
C-level maps, with the int writer :func:`int_writer` picks from the table's
largest magnitude.  This module is the only one that knows indents,
separators and quoting; it and `cli` get other modules from :func:`_layer`.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import cache, lru_cache
from itertools import (chain, combinations, compress, islice, product,
                       repeat)
from json.encoder import encode_basestring_ascii
from operator import neg

from .errors import ValidationError
from .sequences import IntegralSequence, _in_range, _plain_rows

PRECISION_LIMIT = 2 ** 53
_BATCH = 64  # streamed items joined into one chunk
_KEPT = 128  # frames kept by each frame cache, the least recent dropped


@cache
def _layer(name: str):
    """The package's module `name`, imported once per process."""
    return __import__(name, globals(), None, ("__name__",), 1)


class _IntTexts(dict):
    """Texts of output integers, those of -1024..1024 stored.  Any other is
    made on each lookup and never stored: quoted from magnitude 2^53 on,
    and invalid data with more digits than Python converts."""

    __slots__ = ()

    def __missing__(self, value: int) -> str:
        try:
            text = int.__repr__(value)
        except ValueError as err:
            raise ValidationError(f"output integer: {err}") from None
        return f'"{text}"' if abs(value) >= PRECISION_LIMIT else text


_int_text = _IntTexts({value: str(value)
                       for value in range(-1024, 1025)}).__getitem__


@lru_cache(maxsize=_KEPT)
def _frame(depth: int):
    """(open, separator, close) of a non-empty list whose brackets sit
    `depth` levels deep."""
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner, "," + inner, "\n" + "  " * depth + "]"


@lru_cache(maxsize=_KEPT)
def _object_frame(keys: tuple, depth: int) -> tuple:
    """The texts before each value of an object with these sorted keys
    `depth` levels deep, then its closing text."""
    inner = "\n" + "  " * (depth + 1)
    return (*[("{" if i == 0 else ",") + inner + encode_basestring_ascii(key)
              + ": " for i, key in enumerate(keys)], "\n" + "  " * depth + "}")


class Written(str):
    """Canonical text from a writer, copied verbatim by the encoder."""

    __slots__ = ()


def _items(texts: list, depth: int) -> str:
    """The list of these item texts as a value nested `depth` levels deep."""
    if not texts:
        return "[]"
    opener, sep, close = _frame(depth)
    return opener + sep.join(texts) + close


def int_list(values, depth: int = 1) -> Written:
    """The text of a list of ints (no bools) nested `depth` levels deep."""
    return Written(_items(list(map(_int_text, values)), depth))


def int_rows(rows, depth: int = 1) -> Written:
    """The text of a list of int lists (no bools) nested `depth` levels
    deep, such as a matrix or a ray list: one join per row."""
    opener, sep, close = _frame(depth + 1)
    return Written(_items([opener + sep.join(map(_int_text, row)) + close
                           if row else "[]" for row in rows], depth))


def _text_rows(rows, depth: int) -> str:
    """The list of these non-empty rows of item texts nested `depth` levels
    deep."""
    opener, sep, close = _frame(depth + 1)
    return _items([opener + sep.join(row) + close for row in rows], depth)


def _object_text(keys: tuple, texts, depth: int = 0) -> str:
    """The object of these sorted keys and value texts, `depth` deep."""
    frame = _object_frame(keys, depth)
    return "".join(map(str.__add__, frame, texts)) + frame[-1]


def _encode(doc, depth: int) -> str:
    """The canonical text of one value nested `depth` levels deep."""
    if type(doc) is Written:
        return doc
    if isinstance(doc, (list, tuple)):
        types = {*map(type, doc)}
        if types == {int}:  # no bools
            return int_list(doc, depth)
        if (types <= {list, tuple}
                and {*map(type, chain.from_iterable(doc))} == {int}):
            return int_rows(doc, depth)
        return _items([_encode(item, depth + 1) for item in doc], depth)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        keys = tuple(sorted(doc))
        return _object_text(keys, [_encode(doc[key], depth + 1)
                                   for key in keys], depth)
    if type(doc) is bool:  # before int: True == 1
        return "true" if doc else "false"
    if isinstance(doc, int):
        return _int_text(doc)
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None:
        return "null"
    return json.dumps(doc)


def encode_chunks(doc):
    """The canonical text of a document, as an iterator of chunks.

    A value of the top-level object may be an iterator of item texts (the
    stream slot of the module docstring).  Every other value is encoded
    here, before any chunk is taken, so an invalid one raises here and
    writes nothing.  A stream is consumed as the chunks are taken, `_BATCH`
    items to a chunk; a document without one is one chunk.
    """
    if not (isinstance(doc, dict) and doc):
        return iter((_encode(doc, 0) + "\n",))
    keys = tuple(sorted(doc))
    frame = _object_frame(keys, 0)
    return _chunks(frame, [value if isinstance(value := doc[key], Iterator)
                           else head + _encode(value, 1)
                           for key, head in zip(keys, frame)])


def _chunks(frame: tuple, parts: list):
    """The chunks of a top-level object from its `_object_frame` and its
    parts: each a value's text after its key's head, or a stream."""
    text = ""
    for head, part in zip(frame, parts):
        if isinstance(part, str):
            text += part
            continue
        yield text + head
        opener, sep, close = _frame(1)
        text = opener
        while batch := list(islice(part, _BATCH)):
            yield text + sep.join(batch)
            text = sep
        text = "[]" if text is opener else close
    yield text + frame[-1] + "\n"


def encode_canonical(doc) -> str:
    """The canonical text of a document (sorted keys, indent 2, newline).

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2)``
    with every integer of magnitude at least 2^53 first turned into its
    decimal string; object keys must be strings.  Lists of integers,
    and lists of such rows, are written with one join per list instead of
    going through the pure-Python encoder that ``json`` uses whenever an
    indent is set.  It is the join of :func:`encode_chunks`.
    """
    return "".join(encode_chunks(doc))


def check_text(verdicts: dict) -> str:
    """The text of a ``check`` document from `classify._verdicts`."""
    keys = ("complete", "crosspolytope", "fano", "smooth")
    return _object_text(keys, [("false", "true")[verdicts[key]]
                               for key in keys]) + "\n"


def accepted_text(result) -> str:
    """The text of `classification_to_doc` of an accepted result."""
    c = result.sequence
    sequence = _object_text(("entries", "n"),
                            (int_rows(c.entries(), 2), _int_text(c.n)), 1)
    return _object_text(("matrix", "order", "ray_map", "sequence"), (
        int_rows(result.matrix), int_list(result.order),
        int_list(result.ray_map), sequence)) + "\n"


def bundle_text(weights, xi=None) -> str:
    """The text of a `bundle` document from the 2k exponent rows of the
    tangent splitting in ray order (`bundles._action_weights`) and the xi
    exponents, None at the top stage.  Each row's int texts are made once
    and joined at both depths they are written at: in `tangent` and in
    `quotient.action_weights`.  The kernel generators are their transpose,
    lambda_j is row (j,0) negated, canonical_lambda is lambda_k and
    lambda_perp is row (k,1)."""
    texts = [[*map(_int_text, row)] for row in weights]
    duals = [[*map(_int_text, map(neg, row))] for row in weights[::2]]
    values = [_items(duals[-1], 1), _int_text(len(duals)),
              _text_rows(duals, 1), _items(texts[-1], 1),
              _object_text(("action_weights", "kernel_generators"), (
                  _text_rows(texts, 2), _text_rows(zip(*texts), 2)), 1),
              _text_rows(texts, 1)]
    keys = ("canonical_lambda", "k", "lambda", "lambda_perp", "quotient",
            "tangent", "xi")
    if xi is None:
        return _object_text(keys[:-1], values) + "\n"
    return _object_text(keys, [*values, int_list(xi)]) + "\n"


def cohomology_chunks(relations, ranks, table, checked=None):
    """The chunks of a `cohomology` document from its relation rows, its
    ranks and its total Chern class as 2^k coefficients by mask, the last
    the Euler characteristic, with the `--oracle` summary of `checked`
    comparisons unless it is None.  Every value before the `total_chern`
    stream is written here, into one of two fixed frames, and the table's
    int writer is chosen here, refusing its longest int, so the chunks that
    follow cannot fail."""
    texts = term_texts(table, int_writer(table))
    keys = ("betti", "euler_characteristic", "k", "relations", "total_chern")
    values = [int_list(ranks), _int_text(table[-1]), _int_text(len(relations)),
              int_rows(relations)]
    if checked is not None:
        keys = (*keys[:3], "oracle", *keys[3:])
        values.insert(3, _object_text(("checked", "match"),
                                      (_int_text(checked), "true"), 1))
    frame = _object_frame(keys, 0)
    return _chunks(frame, [*map(str.__add__, frame, values), texts])


def int_writer(table):
    """The int writer of a table of ints, which refuses its longest int if
    too long: C `int.__repr__` if no int is stored or quoted.  The largest
    magnitude is read by C-level max and min, with no key per entry."""
    largest = max(max(table), -min(table))
    _int_text(largest)
    return int.__repr__ if 1024 < largest < PRECISION_LIMIT else _int_text


def cone_texts(k: int):
    """Item texts of the cones of a stage-k tower fan, codes in binary order.

    The cone of the code w lists the ray indices 2i + w_i; each index text
    is made once, with the brackets folded into the first and last.
    """
    opener, sep, close = _frame(2)
    choices = [[str(2 * i), str(2 * i + 1)] for i in range(k)]
    choices[0] = [opener + text for text in choices[0]]
    choices[-1] = [text + close for text in choices[-1]]
    return map(sep.join, product(*choices))


def chart_texts(nodes, text=_int_text):
    """Item texts of the `charts` list from `charts._prefix_rows` events.

    Each event (j, row) is one prefix node; its row is written twice, as
    is and negated in C, and each child's code and monomial texts are its
    parent's with one more item.  The children wait on a stack in the
    walk's own order, the w_j = 0 child popped first, so each event meets
    its prefix; a node of depth j equal to the row length joins its prefix
    once and writes the two charts it ends.  The prefixes are tuples of
    short texts, so no long text outlives its chart.
    """
    head, middle, tail = _object_frame(("code", "monomials"), 2)
    opener, sep, close = _frame(3)
    r_open, r_sep, r_close = _frame(4)
    stack = [((), ())]
    for j, row in nodes:
        code, texts = stack.pop()
        plus = r_open + r_sep.join(map(text, row)) + r_close
        minus = r_open + r_sep.join(map(text, map(neg, row))) + r_close
        if j < len(row):
            stack += (((*code, "1"), (*texts, minus)),
                      ((*code, "0"), (*texts, plus)))
        else:  # each prefix item is followed by a separator
            code = head + opener + sep.join((*code, ""))
            texts = middle + opener + sep.join((*texts, ""))
            yield "".join((code, "0", close, texts, plus, close, tail))
            yield "".join((code, "1", close, texts, minus, close, tail))


def number_texts(table, text=_int_text):
    """Item texts of the `numbers` list from `sequences._bott_table`: the
    nonempty index sets by size, then lex.  Each size is written by C-level
    maps over side-by-side combinations of the labels and the mask bits."""
    head, middle, tail = _object_frame(("set", "value"), 2)
    start, comma, end = _frame(3)
    head, middle, tail = map(repeat, (head + start, end + middle, tail))
    n = len(table).bit_length() - 1
    labels = [str(i) for i in range(1, n + 1)]
    bits = [1 << i for i in range(n)]

    def sized(size):
        ids = map(comma.join, combinations(labels, size))
        masks = map(sum, combinations(bits, size))
        values = map(text, map(table.__getitem__, masks))
        return map("".join, zip(head, ids, middle, values, tail))

    return chain.from_iterable(map(sized, range(1, n + 1)))


def term_texts(table, text=_int_text):
    """Item texts of the `total_chern` list from a table of 2^k coefficients
    indexed by mask (bit j-1 is x_j): the index sets by size, then lex, the
    empty one giving the degree-0 term, with zeros skipped.  Each size is
    written as in :func:`number_texts`."""
    opener, sep, close = _frame(2)
    start, comma, end = _frame(3)
    head, middle, tail = map(repeat, (opener + start, end + sep, close))
    k = len(table).bit_length() - 1
    labels = [str(j) for j in range(1, k + 1)]
    bits = [1 << j for j in range(k)]

    def sized(size):
        coeffs = [*map(table.__getitem__, map(sum, combinations(bits, size)))]
        ids = map(comma.join, compress(combinations(labels, size), coeffs))
        values = map(text, compress(coeffs, coeffs))
        return map("".join, zip(head, ids, middle, values, tail))

    empty = ([opener + "[]" + sep + text(table[0]) + close]
             if table[0] else [])
    return chain(empty, chain.from_iterable(map(sized, range(1, k + 1))))


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
    """The IntegralSequence of a sequence document, its triples checked by
    one set of C-level sweeps: each a list of three plain ints (no bools),
    no (i, j) pair repeated, and n >= 1 with 1 <= i < j <= n
    (`sequences._in_range`).  The nonzero twists are then stored by
    `IntegralSequence._of`, so the constructor's sweep does not run again.
    After any failed check, parse_int runs per entry, to read quoted ints or
    name the first fault, and the constructor checks the ranges."""
    _require_keys(doc, {"n", "entries"}, {"n"}, "sequence document")
    n = parse_int(doc["n"], "sequence height n")
    triples = _require_list(doc.get("entries", []), "sequence entries")
    if {*map(type, triples)} <= {list} and _plain_rows(triples, 3):
        lows, highs, values = zip(*triples) if triples else ((), (), ())
        entries = dict(zip(zip(lows, highs), values))
        if len(entries) == len(triples) and _in_range(n, lows, highs):
            return IntegralSequence._of(n, entries if 0 not in values else {
                key: value for key, value in entries.items() if value})
    entries = {}
    for triple in triples:
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
    gf = _layer("fans")._as_general(fan)
    return {"dim": gf.dim,
            "rays": [list(ray) for ray in gf.rays],
            "cones": [list(cone) for cone in gf.cones]}


def _int_lists(value, what: str, row: str, item: str) -> list:
    return [[parse_int(x, item) for x in _require_list(r, row)]
            for r in _require_list(value, what)]


def fan_from_doc(doc):
    """The GeneralFan of a fan document.  When the rays, the cones and each
    of their rows are lists, they go straight to the constructor, whose
    sweep is the only one of their elements.  Its ValidationError stands
    when every element is a plain int, which parse_int would leave as it
    is.  After any other, or for any other shape, parse_int runs per
    element, to read quoted ints or name the first fault, before the
    constructor runs again."""
    _require_keys(doc, {"dim", "rays", "cones"}, {"dim", "rays", "cones"},
                  "fan document")
    dim = parse_int(doc["dim"], "fan dimension")
    rays, cones = doc["rays"], doc["cones"]
    if (isinstance(rays, list) and isinstance(cones, list)
            and {*map(type, chain(rays, cones))} <= {list}):
        try:
            return _layer("fans").GeneralFan(dim, rays, cones)
        except ValidationError:  # plain ints would meet the same fault
            if {*map(type, chain.from_iterable(chain(rays, cones)))} <= {int}:
                raise
    rays = _int_lists(rays, "fan rays", "ray", "ray coordinate")
    cones = _int_lists(cones, "fan cones", "cone", "cone ray index")
    return _layer("fans").GeneralFan(dim, rays, cones)


def classification_to_doc(result) -> dict:
    """Success: sequence/order/matrix/ray_map; rejection: reject/witness."""
    if result.ok:
        return {"sequence": sequence_to_doc(result.sequence),
                "order": list(result.order),
                "matrix": [list(row) for row in result.matrix],
                "ray_map": list(result.ray_map)}
    return {"reject": result.reject, "witness": result.witness}
