"""Canonical JSON interchange for sequences, fans, and result documents.

Emitted documents are diff-stable: keys sorted, two-space indent, one
trailing newline, lists in documented orders, ray indices 0-based.
Integers of magnitude at least 2^53 are written as decimal strings so that
double-precision JSON consumers cannot silently round them, and such
strings are accepted wherever an integer is expected.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import ValidationError
from .fans import GeneralFan, _as_general
from .sequences import IntegralSequence

PRECISION_LIMIT = 2 ** 53


def _small_ints(items) -> bool:
    """Whether there are items and all are plain ints below the limit."""
    return ({*map(type, items)} == {int}
            and -PRECISION_LIMIT < min(items) and max(items) < PRECISION_LIMIT)


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
            # rows of small ints (cones, charts): one join per row
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
        text = int.__repr__(doc)
        return f'"{text}"' if abs(doc) >= PRECISION_LIMIT else text
    return json.dumps(doc)


def encode_canonical(doc) -> str:
    """The canonical text of a document (sorted keys, indent 2, newline).

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2)``
    with every integer of magnitude at least 2^53 first turned into its
    decimal string; object keys must be strings.  Lists of small integers,
    and lists of such rows, are written with one join per list instead of
    going through the pure-Python encoder that ``json`` uses whenever an
    indent is set.
    """
    return _encode(doc, "") + "\n"


def parse_int(value, what: str) -> int:
    """An integer from a JSON number or its decimal-string form.

    Floats are refused even when integral: the interchange format is exact.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{what}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ValidationError(
                f"{what}: not a decimal integer: {value!r}") from None
    raise ValidationError(
        f"{what}: expected an integer, got {type(value).__name__}")


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
    for triple in doc.get("entries", []):
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
    gf = _as_general(fan)
    return {"dim": gf.dim,
            "rays": [list(ray) for ray in gf.rays],
            "cones": [list(cone) for cone in gf.cones]}


def fan_from_doc(doc) -> GeneralFan:
    _require_keys(doc, {"dim", "rays", "cones"}, {"dim", "rays", "cones"},
                  "fan document")
    dim = parse_int(doc["dim"], "fan dimension")
    rays = [[parse_int(x, "ray coordinate") for x in ray]
            for ray in doc["rays"]]
    cones = [[parse_int(r, "cone ray index") for r in cone]
             for cone in doc["cones"]]
    return GeneralFan(dim, rays, cones)


def classification_to_doc(result) -> dict:
    """Success: sequence/order/matrix/ray_map; rejection: reject/witness."""
    if result.ok:
        return {"sequence": sequence_to_doc(result.sequence),
                "order": list(result.order),
                "matrix": [list(row) for row in result.matrix],
                "ray_map": list(result.ray_map)}
    return {"reject": result.reject, "witness": result.witness}
