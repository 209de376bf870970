"""The ``bott`` command: tower computations on canonical JSON documents.

Subcommands take one input argument — a file path, or inline JSON when the
argument starts with ``{`` — and print one canonical document, or write it
with ``-o``.  Exit codes: 0 success, 2 unreadable input or bad usage, 3
well-formed but invalid data, 4 a ``classify`` rejection (the rejection
document is still printed).  ``check``, ``classify`` and ``render`` read a
sequence document as its tower's 2k rays and stage pairs, never as its 2^k
cones, and its Bott matrix is built only when a ray is read: ``render``
refuses a height other than 2 before it.  Each input is checked once: the
stage of ``-k`` by the handler's first library call, a fan document by the
``GeneralFan`` constructor.  The verdicts of ``check`` and ``classify`` are
decided in the ``classify`` module, by ``_verdicts`` and ``classify``; their
handlers only load the fan and write the document (a fixed frame on success).

This module loads just ``errors`` and ``serialize``; a handler gets each
other layer it uses from ``serialize._layer``, which imports it on its
first use in the process, so a process loads only the modules of its one
command.  The handler reads each function from its module at every call,
so a function replaced there (by a tracer or a test) is the one called.
A command's arguments in one closed grammar (one input, the
command's exact option strings, each value not starting with '-') are read
without argparse, into the namespace its subparser would give.  Any other
arguments, help and unknown names among them, go to the one argparse
parser, with all eight commands as subparsers, built for that call.

Each handler does every check and oracle comparison before it returns, and
returns the document's chunks: the long lists of ``fan``, ``charts``,
``numbers --sets`` and ``cohomology`` are streams that are computed and
encoded while they are written; the last three first take from their
table a writer (``serialize.int_writer``), which refuses the table's
longest integer if it cannot be written.  ``bundle`` reads its twist rows,
xi's among them, in one pass over the stored twists.  ``bundle``,
``cohomology``, ``check`` and an accepted ``classify`` are written from
fixed frames (``serialize.bundle_text``, ``cohomology_chunks``,
``check_text``, ``accepted_text``); other lists a handler builds itself,
such as matrices, it writes with ``serialize.int_list`` or ``int_rows``,
with no type sweep.  ``-o`` writes a temporary file beside the target and
renames it onto the target at the end.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import compress, count
from operator import add, ne
from types import SimpleNamespace

from .errors import ValidationError
from . import serialize
from .serialize import _layer, encode_chunks

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_REJECTION = 4


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key is invalid data."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValidationError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load_document(source: str):
    if source.removeprefix("\ufeff").lstrip().startswith("{"):
        text = source
    else:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    if text.startswith("\ufeff"):  # refused as json.loads refuses it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using "
                                   "utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except (json.JSONDecodeError, ValidationError):
        raise
    except ValueError as err:  # an integer literal int() will not convert
        raise ValidationError(f"integer literal: {err}") from None


def _load_fan(source: str):
    """A GeneralFan from a fan document, a full-height BottFan from a
    sequence one; the BottFan builds its Bott matrix only when a ray is
    read."""
    doc = _load_document(source)
    if isinstance(doc, dict) and "rays" in doc:
        return serialize.fan_from_doc(doc)
    c = serialize.sequence_from_doc(doc)
    return _layer("fans").build_fan(c, c.n)


def _sequence_and_stage(args):
    """The sequence and the requested stage, unchecked: the handler's first
    library call checks it."""
    c = serialize.sequence_from_doc(_load_document(args.input))
    return c, c.n if args.stage is None else args.stage


def _cmd_numbers(args):
    """C(1..n) and B(1..n), and with ``--sets`` every b(I).  A job whose
    ``--sets`` or ``--oracle`` fills the flat table of every b(I) reads B
    from it: entry (r, s) is b of the run r+1..s+1, at the mask of bits
    r..s.  Plain ``numbers`` builds no table, its n being unbounded, and
    runs the row kernel through `bott_matrix`."""
    sequences = _layer("sequences")
    c = serialize.sequence_from_doc(_load_document(args.input))
    full = tuple(range(1, c.n + 1))
    if args.sets or args.oracle:
        table = sequences._bott_table(c, c.n)
        bott = [[0] * r + [table[(2 << s) - (1 << r)] for s in range(r, c.n)]
                for r in range(c.n)]
    else:
        bott = sequences.bott_matrix(c, full)
    doc = {"n": c.n,
           "c_matrix": serialize.int_rows(sequences.c_matrix(c, full)),
           "bott_matrix": serialize.int_rows(bott)}
    if args.oracle:  # compared here, before "numbers" is written
        chains = sequences._chain_table(c, c.n)  # 0 on the singletons
        wrong = [tuple(i for i in full if mask >> (i - 1) & 1)
                 for mask in compress(count(), map(ne, table, chains))
                 if mask & (mask - 1)]
        if wrong:  # the first in the order of the `numbers` list
            ids = min(wrong, key=lambda ids: (len(ids), ids))
            raise RuntimeError(f"oracle mismatch on index set {ids}")
        doc["oracle"] = {"checked": len(table) - 1 - c.n, "match": True}
    if args.sets:  # the longest Bott number is refused before any is written
        doc["numbers"] = serialize.number_texts(
            table, serialize.int_writer(table))
    return encode_chunks(doc), 0


def _cmd_fan(args):
    c, k = _sequence_and_stage(args)
    _layer("sequences")._check_table_stage(c, k, "the tower fan", "cones")
    rays = _layer("fans").build_fan(c, k).rays()
    return encode_chunks({"dim": k, "rays": serialize.int_rows(rays),
                          "cones": serialize.cone_texts(k)}), 0


def _cmd_check(args):
    return (serialize.check_text(
        _layer("classify")._verdicts(_load_fan(args.input))),), 0


def _cmd_charts(args):
    c, k = _sequence_and_stage(args)
    table = _layer("sequences")._bott_table(c, k)  # refused here above the cap
    text = serialize.int_writer(table)  # each |I| >= 2 is used
    return encode_chunks({"k": k, "charts": serialize.chart_texts(
        _layer("charts")._prefix_rows(table, k), text)}), 0


def _cmd_bundle(args):
    """The twist rows of stages 1..k, and k + 1 for xi when the tower has
    it, from one pass over the twists, written into a fixed frame."""
    c, k = _sequence_and_stage(args)
    rows = _layer("sequences")._twist_rows(c, min(c.check_stage(k) + 1, c.n))
    return (serialize.bundle_text(_layer("bundles")._action_weights(rows, k),
                                  rows[k][:-1] if k < c.n else None),), 0


def _cmd_cohomology(args):
    cohomology = _layer("cohomology")
    c, k = _sequence_and_stage(args)
    p = cohomology._chern_presentation(c, k)  # k's one check
    table = cohomology._total_chern_table(p)
    ranks = cohomology._ranks(k)
    if args.oracle:  # k + 1 ranks, the total rank and the Euler number
        pascal = [1]  # binomial(k, i) by additions alone
        for _ in range(k):
            pascal = [*map(add, [0, *pascal], [*pascal, 0])]
        for size in range(k + 1):
            if ranks[size] != pascal[size]:
                raise RuntimeError(f"oracle mismatch on betti[{size}]")
        if sum(ranks) != 2 ** k:
            raise RuntimeError("oracle mismatch on total rank")
        # the tower fan has one maximal cone per binary code w in {0,1}^k;
        # the top monomial x_1 ... x_k has the last mask
        if table[-1] != 2 ** k:
            raise RuntimeError("oracle mismatch on Euler characteristic")
    return serialize.cohomology_chunks(p.relations, ranks, table,
                                      k + 3 if args.oracle else None), 0


def _cmd_classify(args):
    result = _layer("classify").classify(_load_fan(args.input))
    if result.ok:
        return (serialize.accepted_text(result),), 0
    doc = serialize.classification_to_doc(result)
    return encode_chunks(doc), EXIT_REJECTION


def _cmd_render(args):
    return (_layer("render").render_svg(_load_fan(args.input)),), 0


# name: (handler, help, takes -k/--stage, {store_true flag: its help})
_COMMANDS = {
    "numbers": (_cmd_numbers,
                "Bott matrix and Bott number tables of a sequence", False,
                {"--sets": "tabulate b(I) over every nonempty index set",
                 "--oracle": "re-derive every b(I) by the chain-sum formula "
                             "and compare"}),
    "fan": (_cmd_fan, "rays and cones of the tower fan", True, {}),
    "check": (_cmd_check, "smooth / complete / fano / crosspolytope "
              "verdicts for a fan", False, {}),
    "charts": (_cmd_charts,
               "affine chart monomials, one chart per binary code", True, {}),
    "bundle": (_cmd_bundle,
               "quotient presentation and named character bundles", True, {}),
    "cohomology": (_cmd_cohomology,
                   "ring presentation, Betti numbers, Euler characteristic, "
                   "total Chern class", True,
                   {"--oracle": "re-derive Betti and Euler data "
                                "independently and compare"}),
    "classify": (_cmd_classify, "recover tower data from a fan, or "
                 "explain the rejection", False, {}),
    "render": (_cmd_render,
               "deterministic SVG picture of a two-dimensional fan", False, {}),
}


_OUTPUT = ("-o", "--output")
_STAGE = ("-k", "--stage")  # on the commands whose row says so


def _plain_args(name: str, argv):
    """The namespace the subparser of command `name` gives on `argv`, with
    nothing left over, when `argv` is one input that does not start with
    '-' and the exact option strings of command `name`, in any order, each
    value not starting with '-' (a stage one that int() converts).  None
    for any other argv, which argparse then reads."""
    handler, _, stage, flags = _COMMANDS[name]
    values = {"output": None, **{flag[2:]: False for flag in flags}}
    if stage:
        values["stage"] = None
    words = iter(argv)
    for word in words:
        if word in flags:
            values[word[2:]] = True
        elif word in _OUTPUT or stage and word in _STAGE:
            value = next(words, "-")
            if value.startswith("-"):
                return None
            if word in _OUTPUT:
                values["output"] = value
            else:
                try:
                    values["stage"] = int(value)  # as argparse's type=int
                except ValueError:
                    return None
        elif word.startswith("-") or "input" in values:
            return None
        else:
            values["input"] = word
    if "input" not in values:
        return None
    return SimpleNamespace(**values, handler=handler)


def _build_parser():
    """The ``bott`` argparse parser, with the eight commands as subparsers."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bott",
        description="Exact computations for towers of projective-line "
                    "bundles: Bott numbers, crosspolytope fans, charts, "
                    "character bundles, cohomology, classification, and "
                    "2-D fan rendering.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for command, (handler, help_text, stage, flags) in _COMMANDS.items():
        one = sub.add_parser(command, help=help_text)
        one.add_argument("input", help="path to a JSON document, or inline "
                                       "JSON starting with '{'")
        if stage:
            one.add_argument(*_STAGE, type=int, default=None,
                             help="tower stage (default: the full height)")
        one.add_argument(*_OUTPUT, help="write the document to this file "
                                        "instead of stdout")
        for flag, flag_help in flags.items():
            one.add_argument(flag, action="store_true", help=flag_help)
        one.set_defaults(handler=handler)
    return parser


def _replace_file(path: str, chunks) -> None:
    """Write the chunks to a temporary file beside `path`, then rename it
    onto `path`, so a failed run leaves no partial document.

    The temporary file is opened with the mode a new file gets.  A target
    that exists but is not a regular file, such as a device or a pipe,
    cannot be replaced and is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    head, name = os.path.split(target)
    temp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as err:  # report the target, not the temporary name
        raise OSError(err.errno, err.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (argv and argv[0] in _COMMANDS
            and (args := _plain_args(argv[0], argv[1:]))):
        args = _build_parser().parse_args(argv)
    try:
        chunks, code = args.handler(args)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as err:
        print(f"error: cannot read input: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.output:
            _replace_file(args.output, chunks)
        else:
            for chunk in chunks:
                sys.stdout.write(chunk)
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as err:  # an integer too long to write
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    return code
