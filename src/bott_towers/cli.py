"""The ``bott`` command: tower computations on canonical JSON documents.

Subcommands take one input argument — a file path, or inline JSON when the
argument starts with ``{`` — and print one canonical document, or write it
with ``-o``.  Exit codes: 0 success, 2 unreadable input or bad usage, 3
well-formed but invalid data, 4 mathematical rejection (the rejection
document is still printed).  The environment variable BOTT_SEED and the
``check --probes`` option are validated but have no effect: completeness is
decided exactly.  ``check``, ``classify`` and ``render`` read a sequence
document as its tower's 2k rays and stage pairs, never as its 2^k cones.

Each handler imports the layers it uses when it runs, so a process loads
only the modules of its one command; this module loads just ``errors`` and
``serialize``.  The handler reads each name from its defining module at
every call, so a name replaced there (by a tracer or a test) is the one
called.

Each handler does every check and oracle comparison before it returns, and
returns the document's chunks: the long lists of ``fan``, ``charts``,
``numbers --sets`` and ``cohomology`` are streams that are computed and
encoded while they are written.  ``-o`` writes a temporary file beside the
target and renames it onto the target at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations

from .errors import RejectionError, ValidationError
from .serialize import encode_chunks, parse_int, sequence_from_doc

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_REJECTION = 4


def _seed() -> int:
    raw = os.environ.get("BOTT_SEED", "0")
    try:
        return parse_int(raw, "BOTT_SEED")
    except ValidationError:
        raise ValidationError(
            f"BOTT_SEED must be a decimal integer, got {raw!r}") from None


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key is invalid data."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValidationError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _load_document(source: str):
    if source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:  # the decoder recurses once per nesting level
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def _load_fan(source: str):
    """A GeneralFan from a fan document, a full BottFan from a sequence one."""
    from .fans import build_fan
    from .serialize import fan_from_doc

    doc = _load_document(source)
    if isinstance(doc, dict) and "rays" in doc:
        return fan_from_doc(doc)
    c = sequence_from_doc(doc)
    return build_fan(c, c.n)


def _sequence_and_stage(args):
    c = sequence_from_doc(_load_document(args.input))
    return c, c.check_stage(c.n if args.stage is None else args.stage)


def _cmd_numbers(args):
    from .sequences import (_bott_table, bott_matrix, bott_number_moebius,
                            c_matrix)
    from .serialize import number_texts

    c = sequence_from_doc(_load_document(args.input))
    table = _bott_table(c, c.n) if args.sets or args.oracle else None
    full = tuple(range(1, c.n + 1))
    doc = {"n": c.n, "c_matrix": c_matrix(c, full),
           "bott_matrix": bott_matrix(c, full)}
    if args.oracle:  # compared here, before "numbers" is written
        bits = [1 << i for i in range(c.n)]
        checked = 0
        for size in range(2, c.n + 1):
            for mask, ids in zip(map(sum, combinations(bits, size)),
                                 combinations(full, size)):
                if table[mask] != bott_number_moebius(c, ids):
                    raise RuntimeError(f"oracle mismatch on index set {ids}")
                checked += 1
        doc["oracle"] = {"checked": checked, "match": True}
    if args.sets:
        doc["numbers"] = number_texts(table)
    return encode_chunks(doc), 0


def _cmd_fan(args):
    from .fans import build_fan
    from .serialize import cone_texts

    c, k = _sequence_and_stage(args)
    return encode_chunks({"dim": k, "rays": build_fan(c, k).rays(),
                          "cones": cone_texts(k)}), 0


def _verdict(predicate, gf):
    """predicate(gf), a rejection counting as False."""
    try:
        return predicate(gf)
    except RejectionError:
        return False


def _cmd_check(args):
    from .classify import _tower_witness, classify, crosspolytope_check
    from .fans import (BottFan, _fano_condition, build_fan, is_complete,
                       is_fano, is_smooth)

    fan = _load_fan(args.input)
    _seed()  # validated only: completeness is exact
    if isinstance(fan, BottFan):  # a tower, read off its 2k rays
        witness = classify(fan)
    else:
        pairs = _verdict(crosspolytope_check, fan)
        witness = pairs and _tower_witness(fan.rays, pairs)
    if witness:  # a tower fan up to GL(Z), so smooth and complete
        fano = is_fano(build_fan(witness.sequence, fan.dim))
        return encode_chunks({"smooth": True, "complete": True,
                              "fano": fano, "crosspolytope": True}), 0
    complete = _verdict(is_complete, fan)
    doc = {"smooth": _verdict(is_smooth, fan), "complete": complete,
           "fano": complete and _fano_condition(fan),
           "crosspolytope": bool(pairs)}
    return encode_chunks(doc), 0


def _cmd_charts(args):
    from .charts import _prefix_rows
    from .sequences import _bott_table
    from .serialize import chart_texts

    c, k = _sequence_and_stage(args)
    rows = _prefix_rows(_bott_table(c, k), k)  # refused here above the cap
    return encode_chunks({"k": k, "charts": chart_texts(rows)}), 0


def _cmd_bundle(args):
    from .bundles import (canonical_lambda, lambda_bundle, lambda_perp,
                          quotient_presentation, tangent_splitting, xi_bundle)

    c, k = _sequence_and_stage(args)
    quotient = quotient_presentation(c, k)
    doc = {
        "k": k,
        "quotient": {"kernel_generators": quotient.kernel_generators,
                     "action_weights": quotient.action_weights},
        "canonical_lambda": canonical_lambda(k).exps,
        "lambda": [lambda_bundle(j, k).exps for j in range(1, k + 1)],
        "lambda_perp": lambda_perp(c, k).exps,
        "tangent": [bundle.exps for bundle in tangent_splitting(c, k)],
    }
    if k < c.n:
        doc["xi"] = xi_bundle(c, k).exps
    return encode_chunks(doc), 0


def _cmd_cohomology(args):
    from .cohomology import _total_chern_table, betti, presentation
    from .serialize import term_texts

    c, k = _sequence_and_stage(args)
    table = _total_chern_table(c, k)
    ranks = betti(c, k)
    euler = table[-1]  # the coefficient of the top monomial x_1 ... x_k
    doc = {"k": k,
           "relations": presentation(c, k).relations,
           "betti": ranks,
           "euler_characteristic": euler,
           "total_chern": term_texts(table)}
    if args.oracle:  # k + 1 ranks, the total rank and the Euler number
        for size in range(k + 1):
            if ranks[size] != sum(1 for _ in combinations(range(k), size)):
                raise RuntimeError(f"oracle mismatch on betti[{size}]")
        if sum(ranks) != 2 ** k:
            raise RuntimeError("oracle mismatch on total rank")
        # the tower fan has one maximal cone per binary code w in {0,1}^k
        if euler != 2 ** k:
            raise RuntimeError("oracle mismatch on Euler characteristic")
        doc["oracle"] = {"checked": k + 3, "match": True}
    return encode_chunks(doc), 0


def _cmd_classify(args):
    from .classify import classify
    from .serialize import classification_to_doc

    result = classify(_load_fan(args.input), seed=_seed())
    return (encode_chunks(classification_to_doc(result)),
            0 if result.ok else EXIT_REJECTION)


def _cmd_render(args):
    from .render import render_svg

    return (render_svg(_load_fan(args.input)),), 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bott",
        description="Exact computations for towers of projective-line "
                    "bundles: Bott numbers, crosspolytope fans, charts, "
                    "character bundles, cohomology, classification, and "
                    "2-D fan rendering.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    def add(name, handler, help_text, stage=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input",
                       help="path to a JSON document, or inline JSON "
                            "starting with '{'")
        if stage:
            p.add_argument("-k", "--stage", type=int, default=None,
                           help="tower stage (default: the full height)")
        p.add_argument("-o", "--output",
                       help="write the document to this file instead "
                            "of stdout")
        p.set_defaults(handler=handler)
        return p

    p = add("numbers", _cmd_numbers,
            "Bott matrix and Bott number tables of a sequence")
    p.add_argument("--sets", action="store_true",
                   help="tabulate b(I) over every nonempty index set")
    p.add_argument("--oracle", action="store_true",
                   help="re-derive every b(I) by the chain-sum formula "
                        "and compare")
    add("fan", _cmd_fan, "rays and cones of the tower fan", stage=True)
    p = add("check", _cmd_check,
            "smooth / complete / fano / crosspolytope verdicts for a fan")
    p.add_argument("--probes", type=int, default=100,
                   help="accepted for compatibility; completeness is "
                        "decided exactly and ignores it")
    add("charts", _cmd_charts,
        "affine chart monomials, one chart per binary code", stage=True)
    add("bundle", _cmd_bundle,
        "quotient presentation and named character bundles", stage=True)
    p = add("cohomology", _cmd_cohomology,
            "ring presentation, Betti numbers, Euler characteristic, "
            "total Chern class", stage=True)
    p.add_argument("--oracle", action="store_true",
                   help="re-derive Betti and Euler data independently "
                        "and compare")
    add("classify", _cmd_classify,
        "recover tower data from a fan, or explain the rejection")
    add("render", _cmd_render,
        "deterministic SVG picture of a two-dimensional fan")
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
    args = _build_parser().parse_args(argv)
    try:
        chunks, code = args.handler(args)
    except (json.JSONDecodeError, OSError) as err:
        print(f"error: cannot read input: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except RejectionError as err:
        chunks = encode_chunks({"reject": err.code, "witness": err.witness})
        code = EXIT_REJECTION
    try:
        if args.output:
            _replace_file(args.output, chunks)
        else:
            for chunk in chunks:
                sys.stdout.write(chunk)
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_PARSE
    return code
