"""The ``bott`` command: tower computations on canonical JSON documents.

Subcommands take one input argument — a file path, or inline JSON when the
argument starts with ``{`` — and print one canonical document, or write it
with ``-o``.  Exit codes: 0 success, 2 unreadable input or bad usage, 3
well-formed but invalid data, 4 mathematical rejection (the rejection
document is still printed).  The environment variable BOTT_SEED and the
``check --probes`` option are validated but have no effect: completeness is
decided exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations

from .bundles import (
    canonical_lambda,
    lambda_bundle,
    lambda_perp,
    quotient_presentation,
    tangent_splitting,
    xi_bundle,
)
from .charts import dual_generators
from .classify import classify, crosspolytope_check
from .cohomology import betti, integrate, presentation, total_chern_class
from .errors import RejectionError, ValidationError
from .fans import (_fano_condition, binary_codes, build_fan, is_complete,
                   is_smooth)
from .render import render_svg
from .sequences import bott_matrix, bott_number, bott_number_moebius, c_matrix
from .serialize import (
    classification_to_doc,
    encode_canonical,
    fan_from_doc,
    fan_to_doc,
    sequence_from_doc,
)

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_REJECTION = 4


def _seed() -> int:
    raw = os.environ.get("BOTT_SEED", "0")
    try:
        return int(raw, 10)
    except ValueError:
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
    """A fan from either a fan document or a sequence document."""
    doc = _load_document(source)
    if isinstance(doc, dict) and "rays" in doc:
        return fan_from_doc(doc)
    c = sequence_from_doc(doc)
    return build_fan(c, c.n).as_general_fan()


def _sequence_and_stage(args):
    c = sequence_from_doc(_load_document(args.input))
    return c, (c.n if args.stage is None else args.stage)


def _cmd_numbers(args):
    c = sequence_from_doc(_load_document(args.input))
    full = tuple(range(1, c.n + 1))
    doc = {"n": c.n,
           "c_matrix": [list(row) for row in c_matrix(c, full)],
           "bott_matrix": [list(row) for row in bott_matrix(c, full)]}
    if args.sets:
        doc["numbers"] = [{"set": list(ids), "value": bott_number(c, ids)}
                          for size in range(1, c.n + 1)
                          for ids in combinations(full, size)]
    if args.oracle:
        checked = 0
        for size in range(2, c.n + 1):
            for ids in combinations(full, size):
                if bott_number(c, ids) != bott_number_moebius(c, ids):
                    raise RuntimeError(f"oracle mismatch on index set {ids}")
                checked += 1
        doc["oracle"] = {"checked": checked, "match": True}
    return encode_canonical(doc), 0


def _cmd_fan(args):
    c, k = _sequence_and_stage(args)
    return encode_canonical(fan_to_doc(build_fan(c, k))), 0


def _verdict(predicate, gf) -> bool:
    """Whether predicate(gf) holds, a rejection counting as False."""
    try:
        return bool(predicate(gf))
    except RejectionError:
        return False


def _cmd_check(args):
    gf = _load_fan(args.input)
    _seed()  # validated only: completeness is exact
    smooth = _verdict(is_smooth, gf)
    complete = _verdict(is_complete, gf)
    doc = {"smooth": smooth, "complete": complete,
           "fano": complete and _fano_condition(gf),
           "crosspolytope": _verdict(crosspolytope_check, gf)}
    return encode_canonical(doc), 0


def _cmd_charts(args):
    c, k = _sequence_and_stage(args)
    charts = [{"code": list(w),
               "monomials": [list(u) for u in dual_generators(c, k, w)]}
              for w in binary_codes(k)]
    return encode_canonical({"k": k, "charts": charts}), 0


def _cmd_bundle(args):
    c, k = _sequence_and_stage(args)
    quotient = quotient_presentation(c, k)
    doc = {
        "k": k,
        "quotient": {
            "kernel_generators": [list(gen)
                                  for gen in quotient.kernel_generators],
            "action_weights": [list(wt) for wt in quotient.action_weights]},
        "canonical_lambda": list(canonical_lambda(k).exps),
        "lambda": [list(lambda_bundle(j, k).exps) for j in range(1, k + 1)],
        "lambda_perp": list(lambda_perp(c, k).exps),
        "tangent": [list(bundle.exps) for bundle in tangent_splitting(c, k)],
    }
    if k < c.n:
        doc["xi"] = list(xi_bundle(c, k).exps)
    return encode_canonical(doc), 0


def _cmd_cohomology(args):
    c, k = _sequence_and_stage(args)
    ranks = betti(c, k)
    total = total_chern_class(c, k)
    euler = integrate(total)  # integrates its top-degree part
    doc = {"k": k,
           "relations": [list(rel) for rel in presentation(c, k).relations],
           "betti": list(ranks),
           "euler_characteristic": euler,
           "total_chern": [[list(indices), coeff] for indices, coeff
                           in total.terms()]}
    del total  # up to 2^k terms: free them before the oracle and encoding
    if args.oracle:
        checked = 0
        for size in range(k + 1):
            count = sum(1 for _ in combinations(range(1, k + 1), size))
            if ranks[size] != count:
                raise RuntimeError(f"oracle mismatch on betti[{size}]")
            checked += 1
        if sum(ranks) != 2 ** k:
            raise RuntimeError("oracle mismatch on total rank")
        checked += 1
        # the tower fan has one maximal cone per binary code w in {0,1}^k
        if euler != 2 ** k:
            raise RuntimeError("oracle mismatch on Euler characteristic")
        checked += 1
        doc["oracle"] = {"checked": checked, "match": True}
    return encode_canonical(doc), 0


def _cmd_classify(args):
    result = classify(_load_fan(args.input), seed=_seed())
    return (encode_canonical(classification_to_doc(result)),
            0 if result.ok else EXIT_REJECTION)


def _cmd_render(args):
    return render_svg(_load_fan(args.input)), 0


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
    except (json.JSONDecodeError, OSError) as err:
        print(f"error: cannot read input: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except RejectionError as err:
        text = encode_canonical({"reject": err.code, "witness": err.witness})
        code = EXIT_REJECTION
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_PARSE
    return code
