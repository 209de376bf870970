"""Fuzz of the command line's input contract.

All eight commands run in-process on bounded sequence documents, on fan
documents and on mutated `recognize` bench documents, with their options
and with over-long integers, as literals and as strings.  Whatever the
input, `main` returns (or argparse exits with) 0, 2, 3 or 4, raises
nothing else, writes nothing to stdout or to `-o` on exit 2 or 3, and
finishes each example within 2 s.

No work budget exists yet, so the sizes stay bounded: n, k and `-k` are
at most 8, and a fan's dimension at most 4.
"""

from __future__ import annotations

import copy
import json
import math
import time
from itertools import product

import pytest

from bott_towers import cli
from helpers import deck_argvs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COMMANDS = sorted(cli._COMMANDS)
LONG = "@LONG@"  # an integer literal of more digits than int() converts
LONG_TEXT = "9" * 5000
WIDE = "9" * 2200  # converts, but a product of two does not
ODD = [2 ** 53, -(2 ** 60), WIDE, "-" + WIDE, LONG, LONG_TEXT, "3", "x", 1.5,
       True, None, [], {}]
RECOGNIZE = [doc for doc in (json.loads(argv[1]) for argv in
                             deck_argvs("recognize", (1,)))
             if doc["dim"] <= 4]

small = st.integers(-3, 3)
odd = st.sampled_from(ODD)
value = st.integers(0, 9).flatmap(lambda r: odd if r == 0 else small)
wide = st.sampled_from([WIDE, "-" + WIDE])


@st.composite
def sequence_documents(draw):
    """Mostly valid: n in 1..8 and in-range entries, in one tower in four
    all of 2,200 digits; edits do the rest."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    twist = draw(st.sampled_from([value] * 3 + [wide]))
    triples = st.tuples(st.sampled_from(pairs or [(1, 2)]), twist).map(
        lambda pv: [*pv[0], pv[1]])  # (1, 2) is out of range at n = 1
    entries = st.lists(triples, max_size=6, unique_by=lambda t: tuple(t[:2]))
    return {"n": n, "entries": draw(entries)}


PRIMITIVE = {dim: [list(v) for v in product(range(-2, 3), repeat=dim)
                   if math.gcd(*v) == 1] for dim in range(1, 5)}


@st.composite
def fan_documents(draw):
    """Distinct primitive rays and distinct cones of dim distinct rays: a
    fan that ingest accepts, and check and classify must decide."""
    dim = draw(st.integers(1, 4))
    rays = draw(st.lists(st.sampled_from(PRIMITIVE[dim]), min_size=dim,
                         max_size=9, unique_by=tuple))
    cones = draw(st.lists(st.lists(
        st.integers(0, len(rays) - 1), min_size=dim, max_size=dim,
        unique=True).map(sorted), max_size=16, unique_by=tuple))
    return {"dim": dim, "rays": rays, "cones": cones}


def _positions(doc):
    """(container, key) of every value inside the document."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in (node if isinstance(node, dict) else range(len(node))):
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


def edited(draw, doc):
    """The document as JSON text after up to three edits (none in about
    half the examples): a value replaced, negated, nudged, nested or
    dropped, a list item repeated, or a key renamed or added."""
    doc = copy.deepcopy(doc)
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        node, key = draw(st.sampled_from(_positions(doc)))
        old = node[key]
        edit = draw(st.sampled_from(["replace", "negate", "nudge", "nest",
                                     "drop", "repeat", "rename", "add"]))
        if edit == "replace":
            node[key] = draw(value)
        elif edit in ("negate", "nudge") and type(old) is int:
            node[key] = -old if edit == "negate" else old + draw(small)
        elif edit == "nest":
            node[key] = [old]
        elif edit == "drop":
            del node[key]
        elif edit == "repeat" and isinstance(node, list):
            node.insert(key, copy.deepcopy(old))
        elif edit == "rename" and isinstance(node, dict):
            node[key + "s"] = node.pop(key)
        elif edit == "add" and isinstance(node, dict):
            node["extra"] = old
        if not doc:
            break
    return json.dumps(doc).replace(f'"{LONG}"', LONG_TEXT)


STRAY = [["-k", "0"], ["-k", "9"], ["-k", "-1"], ["-k", "x"], ["-h"],
         ["--sets"], ["--bogus"], []]


@st.composite
def argvs(draw):
    """A command; a document, a sequence for four in five of the commands
    that read only sequences and for half of the others; some of the
    command's own options, `-k` at most n; and now and then a stray one."""
    command = draw(st.sampled_from(COMMANDS))
    _, _, stage, flags = cli._COMMANDS[command]
    fans = st.one_of(fan_documents(), st.sampled_from(RECOGNIZE))
    tower = command in ("check", "classify", "render")
    kinds = [sequence_documents()] * (1 if tower else 4) + [fans]
    doc = draw(draw(st.sampled_from(kinds)))
    own = [[flag] for flag in flags] + [["-o", "out.json"]] + (
        [["-k", str(k)] for k in range(1, doc.get("n", 8) + 1)]
        if stage else [])
    tail = draw(st.lists(st.sampled_from(own), max_size=2, unique_by=str))
    if draw(st.sampled_from([False] * 9 + [True])):
        tail.append(draw(st.sampled_from(STRAY)))
    return [command, edited(draw, doc), *sum(tail, [])]


def run(argv):
    """(exit code, seconds) of one in-process `main`."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as done:  # argparse: help, or a usage error
        code = done.code
    return code, time.perf_counter() - start


def test_every_input_ends_in_a_documented_exit(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    written = tmp_path / "out.json"

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(argvs())
    def ends_documented(argv):
        written.unlink(missing_ok=True)
        code, seconds = run(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err
        if code in (2, 3):
            assert out == "" and not written.exists(), argv
        assert seconds <= 2.0, argv

    ends_documented()
