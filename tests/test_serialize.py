"""The canonical encoder against the stdlib encoder it replaced.

`encode_canonical` writes lists of integers, and lists of such rows, with
one join per list; the oracle `helpers.reference_canonical` guards big
integers and then runs ``json.dumps(..., sort_keys=True, indent=2)``.  The
two must agree byte for byte on every document with string keys.  A
top-level value may instead be a stream of item texts from the item
encoders: the document must read the same as with the list, and the stream
is consumed only as chunks are taken.  Integer texts come from a table of
-1024..1024 that never stores a miss.

Each list shape has one writer: `int_list` and `int_rows` write exactly what
``json.dumps(value, indent=2)`` writes once big integers are quoted, at any
nesting depth, and their `Written` text is copied verbatim into a document.
The `numbers` and `total_chern` streams, written one index-set size at a
time, match the former item loops (`helpers.reference_number_texts`,
`helpers.reference_term_texts`) on seeded and on zero-heavy tables.

`sequence_from_doc` gives the sequence the public constructor gives on the
parsed entries, and a malformed document exits with its pinned code and one
stderr line, the parse error of a triple winning over a range error of an
earlier key.  A well-typed document is checked by sweeps, with no check of
one entry at a time, and constructs its sequence once, by
`IntegralSequence._of`, never entering the constructor.  On seeded documents
with faults of every kind it raises what the former two-sweep ingest
(`helpers.reference_sequence_ingest`) raised, with the same message.

A table's item streams may be given the writer `int_writer` picks from the
table's largest magnitude, C `int.__repr__` when no int is stored or
quoted, and write the same texts as with `_int_text`.

The list and object frames are built once per process, in caches that
10,000 documents of distinct key sets and deep nesting keep within their
size limit.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import product

import pytest

from bott_towers import (IntegralSequence, ValidationError, cli,
                         encode_canonical)
from bott_towers import sequences as SEQUENCES
from bott_towers.charts import _prefix_rows
from bott_towers import serialize as SERIALIZE
from bott_towers.cohomology import _chern_presentation, _total_chern_table
from bott_towers.sequences import _bott_table
from bott_towers.serialize import (Written, _int_text, cone_texts,
                                   encode_chunks, int_list, int_rows,
                                   number_texts, sequence_from_doc,
                                   term_texts)
from helpers import (random_sequence, reference_canonical,
                     reference_number_texts, reference_sequence_ingest,
                     reference_term_texts)

LIMIT = 2 ** 53
EDGE_INTS = [LIMIT - 1, -(LIMIT - 1), LIMIT, -LIMIT, 2 ** 80, 0, -1]

FIXED = [
    {},
    [],
    {"a": [], "b": {}, "c": [[], {}, [[]]]},
    {"rows": [[1, 2], [], [3]], "n": 3},
    {"rows": [[], ()], "mixed": [(1, 2), [3], (-4,)]},
    {"big": EDGE_INTS, "rows": [EDGE_INTS, [1, True, 2], [False]]},
    {"mixed": [1, None, 2.5, "x", True, -0.0], "nan": float("nan")},
    {"tuple": (1, (2, 3), ()), "text": "café ☃ \"q\"\n"},
    {"über": 1, "b": 2, "A": 3},
    LIMIT,
    -LIMIT + 1,
    "plain",
    None,
]


@pytest.mark.parametrize("doc", FIXED, ids=range(len(FIXED)))
def test_fixed_documents_match_reference(doc):
    assert encode_canonical(doc) == reference_canonical(doc)


def test_unsupported_values_still_raise():
    with pytest.raises(TypeError):
        encode_canonical({"set": {1, 2}})


class TestStreamSlot:
    def test_item_encoders_match_the_lists(self):
        k = 8  # tables indexed by mask, with zeros among the coefficients
        table = [0 if m % 7 == 3 else (-1) ** m * 3 ** (m % 60)
                 for m in range(2 ** k)]  # past 2^53
        sets = sorted((tuple(j + 1 for j in range(k) if mask >> j & 1)
                       for mask in range(1, 2 ** k)),
                      key=lambda ids: (len(ids), ids))
        values = [table[sum(1 << (j - 1) for j in ids)] for ids in sets]
        terms = sorted(((tuple(j + 1 for j in range(k) if mask >> j & 1),
                         value) for mask, value in enumerate(table) if value),
                       key=lambda term: (len(term[0]), term[0]))
        streamed = {"a": 0,
                    "cones": cone_texts(3),
                    "numbers": number_texts(table),
                    "total": term_texts(table),
                    "z": {"empty": []}}
        listed = {"a": 0,
                  "cones": [[2 * i + w[i] for i in range(3)]
                            for w in product((0, 1), repeat=3)],
                  "numbers": [{"set": list(ids), "value": value}
                              for ids, value in zip(sets, values)],
                  "total": [[list(ids), coeff] for ids, coeff in terms],
                  "z": {"empty": []}}
        assert encode_canonical(streamed) == reference_canonical(listed)

    def test_empty_stream_is_an_empty_list(self):
        assert encode_canonical({"n": iter(())}) == '{\n  "n": []\n}\n'

    def test_stream_is_consumed_as_chunks_are_taken(self):
        taken = []

        def items():
            for value in (1, 2):
                taken.append(value)
                yield from term_texts([0, value])

        chunks = encode_chunks({"a": items(), "b": 1})
        assert next(chunks) == '{\n  "a": '
        assert taken == []
        rest = "".join(chunks)
        assert taken == [1, 2]
        assert rest.endswith('\n  ],\n  "b": 1\n}\n')


def dumped(value, depth):
    """``json.dumps(value, indent=2)``, big integers quoted, nested `depth`
    levels deep."""
    return reference_canonical(value)[:-1].replace("\n", "\n" + "  " * depth)


WRITER_CASES = [  # (writer, value): empty, single, ragged, big-int shapes
    (int_list, []), (int_list, [7]), (int_list, (0, -1, 1024, -1025)),
    (int_list, EDGE_INTS),
    (int_rows, []), (int_rows, [[]]), (int_rows, [()]), (int_rows, [[5]]),
    (int_rows, [[1, 2, 3], [], [4]]), (int_rows, ((1,), (2, 3), ())),
    (int_rows, [EDGE_INTS, [2 ** 80], [-LIMIT, 7]]),
]


class TestWriters:
    @pytest.mark.parametrize("depth", range(4))
    @pytest.mark.parametrize("writer, value", WRITER_CASES,
                             ids=range(len(WRITER_CASES)))
    def test_fixed_shapes_match_json_dumps(self, writer, value, depth):
        text = writer(value, depth)
        assert type(text) is Written
        assert text == dumped(value, depth)

    def test_any_shape_matches_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ints = st.one_of(st.integers(-2 ** 60, 2 ** 60),
                         st.sampled_from(EDGE_INTS))
        row = st.one_of(st.lists(ints, max_size=6),
                        st.lists(ints, max_size=6).map(tuple))
        depths = st.integers(0, 4)

        @hypothesis.settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(row, st.lists(row, max_size=5), depths)
        def matches(values, rows, depth):
            assert int_list(values, depth) == dumped(values, depth)
            assert int_rows(rows, depth) == dumped(rows, depth)

        matches()

    def test_written_text_is_copied_verbatim(self):
        doc = {"a": int_rows([[1, -2], []]), "b": {"c": int_list([3], 2)},
               "d": "[1]"}
        listed = {"a": [[1, -2], []], "b": {"c": [3]}, "d": "[1]"}
        assert encode_canonical(doc) == reference_canonical(listed)


def zero_heavy(k, seed):
    """A table of 2^k values, nine in ten of them 0, the others up to 2^60
    in magnitude."""
    rng = random.Random(seed)
    return [rng.randint(-2 ** 60, 2 ** 60) if rng.random() < 0.1 else 0
            for _ in range(2 ** k)]


class TestSizedStreams:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_seeded_tables_match_the_item_loops(self, n):
        c = random_sequence(random.Random(n), n, -3, 3)
        table = _bott_table(c, n)
        assert [*number_texts(table)] == [*reference_number_texts(table)]
        table = _total_chern_table(_chern_presentation(c, n))
        assert [*term_texts(table)] == [*reference_term_texts(table)]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_zero_heavy_tables_match_the_item_loops(self, n):
        tables = [_bott_table(IntegralSequence.zero(n), n),
                  _total_chern_table(
                      _chern_presentation(IntegralSequence.zero(n), n)),
                  zero_heavy(n, n), [0] * 2 ** n]
        for table in tables:
            assert [*number_texts(table)] == [*reference_number_texts(table)]
            assert [*term_texts(table)] == [*reference_term_texts(table)]


class TestIntWriter:
    """A table's writer, chosen from its largest magnitude, writes the
    texts of `_int_text`; C `int.__repr__` only between 1024 and 2^53.
    `int_writer` reads that magnitude from the table by C-level max and
    min and picks what the former per-entry `max(table, key=abs)` did."""

    @pytest.mark.parametrize("largest", [0, 7, 1024, -1024, 1025, -1025,
                                         LIMIT - 1, -(LIMIT - 1), LIMIT,
                                         -LIMIT, 2 ** 80])
    def test_streams_match_the_default_writer(self, largest):
        rng = random.Random(largest)
        table = [rng.randint(-abs(largest), abs(largest)) for _ in range(64)]
        table[rng.randrange(1, 64)] = largest
        text = SERIALIZE.int_writer(table)
        assert (text is int.__repr__) == (1024 < abs(largest) < LIMIT)
        assert [*number_texts(table, text)] == [*number_texts(table)]
        assert [*term_texts(table, text)] == [*term_texts(table)]

    @pytest.mark.parametrize("low, high", [
        (-1024, 1023), (-1025, 1024), (-1024, 1025), (-1025, 1025),
        (-(LIMIT - 1), LIMIT - 2), (-LIMIT, LIMIT - 1),
        (-(LIMIT - 1), LIMIT), (-LIMIT, LIMIT), (-2 ** 80, 1)])
    def test_either_extreme_picks_the_writer(self, low, high):
        """The negative extreme counts as much as the positive one."""
        for table in ([0, high, low, 1], [low, 0, 5, high]):
            text = SERIALIZE.int_writer(table)
            largest = max(table, key=abs)  # the former choice
            assert (text is int.__repr__) == (
                1024 < abs(largest) < LIMIT) == (
                1024 < max(high, -low) < LIMIT)
            assert [*term_texts(table, text)] == [*term_texts(table)]

    @pytest.mark.parametrize("bound", [3, 2 ** 12, 2 ** 40, 2 ** 60])
    def test_charts_match_the_default_writer(self, bound):
        c = random_sequence(random.Random(bound), 6, -bound, bound)
        table = _bott_table(c, 6)
        text = SERIALIZE.int_writer(table)
        assert ([*SERIALIZE.chart_texts(_prefix_rows(table, 6), text)]
                == [*SERIALIZE.chart_texts(_prefix_rows(table, 6))])

    def test_an_integer_too_long_is_refused(self):
        for table in ([3, -10 ** 5000, 10 ** 4000],
                      [-10 ** 4000, 10 ** 5000, 0]):
            with pytest.raises(ValidationError, match="output integer"):
                SERIALIZE.int_writer(table)


OVER_LIMIT = "9" * 5000  # more digits than int() converts
MALFORMED_SEQUENCES = [  # (document, exit code, stderr line)
    ('{"n": 3, "entries": [[1, 2, true]]}', 3,
     "entry c(1,2): expected an integer, got a boolean"),
    ('{"n": 3, "entries": [[1, 2, 1.0]]}', 3,
     "entry c(1,2): expected an integer, got float"),
    ('{"n": 3, "entries": [[1, 2, "x1"]]}', 3,
     "entry c(1,2): not a decimal integer: 'x1'"),
    ('{"n": 3, "entries": [[1, 2, "%s"]]}' % OVER_LIMIT, 3,
     f"entry c(1,2): not a decimal integer: {OVER_LIMIT!r}"),
    ('{"n": 3, "entries": [[1, 2, 1], [1, 2, 0]]}', 3,
     "duplicate sequence entry (1, 2)"),
    ('{"n": 3, "n": 3}', 3, "duplicate key 'n' in a JSON object"),
    ('{"n": 0}', 3, "n must be >= 1, got 0"),
    ('{"n": 0, "entries": [[1, 2, true]]}', 3,
     "entry c(1,2): expected an integer, got a boolean"),
    ('{"n": 3, "entries": [[2, 1, 0]]}', 3,
     "entry key (2,1) outside 1 <= i < j <= 3"),
    ('{"n": 3, "entries": [[1, 4, 1], [1, 2, true]]}', 3,
     "entry c(1,2): expected an integer, got a boolean"),
    ('{"n": 3, "entries": [[1, 4, 1], [0, 2, 1]]}', 3,
     "entry key (1,4) outside 1 <= i < j <= 3"),
    ('{"n": 3, "m": 3}', 3, "sequence document: unknown key(s) ['m']"),
    ('{"n": 3, "entries": [[1, 2]]}', 3,
     "sequence entry must be an [i, j, value] triple, got [1, 2]"),
    ('{"n": 3, "entries": [{"i": 1}]}', 3,
     "sequence entry must be an [i, j, value] triple, got {'i': 1}"),
    ('{"n": "3", "entries": [[1, 3, "-2"]]}', 0, None),
]


class TestSequenceIngest:
    def test_matches_the_public_constructor(self):
        rng = random.Random(20030601)
        for _ in range(200):
            n = rng.randint(1, 14)
            pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
            chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
            entries = {pair: rng.randint(-3, 3) for pair in chosen}
            entries.update({pair: 0 for pair in pairs if rng.random() < 0.1})
            triples = [[i, j, str(v) if rng.random() < 0.2 else v]
                       for (i, j), v in entries.items()]
            doc = {"n": n, "entries": triples}
            c = sequence_from_doc(json.loads(json.dumps(doc)))
            expected = IntegralSequence(n, entries)
            assert (c.n, c.entries()) == (expected.n, expected.entries())
            assert c == expected and hash(c) == hash(expected)
            assert all(value for _, _, value in c.entries())

    @pytest.mark.parametrize("doc, code, line", MALFORMED_SEQUENCES,
                             ids=range(len(MALFORMED_SEQUENCES)))
    def test_malformed_documents_keep_their_exit(self, doc, code, line,
                                                 capsys):
        assert cli.main(["numbers", doc]) == code
        out, err = capsys.readouterr()
        if line is None:
            assert out and err == ""
        else:
            assert (out, err) == ("", f"error: {line}\n")


class TestIntegerTexts:
    EDGES = [-1025, -1024, 1024, 1025,
             LIMIT - 1, -(LIMIT - 1), LIMIT, -LIMIT]

    @pytest.mark.parametrize("value", EDGES)
    def test_edges_match_the_reference(self, value):
        assert _int_text(value) == reference_canonical(value)[:-1]
        doc = {"list": [0, value, -1], "rows": [[value], [1, value]],
               "value": value}
        assert encode_canonical(doc) == reference_canonical(doc)

    def test_bool_in_a_row(self):
        doc = {"rows": [[1, True, 2], [False], [3, 4]]}
        assert encode_canonical(doc) == reference_canonical(doc)
        assert "      true,\n" in encode_canonical(doc)

    def test_misses_are_not_stored(self):
        table = _int_text.__self__
        assert len(table) == 2049
        for value in self.EDGES + [2 ** 80, -(10 ** 4299)]:
            _int_text(value)
        with pytest.raises(ValidationError):
            _int_text(10 ** 4300)
        assert len(table) == 2049

    @pytest.mark.parametrize("sets", [False, True])
    def test_digit_limit(self, sets, capsys):
        """b(1,2,3) = -D E: 4,300 digits are written quoted, 4,301 exit 3
        before the first byte."""
        d = "9" * 2150
        for e, code in ((d, 0), (d + "9", 3)):
            doc = json.dumps({"n": 3, "entries": [[1, 2, d], [2, 3, e]]})
            assert cli.main(["numbers", doc, *["--sets"] * sets]) == code
            out, err = capsys.readouterr()
            top = -int(d) * int(e)
            if code == 0:
                assert f'"{top}"' in out and err == ""
            else:
                assert out == "" and err.count("\n") == 1
                assert err.startswith("error: output integer: ")


def test_well_typed_sequence_runs_no_element_check(monkeypatch):
    triples = [[1, 2, 3], [1, 4, -2], [3, 4, 0], [2, 3, -1]]
    reads = []

    def height_only(value, what):
        assert what == "sequence height n", what
        reads.append(value)
        return value

    def height_check(x, what):
        assert what == "n", f"{what} was checked one by one"
        return x

    monkeypatch.setattr(SERIALIZE, "parse_int", height_only)
    monkeypatch.setattr(SEQUENCES, "_check_int", height_check)
    c = sequence_from_doc({"n": 4, "entries": triples})
    assert reads == [4]
    assert c.entries() == ((1, 2, 3), (1, 4, -2), (2, 3, -1))


def _mutate_triple(rng, triple, shape: bool):
    """The triple with one slot of a wrong type, or of a wrong shape; kept
    if it is already not a list of three."""
    if not (isinstance(triple, list) and len(triple) == 3):
        return triple
    if shape:
        return rng.choice([tuple(triple), str(triple), {"i": triple[0]},
                           triple[:2], triple[:rng.randrange(2)],
                           triple + [0]])
    slot = rng.randrange(3)
    value = triple[slot] if type(triple[slot]) is int else 1
    bad = rng.choice([True, False, 1.0, float(value), str(value), str(value),
                      f" {value}", "x", None, [value], {"v": 1}])
    return [bad if s == slot else x for s, x in enumerate(triple)]


# (fault, weight): slot types and triple shapes, repeated keys, zero
# values, i >= j, j > n, a bad n, a quoted triple, entries not a list
FAULTS = {"slot": 6, "shape": 2, "repeat": 2, "zero": 1, "order": 1,
          "beyond": 1, "height": 2, "quoted": 1, "entries": 0.2}


def _mutated_sequence_doc(rng):
    """A seeded sequence document with up to three faults."""
    n = height = rng.randint(1, 7)
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    triples = [[i, j, rng.randint(-3, 3)]
               for i, j in rng.sample(pairs, rng.randint(0, len(pairs)))]
    faults = rng.choices([*FAULTS], [*FAULTS.values()], k=rng.randint(0, 3))
    for fault in faults:
        at = rng.randrange(len(triples) + 1)
        i, j = sorted(rng.sample(range(1, n + 3), 2))
        if fault in ("slot", "shape") and triples:
            at = min(at, len(triples) - 1)
            triples[at] = _mutate_triple(rng, triples[at], fault == "shape")
        elif fault == "repeat" and triples:  # maybe with True for 1
            first = rng.choice(triples)
            if isinstance(first, list) and len(first) == 3:
                copy = [*first[:2], rng.randint(-3, 3)]
                if copy[0] == 1 and rng.random() < 0.5:
                    copy[0] = True
                triples.insert(at, copy)
        elif fault == "zero":
            triples.insert(at, [i, j, 0])
        elif fault == "order":
            triples.insert(at, [j, rng.choice([i, j]), 1])
        elif fault == "beyond":
            triples.insert(at, [rng.randint(1, n), n + rng.randint(1, 3), 2])
        elif fault == "height":  # with the entries' own faults, if any
            height = rng.choice([0, -1, True, 2.0, "x", "0", str(n), None])
        elif fault == "quoted":
            triples.insert(at, [str(i), j, str(rng.randint(-3, 3))])
        elif fault == "entries":
            triples = rng.choice([tuple(triples), {"e": 1}, "[]"])
            break
    return {"n": height, "entries": triples}


def _ingest_outcome(ingest, doc):
    """(n, entries) of the sequence, or (exception type, message)."""
    try:
        c = ingest(doc)
    except Exception as err:  # the type is compared, not assumed
        return type(err), str(err)
    return c.n, c.entries()


def test_ingest_matches_the_former_two_sweeps():
    """Every seeded fault gets the exception of the former ingest, with its
    message, and every valid document the same sequence."""
    rng = random.Random(31)
    kinds = Counter()
    for _ in range(4000):
        doc = _mutated_sequence_doc(rng)
        got = _ingest_outcome(sequence_from_doc, doc)
        assert got == _ingest_outcome(reference_sequence_ingest, doc), doc
        kinds[got[0] if isinstance(got[0], type) else "ok"] += 1
    assert kinds.keys() == {"ok", ValidationError}
    assert min(kinds.values()) > 1000


def test_well_typed_document_constructs_once(monkeypatch):
    """Its sequence is made once, by `_of`: it never enters the constructor,
    whose sweep would check the entries again."""
    calls = []
    init, wrap = IntegralSequence.__init__, IntegralSequence._of.__func__

    def counted(self, *args):
        calls.append("__init__")
        init(self, *args)

    def wrapped(cls, *args):
        calls.append("_of")
        return wrap(cls, *args)

    monkeypatch.setattr(IntegralSequence, "__init__", counted)
    monkeypatch.setattr(IntegralSequence, "_of", classmethod(wrapped))
    rng = random.Random(32)
    docs = [{"n": 3}, {"n": 3, "entries": []}, {"n": 2**60, "entries": []}]
    for _ in range(200):
        n = rng.randint(1, 9)
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        docs.append({"n": n, "entries": [
            [i, j, rng.randint(-3, 3)]
            for i, j in rng.sample(pairs, rng.randint(0, len(pairs)))]})
    for doc in docs:
        calls.clear()
        c = sequence_from_doc(doc)
        assert calls == ["_of"]
        assert c == reference_sequence_ingest(doc)


@pytest.mark.parametrize("n, triples", [
    (3, [[1, 2, True]]), (3, [[True, 2, 1]]), (3, [[1, 2, 1], [True, 2, 0]]),
    (3, [[1, 2, 0], [2, 3, 4]]), (3, [[1, 3, 0]]), (3, [[1, 2, 1], [1, 2, 1]]),
    (3, [[2, 3, 1], [1, 3, 0], [2, 3, 0]]), (3, [[0, 2, 1]]), (3, [[2, 2, 1]]),
    (3, [[3, 1, 5]]), (3, [[1, 4, 1]]), (3, [[1, 2, 1], [2, 4, True]]),
    (0, []), (-2, [[1, 2, 1]]), (1, [[1, 2, 0]])])
def test_faults_get_the_reference_outcome(n, triples):
    """A bool, a zero twist, a repeated pair or an index out of range: the
    exception and message, or the sequence, of the former ingest."""
    doc = {"n": n, "entries": triples}
    assert (_ingest_outcome(sequence_from_doc, doc)
            == _ingest_outcome(reference_sequence_ingest, doc))


def test_frame_caches_stay_bounded():
    """Documents with 10,000 distinct key sets, and nested deeper than a
    frame cache holds, leave each cache within its size limit."""
    for index in range(10_000):
        key = f"key{index}"
        doc = {key: [index, -index], "nested": {key: {"rows": [[index]]}}}
        if index % 1000 == 0:
            for depth in range(2 * SERIALIZE._KEPT):
                doc = {key: doc} if depth % 2 else [1, doc]
        assert encode_canonical(doc) == reference_canonical(doc)
    for cache in (SERIALIZE._frame, SERIALIZE._object_frame):
        info = cache.cache_info()
        assert info.maxsize == SERIALIZE._KEPT
        assert info.currsize <= info.maxsize


def test_encoder_matches_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.one_of(st.integers(-2 ** 60, 2 ** 60),
                     st.sampled_from(EDGE_INTS))
    int_lists = st.lists(st.one_of(ints, st.booleans()), max_size=6)
    rows = st.lists(st.one_of(int_lists, int_lists.map(tuple)), max_size=4)
    scalars = st.one_of(st.none(), st.booleans(), st.floats(),
                        st.text(max_size=6), ints)
    documents = st.recursive(
        st.one_of(scalars, int_lists, rows),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=24)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(documents)
    def matches(doc):
        assert encode_canonical(doc) == reference_canonical(doc)

    matches()
