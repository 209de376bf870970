"""Command-line surface: canonical JSON, exit codes, determinism, SVG.

Core claims:

1. Exit codes separate the failure families: 0 success, 2 unreadable input
   or bad usage, 3 well-formed but invalid data, 4 mathematical rejection.
   A stage outside 1..n exits 3 with one line naming the range on each
   command that takes -k.
2. Every document is canonical JSON: sorted keys, two-space indent, one
   trailing newline, integers of magnitude >= 2^53 as decimal strings (and
   accepted back as strings, in exactly the form written), ray indices
   0-based.  A field or item that must be an array and is not is invalid
   data.
3. Outputs are byte-identical across repeated runs, including SVG, and the
   -o file contents equal the stdout of an identical run.
4. classify prints its rejection document on stdout and still exits 4;
   check folds rejections of individual predicates into false booleans.
   Inputs deeper than the recursion limit (JSON nesting, or more ray
   pairs than stack frames), repeated JSON keys, and fans whose ray
   pairing search would run for hours still end in a documented exit code.
5. The cohomology and bundle documents of seeded sequences at k = 1..11,
   of every ring bench document of both seeds and of towers with twists
   of 2^53 and more are byte-identical to documents written from the
   reference oracles, on stdout and through -o.  The cohomology document
   is streamed from the flat Chern table, never from a listed class, with
   cancelled terms omitted; a stage above 20 exits 3 before any table is
   built or any column read.  Neither command calls
   IntegralSequence.column: their rows come from one pass over the stored
   twists.  A cohomology job checks its stage once; presentation, betti
   and cohomology_ring each keep their own check.
6. The streamed documents (fan, charts, numbers --sets, with and without
   --oracle and -k) are byte-identical to the reference oracles on stdout
   and through -o, big integers included.  Oracle comparisons, and the
   refusal of an integer too long to write, run before the first byte, -o
   leaves no partial file, and a streamed run holds far less memory than
   the document it writes.  numbers and charts read one
   flat Bott table per job, which a stage above 20 refuses with exit 3
   before it is built; the ring and recognition commands build none.
   numbers --sets and --oracle read their Bott matrix from that table and
   their C matrix from the stored twists, with no row kernel and no column
   read; plain numbers builds no table and runs the row kernel.  fan
   refuses a stage above 20 the same way, before any cone.
7. check is witness first: on scrambled towers, acceptance test 08's fans
   and rejects of every kind its document equals the four verdicts
   computed independently, and it answers towers up to k = 10 without a
   cone determinant.  check and classify agree: on those fans, more
   seeded rejects and the tower fans of the sequence documents, check
   reports smooth, complete and a crosspolytope exactly when classify
   accepts, and then the Fano verdict of the recovered tower.  BOTT_SEED
   is ignored, check has no --probes option, and each subcommand of the
   one argparse parser accepts exactly its pinned option strings.  An argv
   in the closed grammar of `cli._plain_args` (every bench deck argv) is
   read into the namespace the command's subparser gives and constructs no
   parser; any other, help, usage and error argv among them, builds the
   one full parser and prints the bytes and exit code of a prebuilt one,
   and repeated calls in one process answer as calls through parsers
   built for each.
8. A sequence document is read from its tower's 2k rays, and no cone of it
   is listed: check and classify print the bytes of the references on the
   expanded fan, finish at height 30 as fast as at height 1, and render
   refuses a dimension other than 2 before any cone, and a sequence height
   other than 2 before its Bott matrix.
9. check and an accepted classify write their documents from fixed frames:
   on every `recognize` document at both bench seeds, the seeded rejects
   and towers with twists of magnitude 2^53 and more, the bytes equal the
   general encoder's on `_verdicts` and `classification_to_doc`.  Layers
   are resolved once per process, and each function is still read from
   its module at every call: after one job of every command, a function
   replaced in its module is the one the next job calls.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

import pytest

from helpers import (
    RECOGNITION_FAN_SETS,
    child_env,
    deck_argvs,
    random_sequence,
    reference_bott_matrix,
    reference_bundle_doc,
    reference_canonical,
    reference_charts_doc,
    reference_check_doc,
    reference_classify,
    reference_cohomology_doc,
    reference_fan_doc,
    reference_numbers_doc,
    reject_fans,
    tower_ladder,
)

BIG = 2 ** 54  # one bit past the precision guard threshold

HIRZEBRUCH_SEQ = '{"n": 2, "entries": [[1, 2, 2]]}'
HIRZEBRUCH_FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],'
                  ' "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}')
THREE_SEQ = '{"n": 3, "entries": [[1, 2, 1], [1, 3, -2], [2, 3, 1]]}'
PLANE_FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],'
             ' "cones": [[0, 1], [1, 2], [0, 2]]}')
PUNCTURED_FAN = ('{"dim": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],'
                 ' "cones": [[0, 2], [0, 3], [1, 2]]}')
OVERLAP_FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [1, 1], [2, 1]],'
               ' "cones": [[0, 1], [0, 3], [1, 2], [2, 3]]}')
# seven rays, consecutive pairs as cones, winding twice around the origin
DOUBLE_WRAP_FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1], [0, -1],'
                   ' [1, 1], [-1, 0], [1, -1]], "cones": [[0, 1], [1, 2],'
                   ' [2, 3], [3, 4], [4, 5], [5, 6], [0, 6]]}')
# 2,100 rays and no cones: every two rays may pair, so the matching has
# 1,050 pairs, more than the interpreter's default recursion limit
CONE_LESS_FAN = json.dumps({"dim": 2, "rays": [[1, t] for t in range(2100)],
                            "cones": []})
DEEP_JSON = '{"n": 2, "entries": ' + "[" * 100000 + "]" * 100000 + "}"


def clique_fan(sizes, cone_less=0):
    """A 2-D fan whose never-cofaced graph is cliques of the given sizes.

    Rays in different cliques share a cone; the first ``cone_less`` rays
    share none.  With two odd cliques, or one cone-less ray and three odd
    cliques (a Tutte barrier), the graph has no perfect matching, and the
    pairing search backtracks a number of times exponential in its size.
    """
    group = [None] * cone_less
    for g, size in enumerate(sizes):
        group += [g] * size
    cones = [[a, b] for a in range(cone_less, len(group))
             for b in range(a + 1, len(group)) if group[a] != group[b]]
    return json.dumps({"dim": 2, "rays": [[1, t] for t in range(len(group))],
                       "cones": cones})


HOSTILE_FANS = {"two_odd_cliques": clique_fan((15, 15)),
                "tutte_barrier": clique_fan((11, 11, 11), cone_less=1)}


def run_cli(*args, env_extra=None):
    return subprocess.run([sys.executable, "-m", "bott_towers", *args],
                          capture_output=True, text=True,
                          env=child_env(**(env_extra or {})))


def timed_cli(*args):
    """The finished run and its wall seconds; the timeout stops a run that
    builds a refused table after all."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "bott_towers", *args],
                            capture_output=True, text=True, timeout=10,
                            env=child_env())
    return result, time.perf_counter() - start


def stdout_doc(result):
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# ===================================================================
# 1. Exit codes
# ===================================================================

class TestExitCodes:
    def test_success(self):
        assert run_cli("numbers", '{"n": 1}').returncode == 0

    def test_malformed_json(self):
        result = run_cli("numbers", '{"n": 1')
        assert result.returncode == 2
        assert result.stderr

    def test_missing_input_file(self):
        assert run_cli("numbers", "/no/such/input.json").returncode == 2

    def test_unknown_flag(self):
        assert run_cli("numbers", '{"n": 1}', "--bogus").returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_validation_error(self):
        result = run_cli("numbers", '{"n": 0}')
        assert result.returncode == 3
        assert result.stderr

    def test_stage_out_of_range(self):
        assert run_cli("fan", '{"n": 2}', "-k", "5").returncode == 3

    @pytest.mark.parametrize("command", ["fan", "charts", "bundle",
                                         "cohomology"])
    @pytest.mark.parametrize("stage", ["0", "4", "-1"])
    def test_stage_refusal_bytes(self, command, stage, capsys):
        from bott_towers import cli

        # the handler's first library call checks the stage, once
        assert cli.main([command, '{"n": 3}', f"--stage={stage}"]) == 3
        assert capsys.readouterr() == (
            "", f"error: k={stage} outside 1..3\n")

    def test_non_integer_entry(self):
        assert run_cli("numbers",
                       '{"n": 2, "entries": [[1, 2, 2.5]]}').returncode == 3
        assert run_cli("numbers",
                       '{"n": 2, "entries": [[1, 2, 2.0]]}').returncode == 3

    @pytest.mark.parametrize("args", [
        ("numbers", '{"n": 2, "entries": 5}'),
        ("check", '{"dim": 2, "rays": 5, "cones": []}'),
        ("check", '{"dim": 2, "rays": [5], "cones": []}'),
        ("check", '{"dim": 2, "rays": [], "cones": 5}'),
        ("check", '{"dim": 2, "rays": [], "cones": [5]}'),
    ])
    def test_non_list_field(self, args):
        result = run_cli(*args)
        assert result.returncode == 3
        assert "expected a JSON array" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("text", ["1_0", " 3 ", "\u0663", "+3", "-"])
    def test_non_decimal_string(self, text):
        result = run_cli("numbers", json.dumps({"n": text}))
        assert result.returncode == 3
        assert "not a decimal integer" in result.stderr

    @pytest.mark.parametrize("command", ["numbers", "classify"])
    def test_deep_nesting_is_unreadable_input(self, command, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        result = run_cli(command, str(path))
        assert result.returncode == 2
        assert "cannot read input" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_non_utf8_file_is_unreadable_input(self, tmp_path, capsys):
        from bott_towers import cli

        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"n": 2}')
        assert cli.main(["numbers", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read input: ")

    def test_byte_order_mark_is_unreadable_input(self, tmp_path, capsys):
        from bott_towers import cli

        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"n": 2}')
        assert cli.main(["numbers", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot read input: Unexpected UTF-8 BOM (decode "
                "using utf-8-sig): line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("inline", ['\ufeff{"n": 2}', '\ufeff {"n": 2}'])
    def test_inline_byte_order_mark_is_unreadable_input(self, inline,
                                                         capsys):
        """Inline JSON after a BOM is refused as a file of its bytes is,
        not read as a file path."""
        from bott_towers import cli

        assert cli.main(["numbers", inline]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot read input: Unexpected UTF-8 BOM (decode "
                "using utf-8-sig): line 1 column 1 (char 0)\n")

    def test_integer_literal_over_the_digit_limit(self, capsys):
        from bott_towers import cli

        assert cli.main(["numbers", '{"n": ' + "1" * 5000 + "}"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("output", [False, True])
    def test_output_integer_over_the_digit_limit(self, output, tmp_path,
                                                 capsys):
        from bott_towers import cli

        # the Bott matrix holds D^3, of 6,003 digits
        d = '"' + "9" * 2001 + '"'
        doc = f'{{"n": 4, "entries": [[1, 2, {d}], [2, 3, {d}], [3, 4, {d}]]}}'
        target = tmp_path / "numbers.json"
        argv = ["numbers", doc, *(["-o", str(target)] if output else [])]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: output integer: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("output", [False, True])
    @pytest.mark.parametrize("argv, docs", [
        (["fan"], "chain"), (["charts"], "chain cancel"),
        (["cohomology"], "chain"), (["numbers", "--sets"], "chain cancel")])
    def test_streamed_document_writes_nothing_before_a_long_integer(
            self, argv, docs, output, tmp_path, capsys):
        from bott_towers import cli

        # A chain of 2,001-digit twists puts 6,003-digit integers in the
        # fan's rays, the charts, the Chern terms and the Bott matrix.  With
        # c(1,2) = c(1,3) = c(2,4) = -c(3,4) = D of 2,200 digits the
        # interval Bott numbers (the Bott matrix) stay short, but b({1,2,4})
        # = -D^2 has 4,400 digits; it comes late in the streamed lists.
        d, e = "9" * 2001, "9" * 2200
        sequences = {
            "chain": [[1, 2, d], [2, 3, d], [3, 4, d]],
            "cancel": [[1, 2, e], [1, 3, e], [2, 4, e], [3, 4, "-" + e]]}
        target = tmp_path / "doc.json"
        for name in docs.split():
            doc = json.dumps({"n": 4, "entries": sequences[name]})
            assert cli.main([*argv, doc, *(["-o", str(target)] if output
                                           else [])]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: output integer: ")
            assert err.count("\n") == 1
            assert list(tmp_path.iterdir()) == []

    def test_duplicate_entry(self):
        result = run_cli("numbers",
                         '{"n": 3, "entries": [[1, 2, 1], [1, 2, 5]]}')
        assert result.returncode == 3
        assert "duplicate sequence entry (1, 2)" in result.stderr

    @pytest.mark.parametrize("args", [
        ("numbers", '{"n": 3, "n": 4}'),
        ("classify", '{"dim": 1, "rays": [[1], [-1]], "rays": [[1], [-1]],'
                     ' "cones": [[0], [1]]}'),
    ])
    def test_duplicate_json_key(self, args):
        result = run_cli(*args)
        assert result.returncode == 3
        assert "duplicate key" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["check", "classify"])
    @pytest.mark.parametrize("name", sorted(HOSTILE_FANS))
    def test_pairing_search_budget(self, command, name, tmp_path):
        path = tmp_path / "hostile.json"
        path.write_text(HOSTILE_FANS[name])
        result = run_cli(command, str(path))
        assert result.returncode == 3
        assert "ray pairing search exceeded" in result.stderr
        assert result.stdout == ""

    def test_rejection_prints_document(self):
        result = run_cli("classify", PLANE_FAN)
        assert result.returncode == 4
        doc = json.loads(result.stdout)
        assert doc == {"reject": "ray count odd", "witness": {"ray_count": 3}}


# ===================================================================
# 2. numbers
# ===================================================================

class TestNumbers:
    def test_zero_sequence_tables(self):
        doc = stdout_doc(run_cli("numbers", '{"n": 2}'))
        assert doc == {"n": 2,
                       "c_matrix": [[1, 0], [0, 1]],
                       "bott_matrix": [[-1, 0], [0, -1]]}

    def test_hirzebruch_tables(self):
        doc = stdout_doc(run_cli("numbers", HIRZEBRUCH_SEQ))
        assert doc["c_matrix"] == [[1, 2], [0, 1]]
        assert doc["bott_matrix"] == [[-1, 2], [0, -1]]

    def test_sets_flag_lists_every_index_set(self):
        doc = stdout_doc(run_cli("numbers", HIRZEBRUCH_SEQ, "--sets"))
        assert doc["numbers"] == [{"set": [1], "value": -1},
                                  {"set": [2], "value": -1},
                                  {"set": [1, 2], "value": 2}]

    def test_oracle_flag(self):
        doc = stdout_doc(run_cli("numbers", '{"n": 3}', "--oracle"))
        assert doc["oracle"] == {"checked": 4, "match": True}

    def test_numbers_builds_the_table_once_per_job(self, monkeypatch,
                                                  capsys):
        from bott_towers import cli, sequences

        build, sizes = sequences._bott_table, []
        monkeypatch.setattr(
            sequences, "_bott_table",
            lambda c, n: sizes.append(n) or build(c, n))
        entries = [[i, j, (i * j) % 7 - 3]
                   for i in range(1, 10) for j in range(i + 1, 11)]
        seq = json.dumps({"n": 10, "entries": entries})
        for flags, calls in [(["--sets", "--oracle"], 1), (["--sets"], 1),
                             (["--oracle"], 1), ([], 0)]:
            sizes.clear()
            assert cli.main(["numbers", *flags, seq]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert sizes == [10] * calls
            listed = 2 ** 10 - 1 if "--sets" in flags else 0
            assert len(doc.get("numbers", ())) == listed

    @pytest.mark.parametrize("argv", [
        ["charts", '{"n": 40}'],
        ["numbers", "--sets", '{"n": 40}'],
        ["numbers", "--sets", '{"n": 3000}'],
        ["numbers", "--oracle", '{"n": 3000}'],
    ])
    def test_bott_table_above_cap_exits_3_at_once(self, argv):
        _, baseline = timed_cli(argv[0], '{"n": 1}')
        result, elapsed = timed_cli(*argv)
        n = json.loads(argv[-1])["n"]
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"error: the Bott number table at stage k={n} has 2^{n} "
            "entries; stages above 20 are refused\n")
        # interpreter start-up aside, the refusal takes no time
        assert elapsed < baseline + 0.2

    @pytest.mark.parametrize("argv, k", [
        (["fan", '{"n": 40}'], 40),
        (["fan", '{"n": 30}', "-k", "21"], 21),
    ])
    def test_fan_above_cap_exits_3_at_once(self, argv, k):
        _, baseline = timed_cli("fan", '{"n": 1}')
        result, elapsed = timed_cli(*argv)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"error: the tower fan at stage k={k} has 2^{k} cones; "
            "stages above 20 are refused\n")
        assert elapsed < baseline + 0.2

    def test_fan_below_cap_of_a_tall_sequence(self, capsys):
        from bott_towers import IntegralSequence, cli

        assert cli.main(["fan", '{"n": 40}', "-k", "5"]) == 0
        assert capsys.readouterr().out == reference_canonical(
            reference_fan_doc(IntegralSequence(40), 5))

    def test_other_commands_build_no_table(self, monkeypatch, capsys):
        from bott_towers import cli, sequences

        def refuse(*args):
            raise AssertionError("_bott_table called")

        monkeypatch.setattr(sequences, "_bott_table", refuse)
        seq = json.dumps({"n": 6, "entries": [[1, 2, 2], [2, 5, -1]]})
        for argv in (["cohomology", seq, "--oracle"], ["bundle", seq],
                     ["check", seq], ["classify", seq], ["fan", seq],
                     ["check", HIRZEBRUCH_FAN], ["classify", HIRZEBRUCH_FAN],
                     ["numbers", seq]):
            assert cli.main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_table_jobs_read_both_matrices_from_held_data(
            self, density, monkeypatch, capsys):
        """With --sets or --oracle, B is read from the flat table and C from
        the stored twists: no row kernel runs and no column is read."""
        from bott_towers import (IntegralSequence, cli, sequence_to_doc,
                                 sequences)

        def refused(*args):
            raise AssertionError("the row kernel or a column read ran")

        rng = random.Random(3500 + int(10 * density))
        runs = []
        for n in range(1, 11):
            c = random_sequence(rng, n, -3, 3, density=density)
            seq, full = json.dumps(sequence_to_doc(c)), range(1, n + 1)
            base = {"n": n, "bott_matrix": reference_bott_matrix(c, full),
                    "c_matrix": [[c.value(i, j) if i <= j else 0
                                  for j in full] for i in full]}
            numbers = {"numbers": reference_numbers_doc(c)["numbers"]}
            oracle = {"oracle": {"checked": 2 ** n - 1 - n, "match": True}}
            for flags, extra in [(["--sets"], numbers), (["--oracle"], oracle),
                                 (["--sets", "--oracle"], {**numbers, **oracle})]:
                runs.append((["numbers", seq, *flags],
                             reference_canonical({**base, **extra})))
        monkeypatch.setattr(sequences, "_bott_rows", refused)
        monkeypatch.setattr(IntegralSequence, "column", refused)
        for argv, text in runs:
            assert cli.main(argv) == 0
            assert capsys.readouterr() == (text, "")

    def test_plain_numbers_runs_the_row_kernel(self, monkeypatch, capsys):
        from bott_towers import cli, sequence_from_doc, sequences

        def refuse(*args):
            raise AssertionError("_bott_table called")

        kernel, calls = sequences.bott_matrix, []
        monkeypatch.setattr(sequences, "_bott_table", refuse)
        monkeypatch.setattr(sequences, "bott_matrix",
                            lambda c, ids: calls.append(ids) or kernel(c, ids))
        assert cli.main(["numbers", THREE_SEQ]) == 0
        assert json.loads(capsys.readouterr().out)["bott_matrix"] == (
            reference_bott_matrix(sequence_from_doc(json.loads(THREE_SEQ)),
                                  (1, 2, 3)))
        assert calls == [(1, 2, 3)]

    def test_big_integers_round_trip_as_strings(self):
        seq = json.dumps({"n": 2, "entries": [[1, 2, str(BIG)]]})
        doc = stdout_doc(run_cli("numbers", seq))
        assert doc["c_matrix"][0][1] == str(BIG)
        assert doc["bott_matrix"][0][1] == str(BIG)
        negative = json.dumps({"n": 2, "entries": [[1, 2, str(-BIG)]]})
        doc = stdout_doc(run_cli("numbers", negative))
        assert doc["bott_matrix"][0][1] == str(-BIG)

    @pytest.mark.parametrize("value", [2 ** 60, -2 ** 60])
    def test_quoted_integer_round_trip(self, value):
        seq = json.dumps({"n": 2, "entries": [[1, 2, str(value)]]})
        first = run_cli("numbers", seq)
        written = stdout_doc(first)["c_matrix"][0][1]
        assert written == str(value)
        again = json.dumps({"n": 2, "entries": [[1, 2, written]]})
        assert run_cli("numbers", again).stdout == first.stdout

    def test_integers_below_threshold_stay_numbers(self):
        edge = 2 ** 53 - 1
        seq = json.dumps({"n": 2, "entries": [[1, 2, edge]]})
        doc = stdout_doc(run_cli("numbers", seq))
        assert doc["c_matrix"][0][1] == edge


# ===================================================================
# 3. fan and check
# ===================================================================

class TestFanAndCheck:
    def test_fan_document_frozen(self):
        doc = stdout_doc(run_cli("fan", HIRZEBRUCH_SEQ))
        assert doc == {"dim": 2,
                       "rays": [[1, 0], [-1, 2], [0, 1], [0, -1]],
                       "cones": [[0, 2], [0, 3], [1, 2], [1, 3]]}

    def test_check_bytes_frozen(self, tmp_path):
        fan_path = tmp_path / "fan.json"
        fan_result = run_cli("fan", HIRZEBRUCH_SEQ, "-o", str(fan_path))
        assert fan_result.returncode == 0
        result = run_cli("check", str(fan_path))
        assert result.returncode == 0
        assert result.stdout == ('{\n'
                                 '  "complete": true,\n'
                                 '  "crosspolytope": true,\n'
                                 '  "fano": false,\n'
                                 '  "smooth": true\n'
                                 '}\n')

    def test_check_accepts_sequence_document(self):
        doc = stdout_doc(run_cli("check", HIRZEBRUCH_SEQ))
        assert doc == {"smooth": True, "complete": True,
                       "fano": False, "crosspolytope": True}

    def test_check_fano_inside_boundary(self):
        doc = stdout_doc(run_cli("check", '{"n": 2, "entries": [[1, 2, 1]]}'))
        assert doc["fano"] is True

    def test_check_projective_plane(self):
        doc = stdout_doc(run_cli("check", PLANE_FAN))
        assert doc == {"smooth": True, "complete": True,
                       "fano": True, "crosspolytope": False}

    def test_check_incomplete_fan_fano_false(self):
        doc = stdout_doc(run_cli("check", OVERLAP_FAN))
        assert doc == {"smooth": True, "complete": False,
                       "fano": False, "crosspolytope": True}

    def test_check_cone_less_fan(self, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(CONE_LESS_FAN)
        doc = stdout_doc(run_cli("check", str(path)))
        assert doc == {"smooth": True, "complete": False,
                       "fano": False, "crosspolytope": False}

    def test_check_double_wrap_not_complete(self):
        result = run_cli("check", DOUBLE_WRAP_FAN)
        assert result.returncode == 0
        assert result.stdout == ('{\n'
                                 '  "complete": false,\n'
                                 '  "crosspolytope": false,\n'
                                 '  "fano": false,\n'
                                 '  "smooth": true\n'
                                 '}\n')


def check_doc(fan, capsys):
    """The `check` document of a fan, through cli.main in-process."""
    from bott_towers import cli, fan_to_doc

    assert cli.main(["check", json.dumps(fan_to_doc(fan))]) == 0
    return json.loads(capsys.readouterr().out)


class TestCheckWitnessFirst:
    @pytest.mark.parametrize("name", sorted(RECOGNITION_FAN_SETS))
    def test_agrees_with_independent_verdicts(self, name, capsys):
        for gf in RECOGNITION_FAN_SETS[name]():
            assert check_doc(gf, capsys) == reference_check_doc(gf)

    def test_no_cone_determinant_for_a_tower(self, monkeypatch, capsys):
        from bott_towers import fans
        from bott_towers.fans import _fano_condition

        towers = tower_ladder(6017, 10, 3)
        expected = [{"smooth": True, "complete": True, "crosspolytope": True,
                     "fano": _fano_condition(gf)} for gf in towers]
        computed = []

        def refuse(gf):
            computed.append(gf)
            raise AssertionError("a cone determinant was computed")

        monkeypatch.setattr(fans, "_cone_dets", refuse)
        assert [check_doc(gf, capsys) for gf in towers] == expected
        assert computed == []


def sequence_documents():
    """Seeded towers with k <= 10 and twists in [-3, 3], plus the zero
    towers, whose pairs all sum to zero so that order and matrix come out
    reversed, and the bounded-flag towers."""
    from bott_towers import IntegralSequence

    rng = random.Random(6020)
    towers = [random_sequence(rng, k, -3, 3) for k in range(1, 11)
              for _ in range(2)]
    return towers + [maker(k) for k in (2, 5, 9)
                     for maker in (IntegralSequence.zero,
                                   IntegralSequence.bounded_flag)]


class TestSequenceDocumentsFromRays:
    def test_bytes_match_the_expanded_fan_references(self, capsys):
        from bott_towers import (build_fan, classification_to_doc, cli,
                                 sequence_to_doc)

        for c in sequence_documents():
            gf = build_fan(c, c.n).as_general_fan()
            doc = json.dumps(sequence_to_doc(c))
            assert cli.main(["classify", doc]) == 0
            assert capsys.readouterr().out == reference_canonical(
                classification_to_doc(reference_classify(gf)))
            assert cli.main(["check", doc]) == 0
            assert capsys.readouterr().out == reference_canonical(
                reference_check_doc(gf))

    def test_no_cone_is_listed(self, monkeypatch, capsys):
        from bott_towers import GeneralFan, cli, fans

        def refuse(*args):
            raise AssertionError("the tower's cones were listed")

        monkeypatch.setattr(fans, "_tower_cones", refuse)
        monkeypatch.setattr(GeneralFan, "__init__", refuse)
        doc = json.dumps({"n": 12, "entries": [[1, 2, 2], [3, 12, -1]]})
        for command in ("check", "classify"):
            assert cli.main([command, doc]) == 0
            assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command, expected", [
        ("check", {"smooth": True, "complete": True, "fano": True,
                   "crosspolytope": True}),
        ("classify", {"n": 30, "entries": []}),
    ])
    def test_height_30_is_bounded(self, command, expected):
        _, baseline = timed_cli(command, '{"n": 1}')
        result, elapsed = timed_cli(command, '{"n": 30}')
        doc = stdout_doc(result)
        assert doc.get("sequence", doc) == expected
        # interpreter start-up aside, 30 stages take O(k^4) witness steps
        assert elapsed < baseline + 0.5


def agreement_fans(name):
    """The fans of one recognition set, of seeded rejects, or the tower
    fans of the sequence documents."""
    from bott_towers import build_fan

    if name == "seeded rejects":
        return reject_fans(random.Random(6021))
    if name == "sequence documents":
        return [build_fan(c, c.n) for c in sequence_documents()]
    return RECOGNITION_FAN_SETS[name]()


class TestCheckAgreesWithClassify:
    @pytest.mark.parametrize("name", [*sorted(RECOGNITION_FAN_SETS),
                                      "seeded rejects", "sequence documents"])
    def test_accepted_fans_and_fano_verdicts_agree(self, name):
        from bott_towers import build_fan, classify, is_fano
        from bott_towers.classify import _verdicts

        for fan in agreement_fans(name):
            verdicts, result = _verdicts(fan), classify(fan)
            accepted = (verdicts["smooth"] and verdicts["complete"]
                        and verdicts["crosspolytope"])
            assert accepted == result.ok, fan
            if accepted:
                c = result.sequence
                assert verdicts["fano"] == is_fano(build_fan(c, c.n)), fan


# ===================================================================
# 4. charts, bundle, cohomology
# ===================================================================

class TestCharts:
    def test_height_one_charts(self):
        doc = stdout_doc(run_cli("charts", '{"n": 1}'))
        assert doc == {"k": 1,
                       "charts": [{"code": [0], "monomials": [[1]]},
                                  {"code": [1], "monomials": [[-1]]}]}

    def test_codes_iterate_in_binary_order(self):
        doc = stdout_doc(run_cli("charts", '{"n": 2}'))
        assert [chart["code"] for chart in doc["charts"]] == [
            [0, 0], [0, 1], [1, 0], [1, 1]]

    def test_hirzebruch_mixed_chart(self):
        doc = stdout_doc(run_cli("charts", '{"n": 2, "entries": [[1, 2, 5]]}'))
        by_code = {tuple(chart["code"]): chart["monomials"]
                   for chart in doc["charts"]}
        assert by_code[(1, 0)] == [[-1, 0], [5, 1]]


class TestBundle:
    def test_quotient_and_named_bundles_frozen(self):
        doc = stdout_doc(run_cli("bundle", '{"n": 2, "entries": [[1, 2, 5]]}'))
        assert doc["k"] == 2
        assert doc["quotient"] == {
            "kernel_generators": [[1, 1, 0, 5], [0, 0, 1, 1]],
            "action_weights": [[1, 0], [1, 0], [0, 1], [5, 1]]}
        assert doc["canonical_lambda"] == [0, -1]
        assert doc["lambda"] == [[-1, 0], [0, -1]]
        assert doc["lambda_perp"] == [5, 1]
        assert doc["tangent"] == [[1, 0], [1, 0], [0, 1], [5, 1]]
        assert "xi" not in doc

    def test_xi_present_below_top_stage(self):
        doc = stdout_doc(run_cli("bundle", '{"n": 2, "entries": [[1, 2, 5]]}',
                                 "-k", "1"))
        assert doc["xi"] == [5]
        assert doc["k"] == 1

    def test_each_column_is_read_once(self, monkeypatch, capsys):
        """Each column, xi's among them, is read once, in the one pass over
        the stored twists: `IntegralSequence.column` is never called."""
        from bott_towers import IntegralSequence, cli, sequence_to_doc

        def refused(self, j):
            raise AssertionError(f"column {j} read")

        monkeypatch.setattr(IntegralSequence, "column", refused)
        rng = random.Random(7100)
        for n in range(1, 9):
            c = random_sequence(rng, n, -3, 3)
            doc = json.dumps(sequence_to_doc(c))
            for k in range(1, n + 1):
                assert cli.main(["bundle", doc, "-k", str(k)]) == 0
                assert capsys.readouterr().out == reference_canonical(
                    reference_bundle_doc(c, k))


class TestCohomology:
    def test_hirzebruch_ring_frozen(self):
        doc = stdout_doc(run_cli("cohomology", HIRZEBRUCH_SEQ))
        assert doc["k"] == 2
        assert doc["relations"] == [[1], [2, 1]]
        assert doc["betti"] == [1, 2, 1]
        assert doc["euler_characteristic"] == 4
        assert doc["total_chern"] == [[[], 1], [[1], 4], [[2], 2], [[1, 2], 4]]

    def test_oracle_flag(self):
        doc = stdout_doc(run_cli("cohomology", HIRZEBRUCH_SEQ, "--oracle"))
        assert doc["oracle"] == {"checked": 5, "match": True}

    @pytest.mark.parametrize("name, fault, message", [
        ("_ranks", lambda ranks: [ranks[0] + 1, *ranks[1:]], r"betti\[0\]"),
        ("_ranks", lambda ranks: [*ranks, 1], "total rank"),  # 2^k + 1
        ("_total_chern_table", lambda table: [*table[:-1], table[-1] + 1],
         "Euler characteristic"),
    ])
    def test_oracle_mismatch_writes_nothing(self, name, fault, message,
                                            monkeypatch, capsys):
        from bott_towers import cli, cohomology

        build = getattr(cohomology, name)
        monkeypatch.setattr(cohomology, name,
                            lambda *a: fault(build(*a)))
        with pytest.raises(RuntimeError, match="oracle mismatch on " + message):
            cli.main(["cohomology", THREE_SEQ, "--oracle"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [[], ["--oracle"], ["-k", "2"]])
    def test_stage_is_checked_once(self, flags, monkeypatch, capsys):
        """A job checks its stage once; each public function still checks."""
        from bott_towers import (IntegralSequence, ValidationError, betti,
                                 cli, cohomology_ring, presentation)

        calls = []
        check = IntegralSequence.check_stage

        def counted(self, k):
            calls.append(k)
            return check(self, k)

        monkeypatch.setattr(IntegralSequence, "check_stage", counted)
        assert cli.main(["cohomology", THREE_SEQ, *flags]) == 0
        assert capsys.readouterr().out
        assert calls == [2 if flags[1:] == ["2"] else 3]
        c = IntegralSequence(3)
        for public in (presentation, betti, cohomology_ring):
            calls.clear()
            public(c, 2)
            assert calls == [2]
            with pytest.raises(ValidationError, match="outside 1..3"):
                public(c, 4)


def assert_bytes(argv, expected, tmp_path, capsys):
    """The run of `argv` exits 0 and writes `expected`, on stdout and
    through -o, leaving no other file."""
    from bott_towers import cli

    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "doc.json"
    assert cli.main([*argv, "-o", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    assert os.listdir(tmp_path) == ["doc.json"]


def reference_ring_doc(argv) -> dict:
    """The reference document of a `bundle` or `cohomology` argv."""
    from bott_towers import sequence_from_doc

    c = sequence_from_doc(json.loads(argv[1]))
    k = int(argv[argv.index("-k") + 1]) if "-k" in argv else c.n
    if argv[0] == "bundle":
        return reference_bundle_doc(c, k)
    return reference_cohomology_doc(c, k, oracle="--oracle" in argv)


class TestRingDocumentsAgainstReference:
    """Ordering or arithmetic faults in the ring show up byte for byte: on
    seeded towers, on every `ring` bench document of both seeds, and on
    twists that must be quoted, on stdout and through -o."""

    @pytest.mark.parametrize("k", range(1, 11))
    def test_cohomology_and_bundle_bytes(self, k, capsys):
        from bott_towers import cli, sequence_to_doc

        c = random_sequence(random.Random(7000 + k), k + 1, -3, 3)
        seq = json.dumps(sequence_to_doc(c))
        runs = [
            (["cohomology", seq, "-k", str(k), "--oracle"],
             reference_cohomology_doc(c, k)),
            (["cohomology", seq, "-k", str(k)],
             reference_cohomology_doc(c, k, oracle=False)),
            (["cohomology", seq],
             reference_cohomology_doc(c, k + 1, oracle=False)),
            (["bundle", seq, "-k", str(k)], reference_bundle_doc(c, k)),
            (["bundle", seq, "-k", str(k + 1)],
             reference_bundle_doc(c, k + 1)),
        ]
        for argv, expected in runs:
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == reference_canonical(expected)

    def test_every_deck_document(self, tmp_path, capsys):
        argvs = deck_argvs("ring")
        assert {argv[0] for argv in argvs} == {"bundle", "cohomology"}
        for argv in argvs:
            assert_bytes(argv, reference_canonical(reference_ring_doc(argv)),
                         tmp_path, capsys)

    @pytest.mark.parametrize("twist", [
        2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, -2 ** 53, 2 ** 80, -3 ** 60])
    def test_big_twists_are_quoted(self, twist, tmp_path, capsys):
        from bott_towers import IntegralSequence, sequence_to_doc

        c = IntegralSequence(4, {(1, 2): twist, (2, 3): -twist,
                                 (1, 4): twist + 1, (3, 4): 2})
        seq = json.dumps(sequence_to_doc(c))
        for argv in (["bundle", seq], ["bundle", seq, "-k", "3"],
                     ["cohomology", seq],
                     ["cohomology", seq, "-k", "3", "--oracle"]):
            text = reference_canonical(reference_ring_doc(argv))
            quoted = abs(twist) >= 2 ** 53
            assert (f'"{twist}"' in text) == quoted
            assert (f" {twist}" in text) == (not quoted)
            assert_bytes(argv, text, tmp_path, capsys)


class TestCohomologyTable:
    """`total_chern` is streamed from the flat coefficient table: a
    cancelled term is omitted, no class is listed, the stream stays small,
    and stages past the table cap are refused at once."""

    CANCELLING = '{"n": 2, "entries": [[1, 2, -2]]}'

    def test_cancelled_coefficient_is_omitted(self, capsys):
        from bott_towers import IntegralSequence, cli

        assert cli.main(["cohomology", self.CANCELLING]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["total_chern"] == [
            [[], 1], [[2], 2], [[1, 2], 4]]  # x_1: 2 + c(1,2) = 0
        assert out == reference_canonical(reference_cohomology_doc(
            IntegralSequence(2, {(1, 2): -2}), 2, oracle=False))

    def test_no_class_is_listed(self, monkeypatch, capsys):
        from bott_towers import CohomologyClass, cli, sequence_to_doc

        def refuse(self):
            raise AssertionError("terms() listed a class")

        monkeypatch.setattr(CohomologyClass, "terms", refuse)
        c = random_sequence(random.Random(7200), 8, -3, 3)
        assert cli.main(["cohomology", json.dumps(sequence_to_doc(c))]) == 0
        assert capsys.readouterr().out == reference_canonical(
            reference_cohomology_doc(c, 8, oracle=False))

    def test_traced_peak_at_k14(self, monkeypatch):
        import tracemalloc

        from bott_towers import cli, sequence_to_doc

        c = random_sequence(random.Random(9014), 14, -3, 3)
        argv = ["cohomology", json.dumps(sequence_to_doc(c))]
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"
        assert sink.count > 1.8 * 10 ** 6

    @pytest.mark.parametrize("n", [21, 40])
    def test_stage_above_cap_exits_3_at_once(self, n):
        _, baseline = timed_cli("cohomology", '{"n": 1}')
        result, elapsed = timed_cli("cohomology", json.dumps({"n": n}))
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"error: the total Chern class at stage k={n} has 2^{n} "
            "coefficients; stages above 20 are refused\n")
        # interpreter start-up aside, the refusal takes no time
        assert elapsed < baseline + 0.2

    @pytest.mark.parametrize("n", [40, 3000])
    def test_stage_above_cap_reads_no_column(self, n, monkeypatch, capsys):
        from bott_towers import IntegralSequence, cli

        def refused(self, j):
            raise AssertionError(f"column {j} read above the stage cap")

        monkeypatch.setattr(IntegralSequence, "column", refused)
        assert cli.main(["cohomology", json.dumps({"n": n})]) == 3
        assert capsys.readouterr() == ("", (
            f"error: the total Chern class at stage k={n} has 2^{n} "
            "coefficients; stages above 20 are refused\n"))

    @pytest.mark.parametrize("oracle", [False, True])
    def test_each_column_is_read_once(self, oracle, monkeypatch, capsys):
        """The Chern table reads the rows written as "relations", filled by
        one pass over the stored twists: `IntegralSequence.column` is never
        called."""
        from bott_towers import IntegralSequence, cli, sequence_to_doc

        def refused(self, j):
            raise AssertionError(f"column {j} read")

        monkeypatch.setattr(IntegralSequence, "column", refused)
        rng = random.Random(7200)
        for n in range(1, 9):
            c = random_sequence(rng, n, -3, 3)
            doc = json.dumps(sequence_to_doc(c))
            for k in range(1, n + 1):
                argv = ["cohomology", doc, "-k", str(k)]
                assert cli.main(argv + ["--oracle"] * oracle) == 0
                assert capsys.readouterr().out == reference_canonical(
                    reference_cohomology_doc(c, k, oracle=oracle))

    def test_stage_below_cap_still_runs(self, capsys):
        from bott_towers import IntegralSequence, cli

        assert cli.main(["cohomology", '{"n": 40}', "-k", "12"]) == 0
        assert capsys.readouterr().out == reference_canonical(
            reference_cohomology_doc(IntegralSequence(40), 12, oracle=False))


class TestTablesAgainstReference:
    """The streamed documents, byte for byte, on stdout and through -o."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_seeded_sequences(self, k, tmp_path, capsys):
        from bott_towers import sequence_to_doc

        c = random_sequence(random.Random(8000 + k), k, -3, 3)
        taller = random_sequence(random.Random(8100 + k), k + 2, -3, 3)
        seq, tall = (json.dumps(sequence_to_doc(s)) for s in (c, taller))
        runs = [
            (["fan", seq], reference_fan_doc(c, k)),
            (["charts", seq], reference_charts_doc(c, k)),
            (["numbers", seq, "--sets"], reference_numbers_doc(c)),
            (["numbers", seq, "--sets", "--oracle"],
             reference_numbers_doc(c, oracle=True)),
            (["fan", tall, "-k", str(k)], reference_fan_doc(taller, k)),
            (["charts", tall, "-k", str(k)], reference_charts_doc(taller, k)),
        ]
        for argv, expected in runs:
            assert_bytes(argv, reference_canonical(expected), tmp_path,
                         capsys)

    def test_big_bott_numbers_are_quoted(self, tmp_path, capsys):
        from bott_towers import IntegralSequence, sequence_to_doc

        c = IntegralSequence(5, {(i, i + 1): 2 ** 30 for i in range(1, 5)})
        seq = json.dumps(sequence_to_doc(c))
        for argv, expected in [
                (["numbers", seq, "--sets"], reference_numbers_doc(c)),
                (["charts", seq], reference_charts_doc(c, 5)),
                (["charts", seq, "-k", "4"], reference_charts_doc(c, 4)),
                (["fan", seq], reference_fan_doc(c, 5))]:
            text = reference_canonical(expected)
            assert f'"{2 ** 90}"' in text  # b({1, 2, 3, 4}) = 2^90
            assert_bytes(argv, text, tmp_path, capsys)

    def test_oracle_mismatch_writes_nothing(self, monkeypatch, capsys):
        from bott_towers import cli, sequences

        build = sequences._bott_table
        monkeypatch.setattr(sequences, "_bott_table",
                            lambda c, n: build(c, n)[:3] + [10 ** 6])
        with pytest.raises(RuntimeError, match="oracle mismatch"):
            cli.main(["numbers", HIRZEBRUCH_SEQ, "--sets", "--oracle"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("existing", [None, "old document\n"])
    def test_failed_output_leaves_no_partial_file(self, existing, monkeypatch,
                                                  tmp_path):
        from bott_towers import cli, serialize

        texts = serialize.chart_texts

        def broken(*args):
            yield next(texts(*args))
            raise RuntimeError("producer failed")

        monkeypatch.setattr(serialize, "chart_texts", broken)
        out = tmp_path / "charts.json"
        if existing is not None:
            out.write_text(existing)
        with pytest.raises(RuntimeError, match="producer failed"):
            cli.main(["charts", '{"n": 3}', "-o", str(out)])
        if existing is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["charts.json"]
            assert out.read_text() == existing

    def test_output_to_a_device_or_a_missing_directory(self, tmp_path,
                                                      capsys):
        from bott_towers import cli

        assert cli.main(["fan", HIRZEBRUCH_SEQ, "-o", os.devnull]) == 0
        assert not os.path.isfile(os.devnull)
        missing = str(tmp_path / "missing" / "doc.json")
        assert cli.main(["fan", HIRZEBRUCH_SEQ, "-o", missing]) == 2
        assert f"cannot write output: [Errno 2] No such file or directory: " \
               f"{missing!r}" in capsys.readouterr().err

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path):
        from bott_towers import cli

        target = tmp_path / "doc.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert cli.main(["fan", HIRZEBRUCH_SEQ, "-o", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["dim"] == 2


class CountingSink:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)


class TestStreamedMemory:
    """Traced peaks far below the document size: only a stream can pass."""

    @pytest.mark.parametrize("command, n, limit_mb", [
        (["charts"], 13, 16),
        (["numbers", "--sets"], 14, 6),
    ])
    def test_traced_peak(self, command, n, limit_mb, monkeypatch):
        import tracemalloc

        from bott_towers import cli, sequence_to_doc

        c = random_sequence(random.Random(9000 + n), n, -3, 3)
        argv = [*command, json.dumps(sequence_to_doc(c))]
        sink = CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
        assert sink.count > 2 * 10 ** 6


# ===================================================================
# 5. classify
# ===================================================================

class TestClassifyCommand:
    def test_product_from_sequence_document(self):
        doc = stdout_doc(run_cli("classify", '{"n": 2}'))
        assert doc == {"sequence": {"n": 2, "entries": []},
                       "order": [2, 1],
                       "matrix": [[0, 1], [1, 0]],
                       "ray_map": [2, 3, 0, 1]}

    def test_hirzebruch_fan_document(self):
        doc = stdout_doc(run_cli("classify", HIRZEBRUCH_FAN))
        assert doc["sequence"] == {"n": 2, "entries": [[1, 2, 2]]}
        assert doc["order"] == [1, 2]
        assert doc["matrix"] == [[1, 0], [0, 1]]
        assert doc["ray_map"] == [0, 2, 1, 3]

    def test_cone_less_fan_rejection(self, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(CONE_LESS_FAN)
        result = run_cli("classify", str(path))
        assert result.returncode == 4
        assert json.loads(result.stdout) == {
            "reject": "cone set not full binary cube",
            "witness": {"pairs": 1050, "dim": 2}}

    def test_punctured_square_rejection(self):
        result = run_cli("classify", PUNCTURED_FAN)
        assert result.returncode == 4
        doc = json.loads(result.stdout)
        assert doc == {"reject": "cone set not full binary cube",
                       "witness": {"missing_cone": [1, 3]}}


# ===================================================================
# 6. render
# ===================================================================

class TestRender:
    def test_requires_dimension_two(self):
        _, baseline = timed_cli("render", '{"n": 2}')
        for n in (3, 40):
            result, elapsed = timed_cli("render", json.dumps({"n": n}))
            assert result.returncode == 3
            assert result.stdout == ""
            assert result.stderr == ("error: rendering requires a "
                                     "two-dimensional fan, got dimension "
                                     f"{n}\n")
            # refused before any of the 2^n cones is listed
            assert elapsed < baseline + 0.2

    def test_sequence_height_refused_before_the_bott_matrix(
            self, monkeypatch, capsys):
        from bott_towers import cli, fans, sequences

        def refused(c, ids):
            raise AssertionError("a Bott matrix was built")

        monkeypatch.setattr(sequences, "bott_matrix", refused)
        monkeypatch.setattr(fans, "bott_matrix", refused)
        assert cli.main(["render", '{"n": 1000}']) == 3
        assert capsys.readouterr() == ("", (
            "error: rendering requires a two-dimensional fan, got "
            "dimension 1000\n"))

    def test_large_sequence_height_exits_at_once(self):
        _, baseline = timed_cli("render", '{"n": 2}')
        result, elapsed = timed_cli("render", '{"n": 1000}')
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == ("error: rendering requires a two-dimensional"
                                 " fan, got dimension 1000\n")
        assert elapsed < max(0.5, baseline + 0.2)

    def test_product_fan_svg(self):
        result = run_cli("render", '{"n": 2}')
        assert result.returncode == 0
        svg = result.stdout
        assert svg.startswith("<svg")
        assert 'width="600"' in svg and 'height="600"' in svg
        assert svg.count("<line") == 4
        assert svg.count("<polygon") == 4
        for label in ("(1, 0)", "(-1, 0)", "(0, 1)", "(0, -1)"):
            assert label in svg

    def test_hirzebruch_labels(self):
        result = run_cli("render", HIRZEBRUCH_FAN)
        assert result.returncode == 0
        assert "(-1, 2)" in result.stdout

    def test_byte_identical_runs(self):
        first = run_cli("render", HIRZEBRUCH_FAN)
        second = run_cli("render", HIRZEBRUCH_FAN)
        assert first.stdout == second.stdout

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "fan.svg"
        piped = run_cli("render", HIRZEBRUCH_FAN)
        written = run_cli("render", HIRZEBRUCH_FAN, "-o", str(out))
        assert written.returncode == 0
        assert out.read_text() == piped.stdout


# ===================================================================
# 7. determinism and environment
# ===================================================================

COMMAND_NAMES = ["numbers", "fan", "check", "charts", "bundle", "cohomology",
                 "classify", "render"]
# help, usage and error argv, which the plain reader leaves to argparse,
# and edges of the plain reader
PARSER_ARGV = [
    [], ["-h"], ["--help"],
    ["nosuch"], ["nosuch", HIRZEBRUCH_SEQ],
    ["-k", "2", "fan", HIRZEBRUCH_SEQ], ["--", "fan", HIRZEBRUCH_SEQ],
    *([name, "-h"] for name in COMMAND_NAMES),
    ["numbers"],
    ["numbers", "--bogus", HIRZEBRUCH_SEQ],
    ["numbers", HIRZEBRUCH_SEQ, "--bogus"],
    ["numbers", HIRZEBRUCH_SEQ, "--bogus", "--other=1"],
    ["fan", HIRZEBRUCH_SEQ, "-k", "x"],
    ["fan", HIRZEBRUCH_SEQ, "--stage=2"],
    ["fan", HIRZEBRUCH_SEQ, "--st", "2"],
    ["fan", HIRZEBRUCH_SEQ, "-k2"],
    ["fan", HIRZEBRUCH_SEQ, "--", "-k"],
    ["numbers", HIRZEBRUCH_SEQ, HIRZEBRUCH_SEQ],
    ["check", HIRZEBRUCH_SEQ, "extra"],
    ["numbers", HIRZEBRUCH_SEQ, "-k", "2"],
    ["numbers", HIRZEBRUCH_SEQ, "--se", "--or"],
    ["numbers", HIRZEBRUCH_SEQ, "--o"],  # ambiguous: --oracle, --output
    ["cohomology", HIRZEBRUCH_SEQ, "--orac", "--st", "1"],
    # edges of the plain reader, which declines them or reads them as
    # argparse does
    ["fan", HIRZEBRUCH_SEQ, "-k", "-1"],
    ["numbers", HIRZEBRUCH_SEQ, "-o", "-"],
    ["numbers", HIRZEBRUCH_SEQ, "-o", ""],
    ["numbers", ""],
    ["numbers", "-"],
    ["fan", HIRZEBRUCH_SEQ, "-k"],
    ["fan", HIRZEBRUCH_SEQ, "-k", " 2"],
    ["numbers", HIRZEBRUCH_SEQ, "-o", "a.json", "-o", "b.json"],
    ["numbers", HIRZEBRUCH_SEQ, "--sets", "--sets"],
    ["numbers", "--sets", "-o", "a.json", HIRZEBRUCH_SEQ],
    ["fan", "-k", "1", HIRZEBRUCH_SEQ],
    ["fan", HIRZEBRUCH_SEQ, "--sets"],
]


def argv_id(argv):
    return " ".join("SEQ" if arg == HIRZEBRUCH_SEQ else arg or "''"
                    for arg in argv) or "no-argument"


def subparsers(parser):
    """The subparsers of `parser`, by command name."""
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    return sub.choices


def main_outcome(cli, argv, capsys):
    """(exit code, stdout, stderr) of an in-process run, usage exits too."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("numbers", HIRZEBRUCH_SEQ, "--sets"),
        ("fan", HIRZEBRUCH_SEQ),
        ("check", HIRZEBRUCH_SEQ),
        ("classify", HIRZEBRUCH_FAN),
        ("cohomology", HIRZEBRUCH_SEQ),
    ])
    def test_repeated_runs_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout

    def test_seed_env_does_not_change_successful_classify(self):
        base = run_cli("classify", HIRZEBRUCH_FAN)
        seeded = run_cli("classify", HIRZEBRUCH_FAN,
                         env_extra={"BOTT_SEED": "7"})
        assert base.stdout == seeded.stdout

    def test_probes_option_is_gone(self):
        result = run_cli("check", HIRZEBRUCH_FAN, "--probes", "5")
        assert result.returncode == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["check", "classify"])
    def test_malformed_seed_env_is_ignored(self, command, monkeypatch,
                                           capsys):
        from bott_towers import cli

        monkeypatch.delenv("BOTT_SEED", raising=False)
        assert cli.main([command, HIRZEBRUCH_FAN]) == 0
        base = capsys.readouterr()
        monkeypatch.setenv("BOTT_SEED", "not-a-number")
        assert cli.main([command, HIRZEBRUCH_FAN]) == 0
        assert capsys.readouterr() == base

    def test_option_strings_are_pinned(self):
        from bott_towers import cli

        output, stage = {"-o", "--output"}, {"-k", "--stage"}
        expected = {"numbers": output | {"--sets", "--oracle"},
                    "fan": output | stage,
                    "check": output,
                    "charts": output | stage,
                    "bundle": output | stage,
                    "cohomology": output | stage | {"--oracle"},
                    "classify": output,
                    "render": output}

        def options(parser):
            return {s for action in parser._actions
                    for s in action.option_strings} - {"-h", "--help"}

        parser = cli._build_parser()
        assert options(parser) == set()
        assert {name: options(p) for name, p in subparsers(parser).items()} \
            == expected

    @pytest.mark.parametrize("argv", PARSER_ARGV, ids=argv_id)
    def test_one_subparser_parses_as_the_full_parser(self, argv, tmp_path,
                                                     monkeypatch, capsys):
        """An argv the plain reader declines goes to the full parser, built
        anew for each call, and answers as a prebuilt full parser does."""
        from bott_towers import cli

        monkeypatch.chdir(tmp_path)  # where the -o rows write
        names, built = [], []
        add_parser = argparse._SubParsersAction.add_parser
        init = argparse.ArgumentParser.__init__

        def counted(action, name, **kwargs):
            names.append(name)
            return add_parser(action, name, **kwargs)

        def constructed(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        def outcome():  # with the files it wrote, which it then removes
            run = main_outcome(cli, argv, capsys)
            files = sorted(tmp_path.iterdir())
            written = {f.name: f.read_text() for f in files}
            for f in files:
                f.unlink()
            return run, written

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", constructed)
        shipped = outcome()
        # an argv the plain reader accepts constructs no parser at all; any
        # other builds the full parser once: itself and its 8 subparsers
        plain = (bool(argv) and argv[0] in COMMAND_NAMES
                 and cli._plain_args(argv[0], argv[1:]) is not None)
        first = len(names), len(built)
        assert first == ((0, 0) if plain else (8, 9))
        names.clear()
        built.clear()
        assert outcome() == shipped
        assert (len(names), len(built)) == first  # each call builds anew
        full = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: full)
        monkeypatch.setattr(cli, "_plain_args", lambda name, argv: None)
        assert outcome() == shipped

    @staticmethod
    def in_turn_and_fresh(cli, argvs, capsys, monkeypatch, workdir):
        """Outcomes of `argvs` run in turn in one process, and then each
        through the argparse parser built for that call alone (the plain
        reader declining every argv): per argv, (exit code, stdout, stderr, files
        it wrote in `workdir`).  Also, per argv of the first run, whether
        it constructed an ArgumentParser."""
        init = argparse.ArgumentParser.__init__
        built = []

        def constructed(parser, *args, **kwargs):
            built[-1] = True
            init(parser, *args, **kwargs)

        def outcomes():
            runs = []
            for argv in argvs:
                built.append(False)
                run = main_outcome(cli, argv, capsys)
                files = sorted(workdir.iterdir())
                runs.append((*run, {f.name: f.read_text() for f in files}))
                for f in files:
                    f.unlink()
            return runs

        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "__init__", constructed)
            in_turn = outcomes()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_plain_args", lambda name, argv: None)
            return in_turn, outcomes(), built[:len(argvs)]

    def test_repeated_calls_keep_no_state(self, tmp_path, monkeypatch,
                                          capsys):
        from bott_towers import cli

        monkeypatch.chdir(tmp_path)
        argvs = [
            ["numbers", THREE_SEQ, "--sets", "--oracle"],
            ["numbers", THREE_SEQ],  # --sets and --oracle must not leak
            ["fan", THREE_SEQ, "-k", "2"],
            ["fan", THREE_SEQ],  # nor -k
            ["fan", THREE_SEQ, "--bogus"], ["-h"], ["numbers", "-h"],
            ["nosuch", THREE_SEQ],
            ["numbers", '{"n": 0}'],  # exit 3
            ["classify", PUNCTURED_FAN],  # exit 4
            ["numbers", THREE_SEQ, "-o", "doc.json"],
            ["numbers", THREE_SEQ],  # nor -o
        ]
        in_turn, fresh, built = self.in_turn_and_fresh(
            cli, argvs * 2, capsys, monkeypatch, tmp_path)
        assert in_turn == fresh
        # only the help, usage error and unknown name build a parser
        assert built == ([False] * 4 + [True] * 4 + [False] * 4) * 2
        assert [run[0] for run in in_turn] == [0, 0, 0, 0, 2, 0, 0, 2, 3, 4,
                                               0, 0] * 2
        assert in_turn[10][1] == ""
        assert in_turn[10][3] == {"doc.json": in_turn[11][1]}
        assert in_turn[0][1] != in_turn[1][1]
        assert in_turn[2][1] != in_turn[3][1]

    def test_repeated_calls_answer_as_fresh_ones(self, tmp_path, monkeypatch,
                                                 capsys):
        """Short runs of argv drawn from the command names, the pinned
        option strings, strays and small documents."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from bott_towers import cli

        monkeypatch.chdir(tmp_path)
        documents = [[doc] for doc in (HIRZEBRUCH_SEQ, THREE_SEQ, '{"n": 0}',
                                       HIRZEBRUCH_FAN, PUNCTURED_FAN)] + [[]]
        heads = [[name] for name in COMMAND_NAMES] + [["-h"], ["--"],
                                                      ["nosuch"], []]
        options = [["--sets"], ["--oracle"], ["-k", "1"], ["-k", "2"],
                   ["--stage", "2"], ["--stage", "x"], ["-k"],
                   ["-o", "doc.json"], ["--output", "doc.json"], ["-h"],
                   ["--help"], ["--bogus"], ["--"], *documents]
        argv = st.builds(lambda head, doc, tail: head + doc + sum(tail, []),
                         st.sampled_from(heads), st.sampled_from(documents),
                         st.lists(st.sampled_from(options), max_size=3))

        @hypothesis.settings(max_examples=150, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.lists(argv, min_size=1, max_size=3))
        def in_turn_as_fresh(argvs):
            in_turn, fresh, built = self.in_turn_and_fresh(
                cli, argvs, capsys, monkeypatch, tmp_path)
            assert in_turn == fresh
            assert built == [not argv or argv[0] not in COMMAND_NAMES
                             or cli._plain_args(argv[0], argv[1:]) is None
                             for argv in argvs]

        in_turn_as_fresh()

    def test_plain_reader_reads_as_argparse(self):
        """Argv drawn from the command names, the pinned option strings with
        and without values, ints, '-', '--', '=' forms, abbreviations and
        documents: the plain reader declines each, or reads it into the
        namespace of the command's argparse subparser with nothing left
        over.  The command's own option strings are drawn more often than
        others, so that many argv are plain, repeated options among them."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from bott_towers import cli

        options = ["--sets", "--oracle", "-k", "--stage", "-o", "--output"]
        documents = st.sampled_from([HIRZEBRUCH_SEQ, THREE_SEQ,
                                     HIRZEBRUCH_FAN])
        values = st.one_of(
            st.integers(-20, 20).map(str), st.sampled_from(["a", "b"]),
            st.sampled_from(["", " 3", "3 ", "1_0", "\u0663", "+2", "x",
                             "-", "--", "-h", "--sets", "doc.json"]))
        words = st.one_of(
            st.sampled_from(options + [
                "-h", "--help", "-", "--", "", "--stage=2", "-k2", "-o=x",
                "--output=x", "--sets=1", "--se", "--st", "--or", "--out",
                "--o", "-ko", "--bogus", "doc.json", "x"]),
            st.integers(-20, 20).map(str), documents)
        accepted = []

        @hypothesis.settings(max_examples=400, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.data())
        def read_as_argparse(data):
            name = data.draw(st.sampled_from(COMMAND_NAMES))
            parser = subparsers(cli._build_parser())[name]
            own = {string: action.nargs is None  # takes a value
                   for action in parser._actions[1:]  # after -h/--help
                   for string in action.option_strings}
            chunk = st.sampled_from(sorted(own)).flatmap(
                lambda string: values.map(lambda value: [string, value])
                if own[string] else st.just([string]))
            parts = data.draw(st.lists(chunk, max_size=4))
            parts += [[word] for word in data.draw(st.lists(words,
                                                            max_size=1))]
            parts.insert(data.draw(st.integers(0, len(parts))),
                         [data.draw(st.one_of(documents, words))])
            argv = sum(data.draw(st.permutations(parts)), [])
            plain = cli._plain_args(name, argv)
            if plain is not None:
                accepted.append(argv)
                args, extra = parser.parse_known_args(argv)
                assert (vars(plain), extra) == (vars(args), [])

        read_as_argparse()
        assert accepted

    @pytest.mark.parametrize("workload", ["recognize", "tables", "ring"])
    def test_plain_reader_reads_every_deck_argv(self, workload):
        from bott_towers import cli

        declined = [argv for argv in deck_argvs(workload, (1, 20030601))
                    if cli._plain_args(argv[0], argv[1:]) is None]
        assert declined == []

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "numbers.json"
        piped = run_cli("numbers", HIRZEBRUCH_SEQ)
        written = run_cli("numbers", HIRZEBRUCH_SEQ, "-o", str(out))
        assert written.returncode == 0
        assert out.read_text() == piped.stdout


# ===================================================================
# 9. Fixed frames and layers resolved once
# ===================================================================

def recognition_documents():
    """Every distinct document of the `recognize` decks at both bench seeds,
    the seeded rejects, and towers with twists of magnitude 2^53 and more,
    as JSON texts."""
    from bott_towers import IntegralSequence, build_fan, fan_to_doc
    from bott_towers.serialize import encode_canonical
    from helpers import scrambled_tower

    rng = random.Random(5301)
    fans = reject_fans(random.Random(6013))
    fans += [scrambled_tower(rng, k, -4 * 2 ** 53, 4 * 2 ** 53)
             for k in range(2, 6)]
    fans.append(build_fan(IntegralSequence(3, {(1, 2): 2 ** 53, (1, 3): 1,
                                               (2, 3): -2 ** 70}), 3))
    return ([argv[1] for argv in deck_argvs("recognize")]
            + [encode_canonical(fan_to_doc(fan)) for fan in fans])


class TestFixedFrames:
    def test_check_and_classify_bytes_match_the_encoder(self, capsys):
        from bott_towers import classification_to_doc, classify, cli
        from bott_towers.classify import _verdicts
        from bott_towers.serialize import encode_canonical

        documents = recognition_documents()
        assert len(documents) > 2000
        accepted, quoted = 0, 0
        for text in documents:
            fan = cli._load_fan(text)
            assert cli.main(["check", text]) == 0
            assert capsys.readouterr().out == encode_canonical(
                _verdicts(fan))
            result = classify(fan)
            assert cli.main(["classify", text]) == (0 if result.ok else 4)
            out = capsys.readouterr().out
            assert out == encode_canonical(classification_to_doc(result))
            accepted += result.ok
            quoted += result.ok and '"9007199254740992"' in out
        assert accepted > 1500 and quoted  # 2^53 is written quoted

    @pytest.mark.parametrize("module, name, argv", [
        ("classify", "classify", ["classify", HIRZEBRUCH_FAN]),
        ("classify", "_verdicts", ["check", HIRZEBRUCH_FAN]),
        ("serialize", "fan_from_doc", ["check", HIRZEBRUCH_FAN]),
        ("serialize", "fan_from_doc", ["classify", HIRZEBRUCH_FAN]),
        ("cohomology", "_total_chern_table", ["cohomology", THREE_SEQ]),
        ("sequences", "_bott_table", ["charts", THREE_SEQ]),
        ("sequences", "_bott_table", ["numbers", THREE_SEQ, "--sets"]),
    ])
    def test_a_replaced_function_is_the_one_called(self, module, name, argv,
                                                   monkeypatch, capsys):
        import importlib

        from bott_towers import cli

        for command in ("numbers", "fan", "charts", "bundle", "cohomology",
                        "check", "classify", "render"):
            cli.main([command, HIRZEBRUCH_SEQ])
        capsys.readouterr()
        owner = importlib.import_module(f"bott_towers.{module}")
        calls = []

        def replaced(*args):
            calls.append(args)
            raise LookupError("the replaced function ran")

        monkeypatch.setattr(owner, name, replaced)
        with pytest.raises(LookupError, match="the replaced function ran"):
            cli.main(list(argv))
        assert len(calls) == 1
        monkeypatch.undo()
        assert cli.main(list(argv)) == 0
