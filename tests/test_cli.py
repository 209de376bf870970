"""Command-line surface: canonical JSON, exit codes, determinism, SVG.

Core claims:

1. Exit codes separate the failure families: 0 success, 2 unreadable input
   or bad usage, 3 well-formed but invalid data, 4 mathematical rejection.
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
5. The cohomology and bundle documents of seeded sequences at k = 1..11
   are byte-identical to documents written from the reference oracles.  The
   cohomology document is streamed from the flat Chern table, never from
   a listed class, with cancelled terms omitted; a stage above 20 exits 3
   before any table is built.
6. The streamed documents (fan, charts, numbers --sets, with and without
   --oracle and -k) are byte-identical to the reference oracles on stdout
   and through -o, big integers included.  Oracle comparisons run before
   the first byte, -o leaves no partial file, and a streamed run holds far
   less memory than the document it writes.  numbers and charts read one
   flat Bott table per job, which a stage above 20 refuses with exit 3
   before it is built; the ring and recognition commands build none.
7. check is witness first: on scrambled towers, acceptance test 08's fans
   and rejects of every kind its document equals the four verdicts
   computed independently, and it answers towers up to k = 10 without a
   cone determinant.  BOTT_SEED must be ASCII digits after an optional
   "-", or the run exits 3.
8. A sequence document is read from its tower's 2k rays, and no cone of it
   is listed: check and classify print the bytes of the references on the
   expanded fan, finish at height 30 as fast as at height 1, and render
   refuses a dimension other than 2 before any cone.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import pytest

from helpers import (
    RECOGNITION_FAN_SETS,
    random_sequence,
    reference_bundle_doc,
    reference_canonical,
    reference_charts_doc,
    reference_check_doc,
    reference_classify,
    reference_cohomology_doc,
    reference_fan_doc,
    reference_numbers_doc,
    tower_ladder,
)

BIG = 2 ** 54  # one bit past the precision guard threshold

HIRZEBRUCH_SEQ = '{"n": 2, "entries": [[1, 2, 2]]}'
HIRZEBRUCH_FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],'
                  ' "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}')
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
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "bott_towers", *args],
                          capture_output=True, text=True, env=env)


def timed_cli(*args):
    """The finished run and its wall seconds; the timeout stops a run that
    builds a refused table after all."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "bott_towers", *args],
                            capture_output=True, text=True, timeout=10)
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


class TestRingDocumentsAgainstReference:
    """Ordering or arithmetic faults in the ring show up byte for byte."""

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

    def test_stage_below_cap_still_runs(self, capsys):
        from bott_towers import IntegralSequence, cli

        assert cli.main(["cohomology", '{"n": 40}', "-k", "12"]) == 0
        assert capsys.readouterr().out == reference_canonical(
            reference_cohomology_doc(IntegralSequence(40), 12, oracle=False))


class TestTablesAgainstReference:
    """The streamed documents, byte for byte, on stdout and through -o."""

    @staticmethod
    def assert_bytes(argv, expected, tmp_path, capsys):
        from bott_towers import cli

        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "doc.json"
        assert cli.main([*argv, "-o", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert os.listdir(tmp_path) == ["doc.json"]

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
            self.assert_bytes(argv, reference_canonical(expected), tmp_path,
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
            self.assert_bytes(argv, text, tmp_path, capsys)

    def test_oracle_mismatch_writes_nothing(self, monkeypatch, capsys):
        from bott_towers import cli, sequences

        monkeypatch.setattr(sequences, "bott_number_moebius",
                            lambda c, ids: 10 ** 6)
        with pytest.raises(RuntimeError, match="oracle mismatch"):
            cli.main(["numbers", HIRZEBRUCH_SEQ, "--sets", "--oracle"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("existing", [None, "old document\n"])
    def test_failed_output_leaves_no_partial_file(self, existing, monkeypatch,
                                                  tmp_path):
        from bott_towers import cli, serialize

        texts = serialize.chart_texts

        def broken(rows):
            yield next(texts(rows))
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

    @pytest.mark.parametrize("fan", [HIRZEBRUCH_FAN, DOUBLE_WRAP_FAN])
    def test_probes_and_seed_do_not_change_check(self, fan):
        base = run_cli("check", fan)
        assert base.returncode == 0
        for variant in (run_cli("check", fan, "--probes", "0"),
                        run_cli("check", fan, "--probes", "-5"),
                        run_cli("check", fan, env_extra={"BOTT_SEED": "7"})):
            assert variant.returncode == 0
            assert variant.stdout == base.stdout

    def test_invalid_seed_rejected(self):
        result = run_cli("check", HIRZEBRUCH_SEQ,
                         env_extra={"BOTT_SEED": "not-a-number"})
        assert result.returncode == 3

    @pytest.mark.parametrize("raw, code", [
        ("+3", 3), (" 3 ", 3), ("1_0", 3), ("\u0663", 3), ("", 3),
        ("-", 3), ("3", 0), ("-3", 0), ("007", 0)])
    def test_seed_is_ascii_digits(self, raw, code, monkeypatch, capsys):
        from bott_towers import cli

        monkeypatch.setenv("BOTT_SEED", raw)
        assert cli.main(["classify", '{"n": 2}']) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert err == ("error: BOTT_SEED must be a decimal integer, "
                           f"got {raw!r}\n")

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "numbers.json"
        piped = run_cli("numbers", HIRZEBRUCH_SEQ)
        written = run_cli("numbers", HIRZEBRUCH_SEQ, "-o", str(out))
        assert written.returncode == 0
        assert out.read_text() == piped.stdout
