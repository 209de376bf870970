"""Command-line surface: canonical JSON, exit codes, determinism, SVG.

Core claims:

1. Exit codes separate the failure families: 0 success, 2 unreadable input
   or bad usage, 3 well-formed but invalid data, 4 mathematical rejection.
2. Every document is canonical JSON: sorted keys, two-space indent, one
   trailing newline, integers of magnitude >= 2^53 as decimal strings (and
   accepted back as strings), ray indices 0-based.
3. Outputs are byte-identical across repeated runs, including SVG, and the
   -o file contents equal the stdout of an identical run.
4. classify prints its rejection document on stdout and still exits 4;
   check folds rejections of individual predicates into false booleans.
   Inputs deeper than the recursion limit (JSON nesting, or more ray
   pairs than stack frames), repeated JSON keys, and fans whose ray
   pairing search would run for hours still end in a documented exit code.
5. The cohomology and bundle documents of seeded sequences at k = 2..9 are
   byte-identical to documents written from the reference oracles.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from helpers import (
    random_sequence,
    reference_bundle_doc,
    reference_canonical,
    reference_cohomology_doc,
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

    def test_sets_fill_one_memo_entry_per_index_set(self, monkeypatch,
                                                    capsys):
        from bott_towers import cli

        parse, made = cli.sequence_from_doc, []
        monkeypatch.setattr(cli, "sequence_from_doc",
                            lambda doc: made.append(parse(doc)) or made[-1])
        entries = [[i, j, (i * j) % 7 - 3]
                   for i in range(1, 10) for j in range(i + 1, 11)]
        seq = json.dumps({"n": 10, "entries": entries})
        assert cli.main(["numbers", "--sets", seq]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["numbers"]) == 2 ** 10 - 1
        assert len(made[0]._cache) == 2 ** 10 - 1

    def test_big_integers_round_trip_as_strings(self):
        seq = json.dumps({"n": 2, "entries": [[1, 2, str(BIG)]]})
        doc = stdout_doc(run_cli("numbers", seq))
        assert doc["c_matrix"][0][1] == str(BIG)
        assert doc["bott_matrix"][0][1] == str(BIG)
        negative = json.dumps({"n": 2, "entries": [[1, 2, str(-BIG)]]})
        doc = stdout_doc(run_cli("numbers", negative))
        assert doc["bott_matrix"][0][1] == str(-BIG)

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

    @pytest.mark.parametrize("k", range(2, 10))
    def test_cohomology_and_bundle_bytes(self, k, capsys):
        from bott_towers import cli, sequence_to_doc

        c = random_sequence(random.Random(7000 + k), k + 1, -3, 3)
        seq = json.dumps(sequence_to_doc(c))
        runs = [
            (["cohomology", seq, "-k", str(k), "--oracle"],
             reference_cohomology_doc(c, k)),
            (["bundle", seq, "-k", str(k)], reference_bundle_doc(c, k)),
            (["bundle", seq, "-k", str(k + 1)],
             reference_bundle_doc(c, k + 1)),
        ]
        for argv, expected in runs:
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == reference_canonical(expected)


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
        assert run_cli("render", '{"n": 3}').returncode == 3

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

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "numbers.json"
        piped = run_cli("numbers", HIRZEBRUCH_SEQ)
        written = run_cli("numbers", HIRZEBRUCH_SEQ, "-o", str(out))
        assert written.returncode == 0
        assert out.read_text() == piped.stdout
