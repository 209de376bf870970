"""Start-up loads only what a command uses.

Core claims:

1. ``import bott_towers`` loads no submodule.  ``__all__`` is the pinned
   list of the 69 public names, ``from bott_towers import *`` and ``dir``
   expose every one of them, each name is the object of its defining
   module, and ``bott_towers.classify`` stays the function after the
   submodule of that name is imported.
2. A fresh ``python -m bott_towers`` process of each subcommand loads
   exactly the package modules of that command's layers, never
   ``fractions``, and writes the bytes and exit code of an in-process
   ``cli.main`` run.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bott_towers
from bott_towers import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

PUBLIC_NAMES = [
    "BottFan", "CharacterBundle", "ClassificationResult", "CohomologyClass",
    "CohomologyRing", "DualChart", "GeneralFan", "IntegralSequence",
    "LaurentMonomial", "Poset", "QuotientPresentation", "RejectionError",
    "RingPresentation", "SupportFunctionData", "ValidationError",
    "apply_unimodular", "betti", "binary_codes", "bott_matrix",
    "bott_number", "bott_number_moebius", "build_fan", "c_matrix",
    "canonical_lambda", "character_class", "chart_ring",
    "classification_to_doc", "classify", "cohomology_ring",
    "crosspolytope_check", "dual_chart", "dual_generators",
    "encode_canonical", "euler_characteristic", "extend_sequence",
    "fan_from_doc", "fan_to_doc", "fans_isomorphic", "find_opposite_pair",
    "hk_support", "index_sets", "integrate", "is_complete", "is_fano",
    "is_smooth", "lambda_bundle", "lambda_perp", "lemma_identities",
    "lift_with_support_function", "moebius_matrix", "multiply",
    "normal_form", "poset_to_sequence", "prefix_set", "presentation",
    "primitive_collections", "project", "quotient_presentation",
    "ray_class", "render_svg", "sequence_from_doc", "sequence_to_doc",
    "support_function", "tangent_splitting", "top_chern_class",
    "total_chern_class", "transition", "xi_bundle", "zeta_matrix",
]

SEQ = '{"n": 2, "entries": [[1, 2, 1]]}'
FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],'
       ' "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}')
PLANE_FAN = ('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],'
             ' "cones": [[0, 1], [1, 2], [0, 2]]}')

# the package modules every command loads besides the package itself: the
# CLI, its module-level layers and the sequence layer that serialize reads
BASE = {"cli", "errors", "serialize", "sequences"}
RECOGNITION = {"classify", "fans", "linalg"}
COMMANDS = [
    pytest.param(["numbers", "--sets", "--oracle", SEQ], set(), id="numbers"),
    pytest.param(["fan", SEQ], {"fans", "linalg"}, id="fan"),
    pytest.param(["check", SEQ], RECOGNITION, id="check-sequence"),
    pytest.param(["check", FAN], RECOGNITION, id="check-fan"),
    pytest.param(["charts", SEQ], {"charts", "linalg"}, id="charts"),
    pytest.param(["bundle", SEQ], {"bundles", "charts", "linalg"},
                 id="bundle"),
    pytest.param(["cohomology", "--oracle", SEQ], {"cohomology"},
                 id="cohomology"),
    pytest.param(["classify", FAN], RECOGNITION, id="classify-fan"),
    pytest.param(["classify", PLANE_FAN], RECOGNITION, id="classify-reject"),
    pytest.param(["render", SEQ], {"fans", "linalg", "render"}, id="render"),
]


def fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def split_import_times(stderr: str):
    """(names of the modules imported, the other stderr lines), from the
    stderr of a ``python -X importtime`` run."""
    modules, rest = set(), []
    for line in stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[-1].strip())
        else:
            rest.append(line)
    return modules, "".join(rest)


# ===================================================================
# 1. Lazy package exports
# ===================================================================

def test_import_loads_no_submodule():
    done = fresh_python("-c", "import sys, bott_towers; print(sorted("
                        "m for m in sys.modules if m.startswith('bott_')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['bott_towers']\n"


def test_public_names_are_pinned():
    assert bott_towers.__all__ == PUBLIC_NAMES


def test_star_import_and_dir_expose_every_name():
    namespace = {}
    exec("from bott_towers import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(bott_towers))
    for name in PUBLIC_NAMES:
        value = namespace[name]
        assert value is getattr(bott_towers, name)
        defining = importlib.import_module(value.__module__)
        assert getattr(defining, name) is value


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bott_towers.no_such_name  # noqa: B018


def test_classify_stays_the_function_after_its_submodule_loads():
    done = fresh_python("-c", "import sys, bott_towers.classify\n"
                        "import bott_towers as b\n"
                        "print(b.classify is "
                        "sys.modules['bott_towers.classify'].classify)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


# ===================================================================
# 2. What each command loads
# ===================================================================

@pytest.mark.parametrize("argv, layers", COMMANDS)
def test_fresh_process_loads_only_its_layers(argv, layers, capsys):
    code = cli.main(list(argv))
    expected = capsys.readouterr()
    done = fresh_python("-X", "importtime", "-m", "bott_towers", *argv)
    modules, stderr = split_import_times(done.stderr)
    assert (done.returncode, done.stdout, stderr) == (code, expected.out,
                                                      expected.err)
    loaded = {name for name in modules if name.startswith("bott_towers")}
    assert loaded == {"bott_towers", *(f"bott_towers.{name}"
                                        for name in BASE | layers)}
    assert "fractions" not in modules
