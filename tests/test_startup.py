"""The exact commands never load numpy.

The package binds numpy lazily (qkneser._numpy), so a command that builds no
FlagUniverse runs on pure Python and skips numpy's import, about 90 ms and
12 MB of a fresh process.  Each command runs in a fresh interpreter here.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qkneser import cover

SRC = Path(__file__).resolve().parent.parent / "src" / "qkneser"

# runs cli.main on its arguments, then reports the exit code and whether numpy's core loaded
PROBE = """
import json, sys
from qkneser import cli
code = cli.main(sys.argv[1:])
sys.stderr.write("\\n" + json.dumps([code, "numpy._core" in sys.modules]))
"""


def run_cli(argv):
    done = subprocess.run([sys.executable, "-c", PROBE] + argv, capture_output=True, text=True, timeout=120)
    return json.loads(done.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def cover23(tmp_path_factory):
    path = tmp_path_factory.mktemp("cover") / "cover23.json"
    path.write_text(json.dumps(cover.build_cover(2, 3).to_json()))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["calc", "flag-count", "--d", "3", "--q", "2"],
    ["cover", "build", "--d", "3", "--q", "2"],
    ["cover", "dualize", "--in", "{cover23}"],
    ["enumerate", "subspaces", "--n", "5", "--r", "2", "--q", "2"],
    ["enumerate", "flags", "--d", "2", "--q", "2"],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("{")))
def test_exact_commands_leave_numpy_unloaded(argv, cover23):
    assert run_cli([a.format(cover23=cover23) for a in argv]) == [0, False]


def test_cover_verify_loads_numpy(cover23):
    assert run_cli(["cover", "verify", "--in", cover23]) == [0, True]


def test_no_module_imports_numpy_itself():
    # one such statement would load numpy in every process again
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            assert not any(name.split(".")[0] == "numpy" for name in names), f"{path.name}:{node.lineno}"
