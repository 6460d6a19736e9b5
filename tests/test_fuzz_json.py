"""Fuzz the JSON readers of the CLI: no certificate or descriptor may end in a
traceback.

Inputs are mutations of the pinned (2,2) cover, of its dual, and of their
classes: values of the wrong type, huge and negative integers, floats, nested
lists, missing keys and unknown variants.  Every run of `cover verify`,
`cover dualize`, `indset build` and `indset check` must exit 0, 1 or 2.  The
flag cap is lowered for these runs, so that a mutation that names a larger
graph is refused at once instead of building it; the refusal is one of the
paths under test.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qkneser import cli, cover, kneser

from conftest import unit_rows

PINNED = cover.build_cover(2, 2)
CERTS = [PINNED.to_json(), cover.dualize_cover(PINNED).to_json()]
DESCRIPTORS = [c for cert in CERTS for c in cert["classes"]]

COVER_COMMANDS = ["cover verify", "cover dualize"]
INDSET_COMMANDS = ["indset build", "indset check"]

VARIANTS = ["point_pencil", "point_line", "point_hyperplane", "point_family",
            "dual_point_pencil", "hyperplane_family", "generic_only", "no_such_variant"]

BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([10**400, -(10**400), 0, 1, 2, 3, 4, 5, 9, 11]),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(VARIANTS),
    st.lists(st.integers(min_value=-2, max_value=10), max_size=7),
    st.lists(st.lists(st.integers(min_value=0, max_value=2), max_size=7), max_size=5),
    st.dictionaries(st.sampled_from(["d", "q", "P", "H", "L", "U", "E", "variant"]),
                    st.integers(min_value=-1, max_value=3), max_size=2),
)


@st.composite
def mutated(draw, documents):
    """A document with one to three mutations, each at a random node."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(node, (dict, list)):
            if isinstance(node, dict):
                node[draw(st.sampled_from(["d", "q", "U", "E", "P", "H", "L", "classes", "x"]))] = draw(BAD_VALUES)
            else:
                node.append(draw(BAD_VALUES))
        elif action == "delete" and parent is not None:
            del parent[key]
        elif parent is None:
            doc = draw(BAD_VALUES)
        else:
            parent[key] = draw(BAD_VALUES)
    return json.dumps(doc)


INPUTS = st.one_of(
    st.tuples(st.sampled_from(COVER_COMMANDS), mutated(CERTS)),
    st.tuples(st.sampled_from(INDSET_COMMANDS), mutated(DESCRIPTORS)),
    st.tuples(st.sampled_from(COVER_COMMANDS + INDSET_COMMANDS), mutated(CERTS + DESCRIPTORS)),
)

_CERT = json.dumps(CERTS[0])
# (2,3) with 15,730 flags still builds; (2,4) and (3,2) are refused
_FUZZ_CAP = 20_000
_PENCIL = {"variant": "point_pencil", "d": 2, "q": 2, "P": [unit_rows(5)[0]]}


@pytest.fixture(scope="module")
def small_cap():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kneser, "MAX_FLAGS", _FUZZ_CAP)
        yield


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(INPUTS)
@example(("cover verify", json.dumps({"d": 1000, "q": 2, "U": [], "classes": []})))
@example(("indset check", json.dumps(dict(_PENCIL, d=1000, P=[[1] + [0] * 2000]))))
@example(("cover verify", _CERT.replace('"d": 2', '"d": 1e400', 1)))
@example(("indset check", json.dumps(_PENCIL).replace('"d": 2', '"d": 1e400', 1)))
@example(("cover verify", json.dumps(dict(CERTS[0], d=2.9, q=2.2))))
@example(("indset check", json.dumps(dict(_PENCIL, d=2.9, q=2.2))))
@example(("indset check", json.dumps(dict(_PENCIL, variant="point_family", U=5))))
@example(("indset check", json.dumps({"variant": "hyperplane_family", "d": 2, "q": 2,
                                      "H": unit_rows(5)[:4], "E": 7})))
def test_cli_json_input_never_raises(tmp_path_factory, small_cap, case):
    command, text = case
    infile = tmp_path_factory.getbasetemp() / "fuzz_input.json"
    infile.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split() + ["--in", str(infile)])
    assert code in (0, 1, 2), (code, err.getvalue())
