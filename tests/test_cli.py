import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qkneser import cli, cover, indsets, kneser, pg, qcalc
from qkneser.errors import TooLarge

from conftest import unit_rows


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calc_chromatic(capsys):
    code, out, _ = run_cli(capsys, "calc", "chromatic", "--d", "3", "--q", "2")
    assert code == 0
    assert out.strip() == "29"


def test_calc_gauss_and_theta(capsys):
    code, out, _ = run_cli(capsys, "calc", "gauss", "--a", "5", "--b", "2", "--q", "2")
    assert (code, out.strip()) == (0, "155")
    code, out, _ = run_cli(capsys, "calc", "theta", "--j", "4", "--q", "2")
    assert (code, out.strip()) == (0, "31")
    code, out, _ = run_cli(capsys, "calc", "flag-count", "--d", "3", "--q", "2")
    assert (code, out.strip()) == (0, "177165")


def test_calc_thresholds(capsys):
    code, out, _ = run_cli(capsys, "calc", "thresholds", "--d", "3", "--alpha", "5")
    assert code == 0
    data = json.loads(out)
    assert data["q_strictly_above"] == 3 * 7**15 * 2**56
    assert data["q_at_least"] == 107


def test_calc_constants_human(capsys):
    code, out, _ = run_cli(capsys, "calc", "constants", "--d", "2", "--q", "2", "--human")
    assert code == 0
    assert "g0" in out and "105" in out and "133" in out


def test_calc_check_bounds(capsys):
    code, out, _ = run_cli(capsys, "calc", "check-bounds", "--q-max", "16", "--n-max", "8", "--c-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["violations"] == []


def test_calc_concentration(capsys):
    code, out, _ = run_cli(capsys, "calc", "concentration", "--q", "2", "--d", "1", "--d0", "4", "--n0", "1")
    assert code == 0
    data = json.loads(out)
    assert data["numerator"] == 16 and data["denominator"] == 1


def test_enumerate_subspaces(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "subspaces", "--n", "5", "--r", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["count"] == 155


def test_enumerate_flags_shorthand(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "flags", "--d", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["count"] == 1085


def test_enumerate_flags_dump_round_trip(capsys, tmp_path, f2):
    dump = tmp_path / "flags.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "flags", "--n", "3", "--type", "1", "--q", "2", "--dump", str(dump)
    )
    assert code == 0
    data = json.loads(dump.read_text())
    assert len(data) == 7
    for flag_rows in data:
        for rows in flag_rows:
            assert pg.is_canonical_rows(rows, 3, f2)


def test_graph_export(capsys, tmp_path):
    out_file = tmp_path / "fano.dimacs"
    code, out, _ = run_cli(
        capsys, "graph", "export", "--n", "3", "--type", "1", "--q", "2", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "p edge 7 21"


def test_cover_build_verify_pipe(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "cover", "build", "--d", "2", "--q", "2", "--out", str(cert_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "cover", "verify", "--in", str(cert_file), "--threads", "1")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["covered"] == 1085


def test_cover_verify_invalid_exits_2(capsys, tmp_path):
    cert = cover.build_cover(2, 2)
    del cert.classes[0]
    cert_file = tmp_path / "broken.json"
    cert_file.write_text(json.dumps(cert.to_json()))
    code, out, _ = run_cli(capsys, "cover", "verify", "--in", str(cert_file))
    assert code == 2
    assert json.loads(out)["valid"] is False


# case -> [exit code, sha256 of the stdout of `cover verify`]: the pinned
# (d, q) cover, its dual, and the (2,2) cover without class 4
VERIFY_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cover_verify_sha256.json").read_text())


@pytest.mark.parametrize("case", sorted(VERIFY_GOLDEN))
def test_cover_verify_output_matches_golden(capsys, tmp_path, case):
    d, q, *variant = case.split("-", 2)
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "cover", "build", "--d", d, "--q", q, "--out", str(cert_file))
    if variant == ["dual"]:
        run_cli(capsys, "cover", "dualize", "--in", str(cert_file), "--out", str(cert_file))
    elif variant == ["without-class-4"]:
        data = json.loads(cert_file.read_text())
        del data["classes"][4]
        cert_file.write_text(json.dumps(data))
    else:
        assert not variant
    code, out, _ = run_cli(capsys, "cover", "verify", "--in", str(cert_file))
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == VERIFY_GOLDEN[case]


def test_cover_dualize_round_trip(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "cover", "build", "--d", "2", "--q", "2", "--out", str(a))
    code, _, _ = run_cli(capsys, "cover", "dualize", "--in", str(a), "--out", str(b))
    assert code == 0
    dual = cover.certificate_from_json(json.loads(b.read_text()))
    assert all(c.variant == "hyperplane_family" for c in dual.classes)


def test_indset_build_and_check(capsys, tmp_path, f2):
    e = unit_rows(5)
    desc = indsets.point_line(pg.rref([e[0]], 5, f2), pg.rref([e[0], e[1]], 5, f2))
    desc_file = tmp_path / "desc.json"
    desc_file.write_text(json.dumps(indsets.descriptor_to_json(desc)))
    code, out, _ = run_cli(capsys, "indset", "build", "--in", str(desc_file))
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 133 and data["independent"] is True
    code, out, _ = run_cli(capsys, "indset", "check", "--in", str(desc_file), "--maximal")
    assert code == 0
    data = json.loads(out)
    assert data["maximal"] is True
    assert data["classified"]["variant"] == "point_line"
    # a bare point pencil extends, so the scan reaches its extending flag
    pencil_file = tmp_path / "pencil.json"
    pencil_file.write_text(json.dumps(indsets.descriptor_to_json(indsets.point_pencil(desc.base))))
    code, out, _ = run_cli(capsys, "indset", "check", "--in", str(pencil_file), "--maximal")
    assert code == 0
    data = json.loads(out)
    assert (data["total"], data["independent"], data["maximal"]) == (105, True, False)
    assert data["classified"]["variant"] == "point_pencil"


def test_explore_cli(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "--d", "2", "--q", "2", "--samples", "5", "--seed", "1", "--rho", "5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["samples"] == 5
    assert sum(data["size_histogram"].values()) == 5


def test_explore_cli_reproducible(capsys):
    code, out1, _ = run_cli(capsys, "explore", "--d", "2", "--q", "2", "--samples", "4", "--seed", "9")
    code, out2, _ = run_cli(capsys, "explore", "--d", "2", "--q", "2", "--samples", "4", "--seed", "9")
    assert out1 == out2


@pytest.mark.parametrize(
    "flag,value",
    [("--samples", "0"), ("--samples", "-3"), ("--samples", "99999999999999999999"), ("--rho", "0"), ("--rho", "-1")],
)
def test_explore_cli_rejects_bad_counts_before_building(capsys, monkeypatch, flag, value):
    def refuse(*args, **kwargs):
        raise AssertionError("the universe was built")

    monkeypatch.setattr(kneser, "FlagUniverse", refuse)
    argv = {"--samples": "5", "--rho": "5", flag: value}
    args = [x for kv in argv.items() for x in kv]
    code, out, err = run_cli(capsys, "explore", "--d", "2", "--q", "2", *args)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and flag in err and "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert cli.main(["calc", "gauss", "--a", "5"]) == 1
    assert cli.main(["calc", "gauss", "--a", "3", "--b", "5", "--q", "2"]) == 1
    assert cli.main(["enumerate", "flags", "--q", "2"]) == 1


def test_version_includes_table_hash(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "qkneser" in out and cli.field_table_hash() in out


def test_end_to_end_pipe_subprocess():
    build = subprocess.run(
        [sys.executable, "-m", "qkneser.cli", "cover", "build", "--d", "2", "--q", "2"],
        capture_output=True, text=True, check=True,
    )
    verify = subprocess.run(
        [sys.executable, "-m", "qkneser.cli", "cover", "verify", "--threads", "2"],
        input=build.stdout, capture_output=True, text=True,
    )
    assert verify.returncode == 0
    assert json.loads(verify.stdout)["valid"] is True


def _break_classes(cert):
    cert["classes"] = 5


def _break_u(cert):
    cert["U"][0][0] = "a"


def _break_u_shape(cert):
    cert["U"] = 5


def _break_descriptor(cert):
    cert["classes"][0]["P"][0][-1] = 0.0


def _break_variant(cert):
    cert["classes"][0]["variant"] = ["point_line"]


@pytest.mark.parametrize(
    "corrupt", [_break_classes, _break_u, _break_u_shape, _break_descriptor, _break_variant]
)
def test_cover_verify_bad_json_exits_1_without_traceback(corrupt):
    cert = cover.build_cover(2, 2).to_json()
    corrupt(cert)
    done = subprocess.run(
        [sys.executable, "-m", "qkneser.cli", "cover", "verify"],
        input=json.dumps(cert), capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "qkneser: error:" in done.stderr
    assert "Traceback" not in done.stderr


def _assert_refused(done):
    assert done.returncode == 1
    assert "qkneser: error:" in done.stderr and "exceed the cap" in done.stderr
    assert "Traceback" not in done.stderr


def test_cover_verify_refuses_oversized_graph():
    build = subprocess.run(
        [sys.executable, "-m", "qkneser.cli", "cover", "build", "--d", "4", "--q", "2"],
        capture_output=True, text=True, check=True,
    )
    _assert_refused(subprocess.run(
        [sys.executable, "-m", "qkneser.cli", "cover", "verify"],
        input=build.stdout, capture_output=True, text=True,
    ))


def test_indset_check_refuses_oversized_graph(f2):
    e = unit_rows(5)
    desc = indsets.descriptor_to_json(
        indsets.point_line(pg.rref([e[0]], 5, f2), pg.rref([e[0], e[1]], 5, f2))
    )
    desc["q"] = 7
    _assert_refused(subprocess.run(
        [sys.executable, "-m", "qkneser.cli", "indset", "check"],
        input=json.dumps(desc), capture_output=True, text=True,
    ))


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "flags", "--n", "5", "--type", "2,x", "--q", "2"),
        ("graph", "export", "--n", "5", "--type", "2,x", "--q", "2", "--out", "{tmp}/g.dimacs"),
        ("calc", "concentration", "--q", "2", "--d", "2", "--d0", "abc"),
        ("calc", "concentration", "--q", "2", "--d", "2", "--d0", "1/0"),
        ("calc", "concentration", "--q", "2", "--d", "2", "--n0", "abc"),
        ("calc", "concentration", "--q", "2", "--d", "2", "--n0", "1/0"),
        ("calc", "theta", "--j", "2", "--q", "1"),
        ("calc", "theta", "--j", "2", "--q", "0"),
        ("calc", "chromatic", "--d", "2", "--q", "1"),
        # results past the int-to-str limit, refused before they are computed
        ("calc", "concentration", "--q", "2", "--d", "12"),
        ("calc", "thresholds", "--d", "12", "--alpha", "5"),
        ("calc", "theta", "--j", "100000", "--q", "9"),
        ("calc", "concentration", "--q", "2", "--d", "1000000000000"),
        ("calc", "gauss", "--a", "100000", "--b", "50000", "--q", "2"),
        ("calc", "flag-count", "--d", "100", "--q", "9"),
        ("calc", "constants", "--d", "100", "--q", "9"),
        ("enumerate", "subspaces", "--n", "16", "--r", "8", "--q", "2"),
    ],
)
def test_malformed_arguments_exit_1_without_traceback(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    done = subprocess.run(
        [sys.executable, "-m", "qkneser.cli", *argv], capture_output=True, text=True
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.count("qkneser: error:") == 1 and "Traceback" not in done.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "subspaces", "--n", "9", "--r", "4", "--q", "2"),
        ("enumerate", "flags", "--d", "3", "--q", "3"),
    ],
)
def test_enumerate_dump_refuses_large_counts_before_enumerating(capsys, monkeypatch, tmp_path, argv):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the count check")

    monkeypatch.setattr(pg, "enumerate_subspaces", no_enumeration)
    dump = tmp_path / "dump.json"
    code, out, err = run_cli(capsys, *argv, "--dump", str(dump))
    assert code == cli.EXIT_USAGE and out == ""
    assert "exceed the cap" in err and not dump.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "export", "--d", "2", "--q", "5", "--out", "{tmp}/g.dimacs"),
        ("graph", "export", "--n", "200001", "--type", "100000,100001", "--q", "2", "--out", "{tmp}/g.dimacs"),
        ("explore", "--d", "2", "--q", "4", "--samples", "40", "--greedy-color-order", "enumeration"),
    ],
)
def test_vertex_cap_refuses_before_building(capsys, monkeypatch, tmp_path, argv):
    gauss = qcalc.gauss

    def fail(*args, **kwargs):
        raise AssertionError("built before the vertex-cap check")

    def small_gauss(a, b, q):
        assert a < 100, f"exact Gaussian binomial of n = {a} computed"
        return gauss(a, b, q)

    monkeypatch.setattr(kneser.FlagUniverse, "__init__", fail)
    monkeypatch.setattr(cli.explore, "conjecture_probe", fail)
    monkeypatch.setattr(qcalc, "gauss", small_gauss)
    code, out, err = run_cli(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (1, "")
    assert err.count("qkneser: error:") == 1 and len(err.splitlines()) == 1
    assert f"more than {kneser.DEFAULT_VERTEX_CAP} vertices" in err and "exceed the cap" in err
    assert "Traceback" not in err and not list(tmp_path.iterdir())


def _point_pencil_json(d):
    return {"variant": "point_pencil", "d": d, "q": 2, "P": [[1] + [0] * (2 * d)]}


@pytest.mark.parametrize("d", [1000, 10**5])
@pytest.mark.parametrize("command", ["cover verify", "indset check", "explore", "cover build"])
def test_large_d_refused_from_the_exponent(capsys, monkeypatch, tmp_path, command, d):
    gauss = qcalc.gauss

    def small_gauss(a, b, q):
        assert a < 100, f"exact Gaussian binomial of n = {a} computed"
        return gauss(a, b, q)

    monkeypatch.setattr(qcalc, "gauss", small_gauss)
    infile = tmp_path / "in.json"
    if command == "cover verify":
        infile.write_text(json.dumps({"d": d, "q": 2, "U": [], "classes": []}))
    else:
        infile.write_text(json.dumps(_point_pencil_json(d)))
    argv = command.split() + (["--d", str(d), "--q", "2"] if command in ("explore", "cover build")
                              else ["--in", str(infile)])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("qkneser: error:") == 1 and f"more than {kneser.MAX_FLAGS}" in err


def _unit_json(i, d):
    return [int(c == i) for c in range(2 * d + 1)]


def _family_json(variant, d):
    if variant == "point_family":
        return {"variant": variant, "d": d, "q": 2, "P": [_unit_json(0, d)], "U": []}
    return {"variant": variant, "d": d, "q": 2, "H": [_unit_json(i, d) for i in range(2 * d)],
            "E": [[_unit_json(i, d) for i in range(d)]]}


@pytest.mark.parametrize("variant, d", [("point_family", 1000), ("point_family", 10**5),
                                        ("hyperplane_family", 12), ("hyperplane_family", 1000)])
@pytest.mark.parametrize("command", ["cover verify", "indset check"])
def test_large_d_family_refused_before_point_masks(capsys, monkeypatch, tmp_path, command, variant, d):
    # an empty point_family is a point pencil; a one-member hyperplane_family
    # has no pairs to test, so neither may index the points of PG(2d, q),
    # by table or in closed form
    def no_point_index(n, field):
        raise AssertionError(f"points of PG({n - 1}, {field.q}) indexed")

    def no_point_ids(vecs, q):
        raise AssertionError(f"points of PG({vecs.shape[-1] - 1}, {q}) indexed")

    monkeypatch.setattr(pg, "point_index", no_point_index)
    monkeypatch.setattr(pg, "point_ids", no_point_ids)
    desc = _family_json(variant, d)
    data = {"d": d, "q": 2, "U": [], "classes": [desc]} if command == "cover verify" else desc
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *command.split(), "--in", str(infile))
    assert (code, out) == (1, "")
    assert err.count("qkneser: error:") == 1 and f"more than {kneser.MAX_FLAGS}" in err


def test_cover_build_cap_counts_planes_of_u():
    # cover build enumerates the planes of the rank-(d+2) subspace U
    for d, q, planes in [(6, 2, 97_155), (3, 9, 605_242)]:
        assert qcalc.gauss(d + 2, 3, q) == planes
        kneser.check_cap(q, [(d + 2, 3)], "planes")
    for d, q in [(8, 2), (4, 9)]:
        with pytest.raises(TooLarge):
            kneser.check_cap(q, [(d + 2, 3)], "planes")


def _json_variants():
    cert = cover.build_cover(2, 2).to_json()
    pencil = _point_pencil_json(2)
    yield "cover verify", json.dumps(dict(cert, d=2.9, q=2.2))
    yield "cover verify", json.dumps(dict(cert, d=True))
    yield "cover verify", json.dumps(cert).replace('"d": 2', '"d": 1e400', 1)
    yield "cover verify", json.dumps(dict(cert, q="2"))
    yield "indset check", json.dumps(dict(pencil, d=2.9, q=2.2))
    yield "indset check", json.dumps(pencil).replace('"d": 2', '"d": 1e400', 1)
    yield "indset check", json.dumps(dict(pencil, variant="point_family", U=5))
    yield "indset check", json.dumps({"variant": "hyperplane_family", "d": 2, "q": 2,
                                      "H": unit_rows(5)[:4], "E": 7})
    yield "indset check", '{"variant": "point_pencil", "d": ' + "1" * 5000 + ', "q": 2}'
    yield "cover verify", json.dumps(dict(cert, q=10**20 + 39))


@pytest.mark.parametrize("command,text", list(_json_variants()))
def test_malformed_descriptor_json_exits_1(capsys, tmp_path, command, text):
    infile = tmp_path / "in.json"
    infile.write_text(text)
    code, out, err = run_cli(capsys, *command.split(), "--in", str(infile))
    assert (code, out) == (1, "")
    assert err.count("qkneser: error:") == 1 and "Traceback" not in err
