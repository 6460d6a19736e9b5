import json
import subprocess
import sys

import pytest

from qkneser import cli, cover, indsets, pg

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
