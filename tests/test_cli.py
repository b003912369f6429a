"""CLI behaviour: payloads, exit codes, determinism, error reporting."""

import json

import pytest

from mirrorcheck.cli import main
from mirrorcheck.fixtures import load_fixture
from mirrorcheck.intlinalg import mat_vec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_nef_counts_fixture(capsys):
    code, report = run_json(capsys, "nef", "counts", "--fixture", "p1p1p1")
    assert code == 0
    assert report["status"] == "PASS"
    assert report["payload"]["complement_count"] == 12


def test_nef_counts_from_files(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "rank": 3,
        "vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    }))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({
        "parts": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
    }))
    code, report = run_json(capsys, "nef", "counts",
                            "--polytope", str(poly), "--partition", str(part))
    assert code == 0
    assert report["payload"]["complement_count"] == 12


def test_nef_counts_skewed_quintic(tmp_path, capsys):
    # A GL(4, Z) image of the quintic: its polar's bounding box holds about
    # 10^11 lattice points, of which 126 lie in the polar.
    skew = [[7, 2, 0, 0], [3, 7, 2, 0], [0, 3, 7, 2], [0, 0, 3, 1]]
    quintic = load_fixture("quintic")
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"vertices": [mat_vec(skew, v)
                                             for v in quintic["polytope"]["vertices"]]}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"parts": [[mat_vec(skew, v) for v in p]
                                          for p in quintic["parts"]]}))
    code, report = run_json(capsys, "nef", "counts",
                            "--polytope", str(poly), "--partition", str(part))
    assert code == 0
    assert report["payload"]["complement_count"] == 52


def test_isotropic_zero_pivot_gram(capsys):
    code, report = run_json(capsys, "lattice", "isotropic", "--gram", "[[0,1],[1,-2]]")
    assert code == 0
    assert report["payload"]["exists"] is True


def test_isotropic_definite_gram(capsys):
    code, report = run_json(capsys, "lattice", "isotropic", "--gram", "[[2,1],[1,2]]")
    assert code == 0
    assert report["status"] == "PASS"
    assert report["payload"]["exists"] is False
    assert report["payload"]["conclusive"] is True


def test_isotropic_inconclusive_exit(capsys):
    code, report = run_json(capsys, "lattice", "isotropic",
                            "--spec", "<2>+<-4>", "--bound", "3")
    assert code == 1
    assert report["status"] == "INCONCLUSIVE"


def test_family_rejects_bad_index(capsys):
    code, report = run_json(capsys, "family", "quartic",
                            "--i", "3", "--j", "1", "--mu", "2,2")
    assert code == 2
    assert report["status"] == "ERROR"
    assert report["payload"]["error"] == "InvalidPartition"


def test_unknown_flag_rejected(capsys):
    code = main(["polytope", "dual", "--fixture", "cube", "--bogus"])
    capsys.readouterr()
    assert code == 2


def test_malformed_json_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 3, "vertices": [[1,0,0],')
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(bad))
    assert code == 2
    assert report["payload"]["error"] == "InputError"
    assert "bad.json" in report["payload"]["message"]


def test_missing_field_named(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(empty))
    assert code == 2
    assert "vertices" in report["payload"]["message"]


def test_engine_error_name_verbatim(tmp_path, capsys):
    degenerate = tmp_path / "flat.json"
    degenerate.write_text(json.dumps({"rank": 2, "vertices": [[0, 0], [1, 0], [2, 0]]}))
    code, report = run_json(capsys, "polytope", "dual", "--polytope", str(degenerate))
    assert code == 2
    assert report["payload"]["error"] == "NotFullDimensional"


def test_nef_verify_fail_is_exit_one(capsys):
    code, report = run_json(capsys, "nef", "verify", "--fixture", "hexagon")
    assert code == 1
    assert report["status"] == "FAIL"
    assert report["payload"]["error"] == "NotNef"


def test_lattice_mirror_expectation(capsys):
    code, report = run_json(capsys, "lattice", "mirror", "--spec", "<4>",
                            "--expect", "H+E8(-1)+E8(-1)+<-4>")
    assert code == 0
    assert report["payload"]["match"]["status"] == "MATCH"
    assert report["payload"]["rank"] == 19


def test_lattice_match_mismatch(capsys):
    code, report = run_json(capsys, "lattice", "match",
                            "--a", "H+E8(-1)+E8(-1)",
                            "--b", "H+E8(-1)+E8(-1)+A1(-1)")
    assert code == 1
    assert report["payload"]["status"] == "MISMATCH"


def test_hodge_slice_fixtures(capsys):
    for name in ("slice-h1", "slice-h2", "slice-deg2-1", "slice-deg2-2",
                 "slice-deg2-3", "slice-deg2-4"):
        code, report = run_json(capsys, "hodge", "slice", "--fixture", name)
        assert code == 0, name
        assert report["status"] == "PASS"


def test_hodge_lee_fixture(capsys):
    code, report = run_json(capsys, "hodge", "lee", "--fixture", "tyurin-quartic")
    assert code == 0
    assert report["payload"] == {"h11": 1, "h21": 89}


def test_hodge_glue_fixture(capsys):
    code, report = run_json(capsys, "hodge", "glue", "--fixture", "tyurin-quartic")
    assert code == 0
    assert report["status"] == "PASS"


def test_family_sweep(capsys):
    code, report = run_json(capsys, "family", "sweep")
    assert code == 0
    assert report["payload"]["count"] == 71
    assert report["payload"]["all_pass"] is True


def test_idempotent_output(capsys):
    first = run(capsys, "family", "quartic", "--i", "2", "--j", "4", "--mu", "3,2,1")
    second = run(capsys, "family", "quartic", "--i", "2", "--j", "4", "--mu", "3,2,1")
    assert first == second


def test_pretty_output_is_text(capsys):
    code, out = run(capsys, "hodge", "lmhs", "--u", "19", "--v", "69", "--pretty")
    assert code == 0
    assert out.startswith("status: PASS")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "polytope", "points", "--fixture", "cube",
                    "--region", "interior", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_partition_file_carries_polytope(tmp_path, capsys):
    part = tmp_path / "partition.json"
    part.write_text(json.dumps({
        "polytope": {"rank": 3, "vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                                             [0, -1, 0], [0, 0, 1], [0, 0, -1]]},
        "parts": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]],
    }))
    code, report = run_json(capsys, "nef", "counts", "--partition", str(part))
    assert code == 0
    assert report["payload"]["complement_count"] == 12


def test_rank_declaration_checked(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"rank": 4, "vertices": [[1, 0], [0, 1], [-1, -1]]}))
    code, report = run_json(capsys, "polytope", "reflexive", "--polytope", str(poly))
    assert code == 2
    assert "rank" in report["payload"]["message"]


def test_embedding_file_input(tmp_path, capsys):
    emb = tmp_path / "embedding.json"
    v = [0] * 22
    v[0] = 1
    v[1] = 2
    f = [0] * 22
    f[2] = 1
    emb.write_text(json.dumps({"ambient": "K3", "image_basis": [v], "f": f}))
    code, report = run_json(capsys, "lattice", "mirror", "--embedding", str(emb),
                            "--expect", "H+E8(-1)+E8(-1)+<-4>")
    assert code == 0
    assert report["payload"]["match"]["status"] == "MATCH"


def test_lmhs_mirror_comparison(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(
        {"table": [[1, 19, 1, 0], [0, 69, 69, 0], [0, 1, 19, 1]]}))
    code, report = run_json(capsys, "hodge", "lmhs", "--u", "19", "--v", "69",
                            "--mirror", str(table))
    assert code == 0
    assert report["payload"]["match"]["status"] == "PASS"
    table.write_text(json.dumps(
        {"table": [[1, 19, 1, 0], [0, 68, 69, 0], [0, 1, 19, 1]]}))
    code, report = run_json(capsys, "hodge", "lmhs", "--u", "19", "--v", "69",
                            "--mirror", str(table))
    assert code == 1
