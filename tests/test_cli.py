"""Command-line interface."""

import json
import math

import pytest

from nilcover.cli import main

OPT = "1.30633820,0,0.73894461,0.65316910,1.13132206,1.10841692"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance(capsys):
    code, out, _ = run_cli(capsys, "distance", "--from", "0,0,0",
                           "--to", "1,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["distance"] == pytest.approx(1.0)


def test_distance_human(capsys):
    code, out, _ = run_cli(capsys, "distance", "--from", "0,0,0", "--to", "0,0,1")
    assert code == 0
    assert "distance = 1" in out


def test_geodesic(capsys):
    code, out, _ = run_cli(capsys, "geodesic", "--from", "0,0,0",
                           "--to", "0.4,0.3,0.2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-8
    _, out2, _ = run_cli(capsys, "distance", "--from", "0,0,0",
                         "--to", "0.4,0.3,0.2", "--json")
    assert data["arc_length"] == pytest.approx(json.loads(out2)["distance"])


def test_ball_volume(capsys):
    code, out, _ = run_cli(capsys, "ball-volume", "--radius", "0.90293941",
                           "--json")
    assert code == 0
    assert json.loads(out)["volume"] == pytest.approx(3.12538516, abs=1e-5)


def test_convexity(capsys):
    code, out, _ = run_cli(capsys, "convexity", "--radius", "2.0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ball_convex"] is False
    assert data["m_image_convex"] is True


def test_chord_max(capsys):
    code, out, _ = run_cli(capsys, "chord-max", "--radius", "4.71238898038469",
                           "--json")
    assert code == 0
    assert json.loads(out)["max_vertical_chord"] == pytest.approx(
        13 * math.pi / 4)


def test_fold_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "convexity", "--radius", "3.5", "--json")
    assert code == 0
    assert abs(json.loads(out)["first_critical_theta"]
               - math.asin(math.pi / 3.5)) <= 1e-12
    code, out, _ = run_cli(capsys, "chord-max", "--radius", "4", "--json")
    assert code == 0
    chord = (16 + math.pi ** 2) / math.pi
    assert abs(json.loads(out)["max_vertical_chord"] - chord) <= (
        4 * 2.0 ** -52 * chord)


def test_sphere_mesh_stdout(capsys):
    code, out, _ = run_cli(capsys, "sphere-mesh", "--radius", "1.0",
                           "--n-theta", "6", "--n-phi", "8")
    assert code == 0
    assert out.startswith("v ")
    assert "\nf " in out


def test_sphere_mesh_out_file(tmp_path, capsys):
    target = tmp_path / "ball.obj"
    code, out, _ = run_cli(capsys, "sphere-mesh", "--radius", "1.0",
                           "--n-theta", "6", "--n-phi", "8",
                           "--m-image", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("v ")


def test_lattice_domain(capsys):
    code, out, _ = run_cli(capsys, "lattice", "domain", "--lattice",
                           "1,0,0,0,1,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["T213"] == [1.0, 1.0, 2.0]
    assert data["rotation"] == 0.0


def test_lattice_volume(capsys):
    code, out, _ = run_cli(capsys, "lattice", "volume", "--lattice", OPT,
                           "--json")
    assert code == 0
    assert json.loads(out)["domain_volume"] == pytest.approx(2.18415656,
                                                             abs=1e-5)


def test_lattice_points(capsys):
    code, out, _ = run_cli(capsys, "lattice", "points", "--lattice",
                           "1,0,0,0,1,0", "--shell", "1", "--json")
    assert code == 0
    assert len(json.loads(out)["points"]) == 27


def test_lattice_points_shell_cap(capsys):
    code, out, err = run_cli(capsys, "lattice", "points", "--lattice",
                             "1,0,0,0,1,0", "--shell", "51", "--json")
    assert code == 2
    assert out == "" and "shell index" in err


def test_lattice_tiling_check(capsys):
    code, out, _ = run_cli(capsys, "lattice", "tiling-check", "--lattice",
                           "1,0,0,0,1,0", "--samples", "120", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["gaps"] == 0 and data["overlaps"] == 0
    assert data["ok"] is True


def test_lattice_tiling_check_k2(capsys):
    # the seventh value is k; the k = 2 solid tiles, as the k = 1 one does
    code, out, _ = run_cli(capsys, "lattice", "tiling-check", "--lattice",
                           "1.7,0,1.2325,0.8,1.45,1.8125,2", "--samples",
                           "120", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["gaps"] == 0 and data["overlaps"] == 0
    assert data["ok"] is True


def test_lattice_file(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"t1": [1.30633820, 0.0, 0.73894461],
                             "t2": [0.65316910, 1.13132206, 1.10841692],
                             "k": 1}))
    code, out, _ = run_cli(capsys, "covering", "radius",
                           "--lattice-file", str(f), "--json")
    assert code == 0
    assert json.loads(out)["covering_radius"] == pytest.approx(0.90293941,
                                                               abs=1e-6)


def test_lattice_file_is_json_only(tmp_path, capsys):
    f = tmp_path / "lat.csv"
    # CSV is no lattice file, nor is a file that is not UTF-8, nor JSON
    # that is no mapping of two generator triples
    for content in (b"1,0,0,0,1,0\n", b"\xff\xfe\x00{\x00", b"[1, 2]",
                    b'{"t1": [1, 0, 0]}', b'{"t1": 5, "t2": [0, 1, 0]}'):
        f.write_bytes(content)
        code, _, err = run_cli(capsys, "lattice", "volume", "--lattice-file",
                               str(f))
        assert code == 2, content
        assert "invalid lattice file" in err


def test_lattice_file_generators_are_numbers(tmp_path, capsys):
    # a string generator is not read one character at a time, and a
    # component past the float range is not finite
    f = tmp_path / "lat.json"
    for t1 in ('"100"', '["1", 0, 0]', "[1%s, 0, 0]" % ("0" * 400)):
        f.write_text('{"t1": %s, "t2": [0, 1, 0]}' % t1)
        code, _, err = run_cli(capsys, "lattice", "volume", "--lattice-file",
                               str(f))
        assert code == 2, t1
        assert "generator components must be finite numbers" in err


def test_lattice_file_rejects_fractional_k(tmp_path, capsys):
    # k = 1.5 is no fibre divisor, nor is k = inf or nan; none must be read
    # as another k, and each exits with the usage code from a file or inline
    f = tmp_path / "lat.json"
    for k in ("1.5", "Infinity", "1e400", "NaN", "1" * 400):
        f.write_text('{"t1": [1.0, 0.0, 0.0], "t2": [0.0, 1.0, 0.0], '
                     '"k": %s}' % k)
        for source in (("--lattice-file", str(f)),
                       ("--lattice", "1,0,0,0,1,0," + k)):
            code, _, err = run_cli(capsys, "lattice", "volume", *source)
            assert code == 2, (k, source)
            assert "k must be a positive integer" in err


def test_integral_float_k_is_that_integer(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(json.dumps({"t1": [1.0, 0.0, 0.0], "t2": [0.0, 1.0, 0.0],
                             "k": 2.0}))
    volumes = []
    for source in (("--lattice", "1,0,0,0,1,0,2"),
                   ("--lattice", "1,0,0,0,1,0,2.0"),
                   ("--lattice-file", str(f))):
        code, out, _ = run_cli(capsys, "lattice", "volume", *source, "--json")
        assert code == 0
        volumes.append(json.loads(out)["domain_volume"])
    assert volumes == [0.5] * 3
    code, out, _ = run_cli(capsys, "lattice", "volume", "--lattice",
                           "1,0,0,0,1,0,1e3", "--json")
    assert code == 0
    assert json.loads(out)["domain_volume"] == 1e-3


def test_circumball(capsys):
    code, out, _ = run_cli(capsys, "circumball", "0,0,0",
                           "1.30633820,0,0.73894461",
                           "0.65316910,1.13132206,1.10841692",
                           "0,0,1.4778892262913", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["radius"] == pytest.approx(0.90293941, abs=1e-5)
    assert data["center"][0] == pytest.approx(0.45981062, abs=1e-5)


def test_covering_density(capsys):
    code, out, _ = run_cli(capsys, "covering", "density", "--lattice", OPT,
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["density"] == pytest.approx(1.43093459, abs=1e-5)
    assert data["verified"] is True


def test_covering_verify(capsys):
    code, out, _ = run_cli(capsys, "covering", "verify", "--lattice", OPT,
                           "--radius", "0.905", "--samples", "4000", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["covered"] is True


def test_covering_verify_failure_witness(capsys):
    code, out, _ = run_cli(capsys, "covering", "verify", "--lattice", OPT,
                           "--radius", "0.8", "--samples", "4000", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["covered"] is False
    assert data["witness_distance"] > 0.8


def test_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "f", "--radius",
                           str(math.pi / 2), "--json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.71179510, abs=1e-5)


def test_bound_lower(capsys):
    code, out, _ = run_cli(capsys, "bound", "lower", "--radius",
                           "0.8584744499478333", "--json")
    assert code == 0
    assert json.loads(out)["density"] == pytest.approx(1.36278112, abs=1e-6)


def test_optimize_hex(capsys):
    code, out, _ = run_cli(capsys, "optimize", "hex", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["t11"] == pytest.approx(1.26001585, abs=1e-4)
    assert data["density"] == pytest.approx(1.42900615, abs=1e-5)


def test_optimize_lower(capsys):
    code, out, _ = run_cli(capsys, "optimize", "lower", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["density"] == pytest.approx(1.36278112, abs=1e-4)


def test_constants(capsys):
    code, out, _ = run_cli(capsys, "constants", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["max_ball_radius"] == pytest.approx(2 * math.pi)


def test_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "covering", "verify", "--lattice", OPT,
                         "--radius", "0.905", "--samples", "2000", "--json")
    _, out2, _ = run_cli(capsys, "covering", "verify", "--lattice", OPT,
                         "--radius", "0.905", "--samples", "2000", "--json")
    assert out1 == out2


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--from", "0,0,0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--from", "0,0", "--to", "1,0,0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--from", "0,0,0", "--to", "nan,0,0"])
    assert exc.value.code == 1
    assert "non-finite coordinate" in capsys.readouterr().err


def test_domain_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "ball-volume", "--radius", "7.0")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "lattice", "volume", "--lattice",
                           "1,0,0,2,0,0")
    assert code == 2
    for action in (("lattice", "volume"), ("covering", "density")):
        code, _, err = run_cli(capsys, *action, "--lattice", "nan,0,0,0,1,0")
        assert code == 2
        assert "must be finite" in err
    code, _, err = run_cli(capsys, "circumball", "0,0,0", "1,0,0", "2,0,0",
                           "0,1,0")
    assert code == 2
    assert "coplanar" in err
    # a 401-digit count passes argparse's int() but is no sample count
    for action in (("covering", "verify", "--radius", "0.9"),
                   ("lattice", "tiling-check")):
        code, _, err = run_cli(capsys, *action, "--lattice", "1,0,0,0,1,0",
                               "--samples", "1" + "0" * 400)
        assert code == 2, action
        assert "error:" in err and "sample count" in err


def test_no_solution_exit_three(capsys):
    for to in ("9,0,0", "6.35,0,0"):
        code, _, err = run_cli(capsys, "distance", "--from", "0,0,0",
                               "--to", to)
        assert code == 3
        assert "error:" in err
    code, _, err = run_cli(capsys, "circumball", "0,0,0", "20,0,0", "0,20,0",
                           "0,0,400")
    assert code == 3
    assert "error:" in err


def test_io_error_exit_four(capsys):
    code, _, err = run_cli(capsys, "covering", "radius",
                           "--lattice-file", "/nonexistent/lat.json")
    assert code == 4
    assert "error:" in err
