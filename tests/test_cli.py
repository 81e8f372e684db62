import json
import math
import struct

import pytest

from io_utils import read_obj, read_stl
from polydome import cli
from polydome.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeshCommand:
    def test_writes_stl_and_reports_volume(self, tmp_path, capsys):
        target = tmp_path / "dome5.stl"
        code, out, err = run(
            capsys, "mesh", "--n", "5", "--R", "1",
            "--segments", "32", "--rings", "32", "--format", "stl", "-o", str(target),
        )
        assert code == 0 and err == ""
        assert target.exists()
        reference = (2.0 / 3.0) * 5.0 * math.tan(math.pi / 5.0)
        reported = float(out.split("signed_volume=")[1].split()[0])
        assert abs(reported - reference) / reference < 0.005
        data = target.read_bytes()
        (count,) = struct.unpack("<I", data[80:84])
        assert len(data) == 84 + 50 * count

    def test_heptagon_solid_by_volume_proxy(self, tmp_path, capsys):
        # visual shape claims are accepted via volume + watertightness:
        # exit 0 implies the watertightness check passed
        target = tmp_path / "dome7.stl"
        code, out, _ = run(
            capsys, "mesh", "--n", "7", "--R", "1",
            "--segments", "16", "--rings", "16", "-o", str(target),
        )
        assert code == 0
        reference = (2.0 / 3.0) * 7.0 * math.tan(math.pi / 7.0)
        reported = float(out.split("signed_volume=")[1].split()[0])
        assert abs(reported - reference) / reference < 0.005

    def test_writes_obj(self, tmp_path, capsys):
        target = tmp_path / "dome.obj"
        code, out, _ = run(
            capsys, "mesh", "--n", "4", "--R", "1",
            "--segments", "2", "--rings", "2", "--format", "obj", "-o", str(target),
        )
        assert code == 0
        vertices, faces = read_obj(target.read_text())
        assert len(vertices) > 0 and len(faces) > 0

    def test_rejects_two_sides(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "mesh", "--n", "2", "--R", "1", "-o", str(tmp_path / "x.stl")
        )
        assert code != 0
        assert "n must be at least 3" in err
        assert not (tmp_path / "x.stl").exists()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "mesh", "--n", "4", "--R", "1",
            "--segments", "1", "--rings", "1", "-o", str(tmp_path / "missing" / "x.stl"),
        )
        assert code != 0 and err


class TestVolumeCommand:
    def test_analytic_only(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "4", "--R", "1")
        assert code == 0
        report = json.loads(out)
        assert report["analytic"] == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert report["mesh_estimate"] is None and report["mc_estimate"] is None

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ("volume", "--n", "4", "--R", "1", "--mc-samples", "200000", "--seed", "42")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        report = json.loads(first)
        assert report["sample_count"] == 200000 and report["seed"] == 42
        assert abs(report["mc_estimate"] - 8.0 / 3.0) < 4.0 * report["mc_std_error"]

    def test_near_hemisphere(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "100", "--R", "1")
        hemisphere = 2.0 * math.pi / 3.0
        assert abs(json.loads(out)["analytic"] - hemisphere) / hemisphere < 0.0007

    def test_mesh_flag_adds_estimate(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "volume", "--n", "4", "--R", "1", "--mesh-res", "16", "-o", str(target)
        )
        assert code == 0
        report = json.loads(out)
        assert report["mesh_estimate"] == pytest.approx(8.0 / 3.0, rel=0.005)
        assert target.read_text().strip() == out.strip()


class TestSlabsCommand:
    def test_single_slab_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "slabs", "--n", "4", "--R", "1", "--m", "1")
        assert code == 0
        lines = (tmp_path / "slabs_n4_m1.csv").read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == pytest.approx(0.816497, abs=1e-6)

    def test_volume_column_sums_to_closed_form(self, tmp_path, capsys):
        target = tmp_path / "slabs.csv"
        code, _, _ = run(capsys, "slabs", "--n", "5", "--R", "2", "--m", "13", "-o", str(target))
        assert code == 0
        lines = target.read_text().splitlines()[1:]
        total = sum(float(line.split(",")[4]) for line in lines)
        reference = (2.0 / 3.0) * 5.0 * 8.0 * math.tan(math.pi / 5.0)
        assert abs(total - reference) / reference < 1e-12

    def test_squared_gap_ratio_across_doubling(self, tmp_path, capsys):
        def squared_gap(m):
            _, out, _ = run(
                capsys, "slabs", "--n", "4", "--R", "1", "--m", str(m),
                "-o", str(tmp_path / f"s{m}.csv"),
            )
            return float(out.split("max_sq_apothem_gap=")[1].split()[0])

        assert squared_gap(10) / squared_gap(20) == pytest.approx(4.0, rel=1e-9)

    def test_staircase_mesh_output(self, tmp_path, capsys):
        mesh_path = tmp_path / "stairs.stl"
        code, out, _ = run(
            capsys, "slabs", "--n", "4", "--R", "1", "--m", "4",
            "-o", str(tmp_path / "s.csv"), "--mesh-out", str(mesh_path),
        )
        assert code == 0
        _, count, _ = read_stl(mesh_path.read_bytes())
        assert count == 2 * (4 - 2) + 2 * 4 * (2 * 4 - 1)  # caps + walls + step rings

    def test_rejects_zero_slabs(self, capsys):
        code, _, err = run(capsys, "slabs", "--n", "4", "--R", "1", "--m", "0")
        assert code != 0 and "slab count m must be at least 1" in err


class TestXsecCommand:
    def test_square_diagonal(self, capsys):
        code, out, _ = run(capsys, "xsec", "--n", "4", "--R", "1", "--azimuth-deg", "45")
        assert code == 0
        document = json.loads(out)
        assert abs(document["semi_axis_pos"] - math.sqrt(2.0)) < 1e-12
        assert abs(document["semi_axis_neg"] - math.sqrt(2.0)) < 1e-12
        assert document["vertical_semi_axis"] == 1.0
        assert document["residual"] < 1e-12

    def test_edge_azimuth_is_circular(self, capsys):
        _, out, _ = run(capsys, "xsec", "--n", "4", "--R", "1", "--azimuth-deg", "0")
        document = json.loads(out)
        assert document["semi_axis_pos"] == 1.0 and document["semi_axis_neg"] == 1.0

    def test_triangle_opposite_branch_hits_corner(self, capsys):
        _, out, _ = run(capsys, "xsec", "--n", "3", "--R", "1", "--azimuth-deg", "0")
        document = json.loads(out)
        assert document["semi_axis_pos"] == pytest.approx(1.0)
        assert document["semi_axis_neg"] == pytest.approx(2.0, abs=1e-12)

    def test_mesh_sourced_section(self, capsys):
        _, out, _ = run(
            capsys, "xsec", "--n", "4", "--R", "1", "--azimuth-deg", "30", "--mesh-res", "32"
        )
        document = json.loads(out)
        assert document["residual"] < 1e-3
        assert len(document["branch_pos"]) > 4

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "section.csv"
        code, _, _ = run(
            capsys, "xsec", "--n", "4", "--R", "1", "--azimuth-deg", "45",
            "--format", "csv", "-o", str(target), "--points", "5",
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "branch,rho,z"
        assert len(lines) == 11


class TestParamsCommand:
    def test_square_sector_table(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "4")
        assert code == 0
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:5]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]
        assert float(rows[0][1]) == pytest.approx(-45.0)
        assert float(rows[0][2]) == pytest.approx(45.0)
        expected_min = math.cos(math.pi / 4)
        assert all(float(row[4]) == pytest.approx(expected_min, abs=1e-8) for row in rows)

    def test_pentagon_first_interval(self, capsys):
        _, out, _ = run(capsys, "params", "--n", "5")
        first = out.splitlines()[1].split()
        assert float(first[1]) == pytest.approx(-36.0)
        assert float(first[2]) == pytest.approx(36.0)

    def test_summary_line(self, capsys):
        _, out, _ = run(capsys, "params", "--n", "6")
        assert out.splitlines()[-1].startswith("params: n=6")


class TestOutputDirOverride:
    def test_relative_paths_land_in_env_dir(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "reports"
        outdir.mkdir()
        monkeypatch.setenv("POLYDOME_OUT_DIR", str(outdir))
        code, _, _ = run(
            capsys, "volume", "--n", "4", "--R", "1", "-o", "report.json"
        )
        assert code == 0
        assert (outdir / "report.json").exists()

    def test_absolute_paths_ignore_env_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYDOME_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        code, _, _ = run(capsys, "volume", "--n", "4", "--R", "1", "-o", str(target))
        assert code == 0
        assert target.exists()


class TestInputBounds:
    @pytest.mark.parametrize("argv,bound", [
        (["volume", "--n", "4", "--R", "1e200"], "R must be a real number in [1e-30, 1e+30]"),
        (["volume", "--n", "4", "--R", "nan"], "R must be a real number in [1e-30, 1e+30]"),
        (["xsec", "--n", "4", "--R", "1e-200", "--azimuth-deg", "30", "--mesh-res", "4"],
         "R must be a real number in [1e-30, 1e+30]"),
        (["mesh", "--n", "4", "--R", "1e-200", "-o", "x.stl"], "R must be a real number in [1e-30, 1e+30]"),
        (["params", "--n", "4", "--a-samples", "-3"], "a-samples must be at least 0"),
        (["params", "--n", "1" + "0" * 400], "n must be at most 1000000"),
        (["volume", "--n", "1000001", "--R", "1"], "n must be at most 1000000"),
        (["mesh", "--n", "1000000", "--R", "1", "-o", "x.stl"], "must be at most 3500000"),
        (["volume", "--n", "11", "--R", "1", "--mesh-res", "400"], "must be at most 3500000"),
        (["xsec", "--n", "11", "--R", "1", "--azimuth-deg", "0", "--mesh-res", "400"], "must be at most 3500000"),
        (["slabs", "--n", "437501", "--R", "1", "--m", "2", "--mesh-out", "x.stl"], "must be at most 3500000"),
    ])
    def test_exits_2_naming_the_bound(self, argv, bound, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert bound in err
        assert "Traceback" not in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("R", ["1e-30", "1e30"])
    def test_range_ends_are_valid(self, R, capsys):
        code, out, _ = run(capsys, "volume", "--n", "4", "--R", R, "--mesh-res", "8")
        report = json.loads(out)
        assert code == 0
        assert 0.98 < report["mesh_estimate"] / report["analytic"] < 1.0


class TestSmallApothem:
    """Tolerances scale with R, so tiny solids behave like the unit solid."""

    def test_monte_carlo_is_unbiased(self, capsys):
        code, out, _ = run(capsys, "volume", "--n", "4", "--R", "1e-14", "--mc-samples", "200000", "--seed", "3")
        report = json.loads(out)
        assert code == 0 and report["mc_std_error"] > 0.0
        assert abs(report["mc_estimate"] - report["analytic"]) < 5.0 * report["mc_std_error"]

    def test_mesh_section_has_branches(self, capsys):
        argv = ("xsec", "--n", "4", "--azimuth-deg", "10", "--mesh-res", "4")
        _, tiny, _ = run(capsys, *argv, "--R", "1e-30")
        _, unit, _ = run(capsys, *argv, "--R", "1")
        tiny, unit = json.loads(tiny), json.loads(unit)
        for branch in ("branch_pos", "branch_neg"):
            assert len(tiny[branch]) == len(unit[branch]) > 2
        assert tiny["residual"] == pytest.approx(unit["residual"], rel=1e-9)


# The numpy-backed names the commands call.  A tracer that wraps layer
# functions from outside rebinds exactly these attributes of ``polydome.cli``,
# so every command must look them up there when it runs.
ARRAY_LAYER_NAMES = (
    "MeshResolution", "tessellate", "write_obj", "write_stl",
    "ellipse_residual", "mesh_plane_section", "mesh_volume", "plane_section",
    "volume_report", "write_section_csv",
    "build_slab_stack", "convergence_profile", "slab_stack_mesh", "write_slab_csv",
)


def test_commands_call_the_layers_through_module_attributes(tmp_path, capsys, monkeypatch):
    calls = dict.fromkeys(ARRAY_LAYER_NAMES, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ARRAY_LAYER_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setenv("POLYDOME_OUT_DIR", str(tmp_path))
    for argv in (
        ["mesh", "--n", "4", "--R", "1", "--segments", "2", "--rings", "2", "-o", "dome.stl"],
        ["volume", "--n", "4", "--R", "1", "--mc-samples", "1000"],
        ["slabs", "--n", "4", "--R", "1", "--m", "3", "--mesh-out", "stairs.obj"],
        ["xsec", "--n", "4", "--R", "1", "--azimuth-deg", "30", "--mesh-res", "4", "--format", "csv"],
        ["xsec", "--n", "4", "--R", "1", "--azimuth-deg", "30"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert [name for name, count in calls.items() if not count] == []


def test_unknown_module_attribute():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name
