import argparse
import json
import math
import os
import shlex
import warnings

import numpy as np
import pytest

import tomolab.quantum
from tomolab import cli
from tomolab import limits as lm
from tomolab import states as st
from tomolab.classical import DensityGrid, write_density_csv
from tomolab.kernel import (DeltaAtom, GridFunction2D, Tomogram, TomographyFrame, normalization_residual,
                            read_tomogram)


def run(args):
    return cli.main(args)


def test_tomogram_command_ground_state(tmp_path, capsys):
    out = str(tmp_path / "ho0.csv")
    code = run(["tomogram", "--state", "ho:n=0", "--frame", "1,0", "--hbar", "1",
                "--grid", "-5,5,1001", "--out", out])
    assert code == 0
    tom, meta = read_tomogram(out)
    assert abs(np.max(tom.values) - 0.564190) < 1e-5
    assert meta["hbar"] == 1.0
    assert meta["frame"] == {"mu": 1.0, "nu": 0.0}
    captured = capsys.readouterr().out
    assert "normalization residual" in captured


_NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"


def test_box_tomogram_leaves_scipy_special_unimported(tmp_path):
    # the Faddeeva function is numpy-only: importing scipy.special would add
    # ~0.27 s and ~20 MB to every process that draws a box tomogram
    import subprocess
    import sys

    out = str(tmp_path / "box.csv")
    code = (
        "import sys, tomolab.cli as c\n"
        + _NO_SCIPY
        + "assert c.main(['tomogram', '--state', 'box:n=40,L=1', '--frame', '1,0.3',\n"
        f"               '--hbar', '0.0112', '--out', {out!r}]) == 0\n"
        + _NO_SCIPY
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


def test_cli_import_leaves_numpy_fft_unimported():
    # numpy loads numpy.fft on first use; the quadrature route's exponential
    # sum and the custom-state extent use it inside functions only, so
    # processes that never need it do not pay its import
    import subprocess
    import sys

    code = "import sys, tomolab.cli\nassert 'numpy.fft' not in sys.modules\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


def test_tomogram_command_cat_symmetry(tmp_path):
    out = str(tmp_path / "cat.csv")
    code = run(["tomogram", "--state", "cat:even,re=1,im=0", "--frame", "0,1",
                "--hbar", "1", "--grid", "-6,6,1201", "--out", out])
    assert code == 0
    tom, _ = read_tomogram(out)
    assert np.max(np.abs(tom.values - tom.values[::-1])) < 1e-10
    # central fringe region is structured: interior maxima exist
    assert np.max(tom.values) > 0.1


def test_tomogram_command_box_sine(tmp_path):
    out = str(tmp_path / "box.csv")
    code = run(["tomogram", "--state", "box:n=5,L=1", "--frame", "1,0",
                "--hbar", "1", "--grid", "0,1,501", "--out", out])
    assert code == 0
    tom, _ = read_tomogram(out)
    ref = 2.0 * np.sin(5 * math.pi * tom.x_grid) ** 2
    assert np.max(np.abs(tom.values - ref)) < 1e-12


def test_tomogram_scaling_flag(tmp_path):
    out = str(tmp_path / "s.csv")
    code = run(["tomogram", "--state", "ho:n=0", "--scaling", "1,0", "--hbar", "1",
                "--grid", "-5,5,101", "--out", out])
    assert code == 0
    tom, meta = read_tomogram(out)
    assert meta["frame"] == {"mu": 1.0, "nu": 0.0}


def test_frame_and_scaling_mutually_exclusive(tmp_path):
    cfg = cli.RunConfig(command="tomogram", state="ho:n=0", frame=(1, 0), scaling=(1, 0),
                        hbar=1.0, grid=(-5, 5, 101), out=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        cfg.resolved_frame()


def test_descriptor_error_exit_code(tmp_path, capsys):
    code = run(["tomogram", "--state", "ho:n=1,bogus=2", "--frame", "1,0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_tomogram_command_fails_on_a_mass_deficit(tmp_path, capsys):
    # a grid of +-0.5 around the ground state holds about half its mass: the
    # CSV is still written for inspection, but the command must not succeed
    out = str(tmp_path / "ho0.csv")
    code = run(["tomogram", "--state", "ho:n=0", "--hbar", "1", "--frame", "1,0",
                "--grid=-0.5,0.5,101", "--out", out])
    assert code == 1
    assert os.path.exists(out)
    err = capsys.readouterr().err
    assert "normalization residual" in err and "0.01" in err


def test_tomogram_command_keeps_the_mass_of_a_large_order(tmp_path, capsys):
    # e^(-x^2/2) underflowing in the Hermite recurrence once cost this
    # tomogram a third of its mass (residual 0.337)
    out = str(tmp_path / "ho1000.csv")
    code = run(["tomogram", "--state", "ho:n=1000", "--frame", "1,0.3", "--hbar", "1e-3",
                "--grid=-1.9,1.9,4001", "--out", out])
    assert code == 0
    tom, _ = read_tomogram(out)
    assert normalization_residual(tom) < 1e-10


def test_value_errors_exit_cleanly(tmp_path, capsys):
    # neither --frame nor --scaling: one stderr line and status 2, no traceback
    code = run(["tomogram", "--state", "ho:n=0", "--hbar", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--frame" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("state, field", [
    ("ho:n=1,varpi=5e-324", "varpi"), ("coherent:re=1,im=0,varpi=1e-320", "varpi"),
    ("box:n=1,L=5e-324", "L"), ("ho:n=1,varpi=inf", "varpi"), ("box:n=1,L=inf", "L")])
def test_state_scales_must_be_finite_normal_doubles(tmp_path, capsys, state, field):
    # the subnormal ones once ended in OverflowError and ZeroDivisionError
    # tracebacks, and the infinite ones blamed the frame or the x grid
    out = str(tmp_path / "x.csv")
    assert run(["tomogram", "--state", state, "--frame", "1,0.5", "--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{field} must be a finite positive normal double" in err[0]
    assert not os.path.exists(out)


@pytest.mark.parametrize("L", ["2.3e-308", "1e308"])
def test_a_box_whose_wave_number_leaves_the_normal_doubles_is_refused(tmp_path, capsys, L):
    # both widths are normal doubles, but k = pi/L overflows k^2 at the
    # first (which exited 2 after a RuntimeWarning, blaming the x grid) and
    # underflows it at the second (which wrote a NaN tomogram and exited 1)
    out = str(tmp_path / "x.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["tomogram", "--state", f"box:n=1,L={L}", "--frame", "1,0.5", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"L = {float(L)!r}" in err[0]
    assert "must be a finite positive normal double" in err[0]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("L", ["2.3e-308", "1e308"])
def test_the_box_study_refuses_a_width_whose_wave_number_leaves_the_normal_doubles(tmp_path, capsys, L):
    # the study once met the fringe cos(2 pi n X/(mu L)) first: a RuntimeWarning
    # from the stationary-phase form, then "limit: distances must be finite"
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["limit", "ehrenfest-box", "--ns", "25,50", "--L", L, "--frame", "1,0.3",
                    "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"L = {float(L)!r}" in err[0]
    assert "must be a finite positive normal double" in err[0]
    assert os.listdir(tmp_path) == []


def test_a_narrow_box_keeps_its_momentum_reach_finite(tmp_path, capsys):
    # 8 k^2 hbar^3/(3 pi L mass_tol) reached 3.3e308 before its cube root was
    # taken: a RuntimeWarning and exit 2, "x_grid must be finite and uniformly spaced"
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["tomogram", "--state", "box:n=1,L=1e-101", "--frame", "1,0.5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.json"]
    assert normalization_residual(read_tomogram(str(out))[0]) < 1e-5


@pytest.mark.parametrize("study, args, frame, unit, rtol", [
    ("ehrenfest-oscillator", ["--ns", "25,50"], "1e160,0", "1,0", 0.0),
    ("ehrenfest-coherent", [], "1e160,0", "1,0", 1e-11),
    ("ehrenfest-cat", [], "1e160,0", "1,0", 1e-11),
    ("interference", [], "1e160,1e160", "1,1", 1e-12)])
def test_a_study_runs_in_a_frame_whose_squared_length_overflows(tmp_path, capsys, study, args, frame,
                                                                unit, rtol):
    # mu^2 + nu^2 once ended each of these in an OverflowError traceback, exit 1;
    # every study reads its distances in units of |zeta|, so they are those of the unit frame
    reports = []
    for fr in (frame, unit):
        out = tmp_path / fr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["limit", study, *args, "--frame", fr, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = (out / f"{study}_report.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        reports.append(json.loads(text))
    big, ref = (np.array(r["distances"]) for r in reports)
    assert np.all(np.abs(big - ref) <= rtol * ref)


def test_a_frame_whose_length_overflows_is_refused_up_front(tmp_path, capsys):
    # once a RuntimeWarning, then "x_grid must be finite and uniformly spaced"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["tomogram", "--state", "ho:n=0", "--frame", "1.7e308,1.7e308", "--hbar", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "tomogram: frame (1.7e+308, 1.7e+308) must have a finite length"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("hbar", ["0.5", "1", "2"])
@pytest.mark.parametrize("state", [
    "coherent:re=1,im=0,varpi=1.7e308", "cat:odd,re=1,im=0.3,varpi=1e308",
    "ho:n=3,varpi=1.7e308", "superpos:n=1,m=4,varpi=1.7e308"])
def test_a_varpi_near_the_largest_double_keeps_its_mass(tmp_path, capsys, state, hbar):
    # sqrt(2 hbar varpi) and sqrt(hbar varpi) once overflowed past hbar varpi
    # ~ 9e307 and 1.8e308: six of these twelve exited 2 ("x_grid must be
    # finite") or ended in a RuntimeWarning
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["tomogram", "--state", state, "--frame", "1,0.5", "--hbar", hbar,
                    "--out", str(out)]) == 0
    assert normalization_residual(read_tomogram(str(out))[0]) < 1e-12


def test_compare_refuses_a_density_file_written_q_fastest(tmp_path, capsys):
    # under the same header and sidecar this file once compared at L1 1.527
    # with its coherent state, where the p-fastest file reads 0.332
    g = np.linspace(-6, 6, 121)
    f = np.exp(-(g[:, None] - 2) ** 2 / 2 - g[None, :] ** 2 / 2) / (2 * math.pi)
    path = tmp_path / "f.csv"
    write_density_csv(DensityGrid(GridFunction2D(g, g, f)), str(path))
    argv = ["compare", "--state", "coherent:re=1.4142135623730951,im=0",
            "--classical", f"grid:{path}", "--frames", "1,0", "--out", str(tmp_path / "out")]
    assert run(argv) == 0
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [rows[i * g.size + j] for j in range(g.size)
                                           for i in range(g.size)]) + "\n")
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sidecar's axes, p fastest" in err[0]


def test_compare_refuses_a_density_file_without_its_sidecar(tmp_path, capsys):
    # the descriptor check once looked only for the CSV, and the missing
    # sidecar ended in a FileNotFoundError traceback with status 1
    g = np.linspace(-6, 6, 61)
    f = np.exp(-(g[:, None] - 2) ** 2 / 2 - g[None, :] ** 2 / 2) / (2 * math.pi)
    path = tmp_path / "f.csv"
    os.remove(write_density_csv(DensityGrid(GridFunction2D(g, g, f)), str(path)))
    assert run(["compare", "--state", "coherent:re=1.4142135623730951,im=0", "--classical",
                f"grid:{path}", "--frames", "1,0", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(tmp_path / "f.json") in err[0]


def test_hbar_sequence_parsing():
    seq = cli.parse_hbar_sequence("1e-1:1e-3:geometric")
    assert seq[0] == 0.1
    assert all(abs(seq[i] / seq[i + 1] - 2.0) < 1e-12 for i in range(len(seq) - 1))
    assert seq[-1] >= 1e-3
    seq = cli.parse_hbar_sequence("1:0.001:geometric:4")
    assert len(seq) == 4
    assert abs(seq[-1] - 0.001) < 1e-15
    with pytest.raises(Exception):
        cli.parse_hbar_sequence("1:2:linear")
    # both endpoints meet the --hbar check; an infinite start with no count once never returned
    for text in ("inf:1e-3:geometric:5", "inf:1e-3:geometric", "1e-1:nan:geometric", "0:1e-3:geometric:4"):
        with pytest.raises(argparse.ArgumentTypeError, match="hbar must be positive and finite"):
            cli.parse_hbar_sequence(text)


@pytest.mark.parametrize("text", ["1e300:1e-300:geometric:3", "1e-300:1e300:geometric:3",
                                  "1e200:1e-200:geometric:5", "1e-200:1e200:geometric:6"])
def test_hbar_sweep_beyond_double_range_ratio(text):
    # b/a over- or underflows: the sweep once read [1e300, 0.0, 0.0] and [1e-300, inf, inf]
    a, b = map(float, text.split(":")[:2])
    seq = cli.parse_hbar_sequence(text)
    assert seq[0] == a and seq[-1] == b and len(seq) == int(text.rsplit(":", 1)[1])
    assert all(0.0 < h < math.inf for h in seq)
    step = 1.0 if b > a else -1.0
    assert all(step * (seq[k + 1] - seq[k]) > 0.0 for k in range(len(seq) - 1))
    logs = np.log(seq)
    assert np.max(np.abs(np.diff(logs, 2))) < 1e-12 * np.max(np.abs(logs))


def test_hbar_sweep_in_double_range_keeps_its_values():
    for a, b, n in ((0.1, 1e-4, 7), (1.0, 0.001, 4), (2.5, 7.0, 5), (1e-150, 1e150, 3)):
        ratio = (b / a) ** (1.0 / (n - 1))
        want = [a * ratio ** k for k in range(n)]
        assert cli.parse_hbar_sequence(f"{a!r}:{b!r}:geometric:{n}") == want


@pytest.mark.parametrize("args, config, field", [
    (["limit", "planck-delta", "--hbars", "1e-1:1e-3:geometric:x"], None, "hbar sweep count"),
    (["limit", "ehrenfest-oscillator", "--ns", "20,x"], None, "ns"),
    (None, {"command": "limit", "study": "interference", "params": {"n": "x"}}, "n"),
])
def test_a_count_that_is_not_an_integer_names_its_field(tmp_path, capsys, args, config, field):
    # each once read "invalid literal for int() with base 10: 'x'"
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        args = ["--config", str(path)]
    assert run([*args, "--out", str(tmp_path / "out")] if config is None else args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"{field} must be" in err[0] and "integer" in err[0]
    assert "invalid literal" not in err[0]


def test_limit_command_interference(tmp_path, capsys):
    out = str(tmp_path / "study")
    code = run(["limit", "interference", "--n", "0", "--m", "1", "--frame", "0.6,0.8",
                "--hbars", "1e-1:1e-3:geometric", "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "interference_report.json")))
    assert abs(rep["exponent"] - 0.5) < 0.03
    assert rep["verdict"] == "converged"
    assert rep["artifacts"]
    assert all(os.path.exists(p) for p in rep["artifacts"])


@pytest.mark.parametrize("study", cli.STUDIES)
def test_limit_study_runs_at_its_defaults(tmp_path, study):
    # interference, cat-interference and ehrenfest-box refuse the frame
    # (1, 0), so each study brings a default frame it accepts
    assert run(["limit", study, "--out", str(tmp_path / "study")]) == 0


def test_limit_command_unknown_study(tmp_path, capsys):
    # argparse enforces the study choices on the command line
    with pytest.raises(SystemExit):
        run(["limit", "nonsense"])
    # the config path reports the valid options instead
    path = str(tmp_path / "run.json")
    with open(path, "w") as fh:
        json.dump({"command": "limit", "study": "nonsense", "frame": [0.6, 0.8]}, fh)
    assert run(["--config", path]) == 2
    assert "ehrenfest-oscillator" in capsys.readouterr().err


def test_reconstruct_target_choices_are_the_table_keys():
    sub = cli.build_parser()._subparsers._group_actions[0].choices["reconstruct"]
    (target,) = [a for a in sub._actions if a.dest == "target"]
    assert tuple(target.choices) == tuple(cli._TARGETS) == ("wigner", "density")


def test_limit_command_planck_delta(tmp_path):
    out = str(tmp_path / "study")
    code = run(["limit", "planck-delta", "--state", "coherent:re=1,im=0",
                "--frame", "0.6,0.8", "--hbars", "4e-3:6.25e-5:geometric:4",
                "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "planck-delta_report.json")))
    assert rep["verdict"] == "converged"
    assert rep["details"]["center"] == 0.0


def test_limit_command_planck_delta_in_the_zero_frame_is_exact(tmp_path):
    # the zero frame's tomogram is the unit atom at 0, the target itself:
    # every distance is exactly 0, which reads converged with no exponent
    out = str(tmp_path / "study")
    assert run(["limit", "planck-delta", "--frame", "0,0", "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "planck-delta_report.json")))
    assert rep["distances"] == [0.0] * 6
    assert rep["verdict"] == "converged" and rep["exponent"] is None


def test_limit_command_planck_delta_resolves_a_large_order(tmp_path):
    # 2001 points left the n = 6000 artifacts 2e-2 short of unit mass
    out = str(tmp_path / "study")
    code = run(["limit", "planck-delta", "--state", "ho:n=6000",
                "--hbars", "1e-2:1.25e-3:geometric", "--frame", "1,0", "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "planck-delta_report.json")))
    assert len(rep["artifacts"]) == 4
    for path in rep["artifacts"]:
        tom, _ = read_tomogram(path)
        assert tom.x_grid.size == 18001 and normalization_residual(tom) < 1e-10


def test_limit_command_fails_on_an_artifact_mass_deficit(tmp_path, capsys, monkeypatch):
    # with the tolerance below the artifacts' roundoff every artifact misses
    # it: the report is still written, but the command must not succeed
    monkeypatch.setattr(cli, "TOMOGRAM_MASS_TOL", 1e-16)
    out = str(tmp_path / "study")
    code = run(["limit", "ehrenfest-coherent", "--frame", "1,0", "--out", out])
    assert code == 1
    assert os.path.exists(os.path.join(out, "ehrenfest-coherent_report.json"))
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3
    assert "ehrenfest-coherent_hbar_1.000000e-03.csv" in err[1] and "tolerance 1e-16" in err[1]


def test_limit_command_ehrenfest_cat_resolves_its_fringes(tmp_path):
    # near the fringe frame the default 2001 points undersample the fringes
    # at hbar = 1e-3 (mass off by 4e-2); there the grid takes four points a
    # period, and away from it stays at 2001 points
    qa, pa = "1.4961860991915943", "-0.8333520530471484"
    out = str(tmp_path / "near")
    code = run(["limit", "ehrenfest-cat", "--q-alpha", qa, "--p-alpha", pa,
                "--scaling", "0.9252541173618899,0.9586151787036555", "--out", out])
    assert code == 0
    tom, _ = read_tomogram(os.path.join(out, "ehrenfest-cat_hbar_1.000000e-03.csv"))
    assert tom.x_grid.size > 2001 and normalization_residual(tom) < 1e-10
    out = str(tmp_path / "far")
    assert run(["limit", "ehrenfest-cat", "--q-alpha", qa, "--p-alpha", pa,
                "--frame", "1,0", "--out", out]) == 0
    for h in ("1.000000e-03", "5.000000e-04", "2.500000e-04"):
        tom, _ = read_tomogram(os.path.join(out, f"ehrenfest-cat_hbar_{h}.csv"))
        assert tom.x_grid.size == 2001


def test_limit_command_ehrenfest_oscillator(tmp_path):
    out = str(tmp_path / "study")
    code = run(["limit", "ehrenfest-oscillator", "--ns", "25,50,100", "--frame", "1,0",
                "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "ehrenfest-oscillator_report.json")))
    assert rep["verdict"] == "converged"
    d = rep["distances"]
    assert d[0] > d[1] > d[2]


def test_limit_command_ehrenfest_oscillator_at_large_order(tmp_path):
    # past n ~ 700 the Hermite recurrence used to underflow in the allowed
    # region, and n = 1000 sat at distance 8.5e-2
    out = str(tmp_path / "study")
    code = run(["limit", "ehrenfest-oscillator", "--ns", "250,500,1000,2000", "--frame", "1,0",
                "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "ehrenfest-oscillator_report.json")))
    assert rep["verdict"] == "converged"
    d = rep["distances"]
    assert d[0] > d[1] > d[2] > d[3]
    assert -1.3 < rep["exponent"] < -0.8


@pytest.mark.parametrize("study,args,name,values", [
    ("planck-delta", ["--state", "coherent:re=1,im=0", "--frame", "0.6,0.8",
                      "--hbars", "4e-3:6.25e-5:geometric:4"], "hbar", [4e-3, 1e-3, 2.5e-4, 6.25e-5]),
    ("interference", ["--frame", "0.6,0.8", "--hbars", "1e-1:6.25e-3:geometric"],
     "hbar", [1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3]),
    ("cat-interference", ["--frame", "0.6,0.8"], "hbar", [1e-1, 5e-2, 2.5e-2, 1.25e-2]),
    ("ehrenfest-coherent", ["--frame", "1,0"], "hbar", [1e-2, 1e-3, 1e-4]),
    ("ehrenfest-cat", ["--frame", "1,0"], "hbar", [1e-3, 5e-4, 2.5e-4]),
    ("ehrenfest-box", ["--ns", "20,40", "--frame", "1,0.3"], "n", [20, 40]),
    ("ehrenfest-oscillator", ["--ns", "25,50", "--frame", "1,0"], "n", [25, 50]),
])
def test_limit_command_writes_one_artifact_per_value(tmp_path, study, args, name, values):
    out = str(tmp_path / "study")
    assert run(["limit", study, *args, "--out", out]) == 0
    labels = [f"{v:.6e}" if name == "hbar" else str(v) for v in values]
    paths = [os.path.join(out, f"{study}_{name}_{label}.csv") for label in labels]
    rep = json.load(open(os.path.join(out, f"{study}_report.json")))
    assert rep["artifacts"] == paths
    for path in paths:
        sidecar = os.path.exists(path[:-4] + ".json")
        if study in ("interference", "ehrenfest-box", "ehrenfest-oscillator"):
            assert not sidecar  # a profile, or the curve behind an n study's distance
            with open(path) as fh:
                assert fh.readline() == ("X,value\n" if study == "interference" else "X,quantum,classical\n")
        else:
            assert sidecar
            tom, _ = read_tomogram(path)
            assert normalization_residual(tom) <= cli.TOMOGRAM_MASS_TOL


def test_limit_ehrenfest_box_profile_spans_the_support_for_negative_mu(tmp_path):
    # at mu < 0 the plateaus lie below X = 0, so a profile whose X span
    # starts at -0.5 - sqrt2|nu| for either sign of mu loses a quarter of
    # its mass; mirrored frames must carry the same mass
    masses = []
    for mu in ("1", "-1"):
        out = str(tmp_path / f"mu{mu}")
        assert run(["limit", "ehrenfest-box", "--ns", "25,50", "--frame", f"{mu},0.3",
                    "--out", out]) == 0
        prof = np.loadtxt(os.path.join(out, "ehrenfest-box_n_50.csv"), delimiter=",",
                          skiprows=1)
        x, w = prof[:, 0], prof[:, 1]
        masses.append(float(np.sum(0.5 * (w[1:] + w[:-1]) * np.diff(x))))
    assert abs(masses[0] - masses[1]) < 1e-2


def test_limit_ehrenfest_box_at_the_roundoff_floor_reports_no_exponent(tmp_path):
    # one-period means cancel the fringe exactly, so these distances are
    # roundoff; a fit through them once read exponent +1.0005
    out = str(tmp_path / "box")
    assert run(["limit", "ehrenfest-box", "--ns", "1000,10000,100000", "--frame", "1,0.3",
                "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "ehrenfest-box_report.json")))
    assert max(rep["distances"]) < 1e-6
    assert rep["exponent"] is None and rep["r2"] is None
    assert rep["verdict"] == "converged"
    assert rep["details"]["frame"] == [1.0, 0.3]
    # the curves behind the distances, not profiles whose rows grow like n
    # (these once came to 60.9 MB)
    assert sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)) < 100_000


@pytest.mark.parametrize("study,args,report", [
    ("ehrenfest-box", ["--ns", "20,40,300", "--frame", "0.6,-0.8", "--L", "1.5"],
     lambda: lm.ehrenfest_box(1.5, [20, 40, 300], TomographyFrame(0.6, -0.8))),
    ("ehrenfest-oscillator", ["--ns", "25,50", "--frame", "0.8,0.6"],
     lambda: lm.ehrenfest_oscillator([25, 50], TomographyFrame(0.8, 0.6))),
], ids=["ehrenfest-box", "ehrenfest-oscillator"])
def test_an_n_study_writes_the_curve_behind_each_distance(tmp_path, study, args, report):
    out = str(tmp_path / "study")
    assert run(["limit", study, *args, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, f"{study}_report.json")))
    curves = report().curves
    assert len(curves) == len(rep["artifacts"]) == len(rep["distances"])
    for path, d, curve in zip(rep["artifacts"], rep["distances"], curves):
        with open(path) as fh:
            assert fh.readline() == "X,quantum,classical\n"
        x, q, c = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert all(np.array_equal(a, b) for a, b in zip((x, q, c), curve))
        dx = curve[3]
        assert abs(dx - np.min(np.diff(x))) <= 1e-12 * dx
        assert float(np.sum(np.abs(q - c)) * dx) == d
        assert x.size <= 600


@pytest.mark.parametrize("args", [
    ["--ns", "20,40", "--frame", "1e-12,0.3"],
    ["--ns", "1000,200000", "--frame", "1,0.3"],
], ids=["mu-1e-12", "n-200000"])
def test_a_box_sweep_once_refused_for_its_profile_rows_runs(tmp_path, args):
    # profiles |mu| L/(8n) apart once needed 3e14 and 4.6e6 rows here
    out = str(tmp_path / "box")
    assert run(["limit", "ehrenfest-box", *args, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "ehrenfest-box_report.json")))
    assert rep["verdict"] == "converged"
    for path in rep["artifacts"]:
        assert np.loadtxt(path, delimiter=",", skiprows=1).shape[0] <= 600


_STUDY_FUNCTIONS = {
    "planck-delta": "weak_delta_convergence", "interference": "interference_decay",
    "cat-interference": "cat_interference_planck", "ehrenfest-coherent": "ehrenfest_coherent",
    "ehrenfest-cat": "ehrenfest_cat", "ehrenfest-box": "ehrenfest_box",
    "ehrenfest-oscillator": "ehrenfest_oscillator",
}


@pytest.mark.parametrize("study", cli.STUDIES)
def test_limit_writes_what_its_study_measured(tmp_path, monkeypatch, study):
    # each CSV is the study's own curve at that value, not a second
    # evaluation of the tomogram on another grid
    made = []
    real = getattr(lm, _STUDY_FUNCTIONS[study])
    monkeypatch.setattr(lm, _STUDY_FUNCTIONS[study], lambda *a, **k: made.append(real(*a, **k)) or made[-1])
    out = str(tmp_path / "study")
    assert run(["limit", study, "--out", out]) == 0
    (report,) = made
    assert len(report.curves) == len(report.artifacts) == len(report.distances)
    for path, value, d, curve in zip(report.artifacts, report.parameter_values,
                                     report.distances, report.curves):
        if isinstance(curve, Tomogram):
            tom, meta = read_tomogram(path)
            assert tom.frame == curve.frame and meta["hbar"] == value
            assert np.array_equal(tom.x_grid, curve.x_grid) and np.array_equal(tom.values, curve.values)
            if study in ("planck-delta", "ehrenfest-coherent"):
                center = report.details.get("target_location", report.details.get("center"))
                assert lm.weak_error(tom, (DeltaAtom(1.0, center),)) == d
        else:
            columns = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
            assert len(columns) == len(curve[:3])
            assert all(np.array_equal(a, b) for a, b in zip(columns, curve))


def test_limit_ehrenfest_coherent_evaluates_each_tomogram_once(tmp_path, monkeypatch):
    calls = []
    real = tomolab.quantum.coherent_tomogram

    def counted(*args):
        calls.append(args[-1])
        return real(*args)
    monkeypatch.setattr(tomolab.quantum, "coherent_tomogram", counted)
    monkeypatch.setattr(lm, "coherent_tomogram", counted, raising=False)
    assert run(["limit", "ehrenfest-coherent", "--out", str(tmp_path / "study")]) == 0
    assert calls == [1e-2, 1e-3, 1e-4]


def test_limit_interference_profile_covers_its_support(tmp_path):
    # a +-10 sigma profile once cut the n = 40, m = 45 cross term off at
    # 7.0e-3 of its peak
    out = str(tmp_path / "study")
    assert run(["limit", "interference", "--n", "40", "--m", "45", "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "interference_report.json")))
    for path in rep["artifacts"]:
        x, v = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert x.size == 2001
        peak = np.max(np.abs(v))
        assert abs(v[0]) < 1e-12 * peak and abs(v[-1]) < 1e-12 * peak


def test_every_study_at_its_defaults_writes_the_same_bytes_twice(tmp_path, monkeypatch):
    trees = []
    for run_dir in ("a", "b"):
        os.makedirs(tmp_path / run_dir)
        monkeypatch.chdir(tmp_path / run_dir)
        for study in cli.STUDIES:
            assert run(["limit", study, "--out", "out"]) == 0
        trees.append({name: open(os.path.join("out", name), "rb").read()
                      for name in sorted(os.listdir("out"))})
    assert trees[0] == trees[1]
    assert {name.split("_")[0] for name in trees[0]} == set(cli.STUDIES)


def test_cli_import_leaves_concurrent_futures_unimported():
    # the limit studies sweep their parameter serially
    import subprocess
    import sys

    code = "import sys, tomolab.cli\nassert 'concurrent.futures' not in sys.modules\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


@pytest.mark.parametrize("args", [
    ["compare", "--state", "ho:n=3", "--classical", "oscillator:E=1", "--frame", "0,1"],
    ["reconstruct", "--state", "ho:n=1", "--target", "wigner", "--frame", "1,0"],
    ["reconstruct", "--state", "ho:n=1", "--target", "wigner", "--scaling", "1,0"],
    ["limit", "planck-delta", "--hbar", "0.1"],
    ["limit", "planck-delta", "--grid", "-5,5,101"],
    ["tomogram", "--state", "ho:n=0", "--frame", "1,0", "--hb", "0.5"],
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, args):
    # each subcommand takes only the flags its handler reads, spelled in
    # full: compare once computed frame (1, 0) for --frame 0,1 and exited 0
    with pytest.raises(SystemExit) as exit_:
        run(args + ["--out", str(tmp_path / "x")])
    assert exit_.value.code == 2
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize("args,unread", [
    (["ehrenfest-oscillator", "--ns", "25,50,100", "--hbars", "1e-1:1e-3:geometric",
      "--q-alpha", "3"], "hbars, q_alpha"),
    (["ehrenfest-box", "--state", "ho:n=3"], "state"),
    (["interference", "--frame", "0.6,0.8", "--center", "0.5"], "center"),
])
def test_limit_rejects_parameters_its_study_does_not_read(tmp_path, capsys, args, unread):
    out = str(tmp_path / "study")
    assert run(["limit", *args, "--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"does not read {unread};" in err[0]
    assert not os.path.exists(out)


# a value for every study parameter, as its flag takes it
_STUDY_PARAM_TEXT = {"state": "ho:n=3", "hbars": "0.1:0.0125:geometric", "center": "0", "n": "0", "m": "1",
                     "re": "1", "im": "0", "q_alpha": "1", "p_alpha": "0", "ns": "25,50", "L": "1",
                     "momentum_check_n": "400"}


@pytest.mark.parametrize("study", cli.STUDIES)
def test_a_study_reads_the_keys_of_its_table_row_in_their_order(tmp_path, capsys, study):
    # given every study parameter, a study refuses exactly those its row does
    # not hold, and names the row's keys, in their order, as what it reads
    keys = list(cli._STUDIES[study][1])
    others = sorted(set(_STUDY_PARAM_TEXT) - set(keys))
    args = [a for k in _STUDY_PARAM_TEXT for a in (f"--{k.replace('_', '-')}", _STUDY_PARAM_TEXT[k])]
    out = str(tmp_path / "study")
    assert run(["limit", study, *args, "--out", out]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"limit: {study} does not read {', '.join(others)}; it reads {', '.join(keys)}"]
    assert not os.path.exists(out)
    assert set().union(*(row[1] for row in cli._STUDIES.values())) == set(_STUDY_PARAM_TEXT)


def test_limit_rejects_a_malformed_sweep(tmp_path, capsys):
    assert run(["limit", "planck-delta", "--hbars", "0.1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "a:b:geometric" in err and "Traceback" not in err


@pytest.mark.parametrize("config,message", [
    ({"command": "compare", "state": "ho:n=3", "classical": "oscillator:E=1", "frame": [0, 1]},
     "compare does not read config keys ['frame']"),
    ({"command": "tomogram", "state": "ho:n=0", "frame": [1, 0], "bogus": 1},
     "unknown config keys: ['bogus']"),
    ({"command": "selftest", "params": {"n": 1}}, "selftest does not read config keys ['params']"),
    ({"command": "limit", "study": "ehrenfest-oscillator", "params": {"ns": "25,50", "q_alpha": 3}},
     "ehrenfest-oscillator does not read q_alpha;"),
    # values meet their flags' parsers, as on the command line
    ({"command": "tomogram", "state": "ho:n=0", "frame": [1]},
     "frame must be two comma-separated numbers, got '1'"),
    ({"command": "compare", "state": "ho:n=3", "classical": "oscillator:E=1", "frames": [[1, 0, 2]]},
     "frame must be two comma-separated numbers, got '1,0,2'"),
    ({"command": "tomogram", "state": "ho:n=0", "frame": [1, 0], "grid": [-5, 5, 1]},
     "grid count must be at least 2"),
    ({"command": "limit", "study": "ehrenfest-oscillator", "params": [1, 2]},
     "a config and its params must be JSON objects"),
    # argparse checks the target on the command line; the config path names the table's keys
    ({"command": "reconstruct", "state": "ho:n=1", "target": "fock"},
     "unknown reconstruction target 'fock'; valid targets: wigner, density"),
])
def test_config_keys_a_command_does_not_read_exit_2(tmp_path, capsys, config, message):
    path = str(tmp_path / "run.json")
    config["out"] = str(tmp_path / "out")
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert run(["--config", path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert not os.path.exists(tmp_path / "out")


def test_config_lists_read_as_their_flag_text(tmp_path, capsys):
    # a list for --ns, a flag with no parser of its own, once reached int()
    # whole: invalid literal for int() with base 10: '[25'
    assert run(["limit", "ehrenfest-oscillator", "--ns", "25,50", "--out", str(tmp_path / "a")]) == 0
    form = {"command": "limit", "study": "ehrenfest-oscillator", "params": {"ns": [25, 50]}}
    assert _exit_code(form, tmp_path, str(tmp_path / "b")) == 0
    for name in ("ehrenfest-oscillator_n_25.csv", "ehrenfest-oscillator_n_50.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # an hbar sweep is not a comma list: its list form meets the sweep's
    # parser and message, not a traceback
    capsys.readouterr()
    form = {"command": "limit", "study": "planck-delta", "params": {"hbars": [0.1, 0.05]}}
    assert _exit_code(form, tmp_path, str(tmp_path / "c")) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "limit: hbar sweep must look like a:b:geometric[:count], got '0.1,0.05'"]


@pytest.mark.parametrize("args,message", [
    (["limit", "planck-delta", "--center", "-.5"], None),
    (["tomogram", "--state", "ho:n=0", "--frame", "-.5,1"], None),
    (["compare", "--state", "coherent:re=0,im=0", "--classical", "point:q0=0,p0=0",
      "--frames", "-1,0;0,1"], None),
    (["limit", "planck-delta", "--center", "-inf"],
     "argument --center: center must be a finite number, got '-inf'"),
    (["limit", "ehrenfest-box", "--L", "-nan"], "argument --L: L must be a finite number, got '-nan'"),
])
def test_negative_values_given_as_separate_arguments_reach_their_parser(tmp_path, capsys, args, message):
    # the parser once read these as a missing argument: expected one argument
    out = str(tmp_path / "out")
    code = _exit_code(args, tmp_path, out)
    err = capsys.readouterr().err
    assert "expected one argument" not in err
    if message is None:
        assert code == 0
    else:
        assert code == 2 and message in err
        assert not os.path.exists(out)


def _exit_code(form, tmp_path, out: str):
    """Run a command line (a list) or a --config document (a dict) writing
    to out; argparse's own rejections exit through SystemExit."""
    if isinstance(form, dict):
        path = str(tmp_path / "run.json")
        with open(path, "w") as fh:
            json.dump({**form, "out": out}, fh)
        argv = ["--config", path]
    else:
        argv = form + ["--out", out]
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("form,missing", [
    (["tomogram", "--frame", "1,0"], "state"),
    (["reconstruct", "--target", "wigner"], "state"),
    (["reconstruct", "--state", "ho:n=1"], "target"),
    (["compare", "--classical", "oscillator:E=1"], "state"),
    (["compare", "--state", "ho:n=3"], "classical"),
    ({"command": "tomogram", "frame": [1, 0]}, "state"),
    ({"command": "reconstruct", "state": "ho:n=1"}, "target"),
    ({"command": "compare", "classical": "oscillator:E=1"}, "state"),
    ({"command": "compare", "state": "ho:n=3"}, "classical"),
])
def test_a_command_without_its_descriptor_exits_2(tmp_path, capsys, form, missing):
    # these once ended in a TypeError traceback, or wrote before failing
    out = str(tmp_path / "out")
    assert _exit_code(form, tmp_path, out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(f": missing {missing}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("via_config", [False, True])
def test_hbar_must_be_positive_and_finite(tmp_path, capsys, hbar, via_config):
    # 0 once ended in a ZeroDivisionError traceback and nan wrote a NaN tomogram
    out = str(tmp_path / "out")
    form = {"command": "tomogram", "state": "ho:n=0", "frame": [1, 0], "hbar": hbar}
    if not via_config:
        form = ["tomogram", "--state", "ho:n=0", "--frame", "1,0", "--hbar", str(hbar)]
    assert _exit_code(form, tmp_path, out) == 2
    err = capsys.readouterr().err
    assert f"hbar must be positive and finite, got '{hbar}'" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, flag, value, message", [
    ("tomogram", "--frame", "1,a", "frame must be two comma-separated numbers, got '1,a'"),
    ("tomogram", "--frame", "1", "frame must be two comma-separated numbers, got '1'"),
    ("tomogram", "--scaling", "x,0.3", "scaling must be two comma-separated numbers, got 'x,0.3'"),
    ("compare", "--frames", "1,0;0,x", "frame must be two comma-separated numbers, got '0,x'"),
    ("tomogram", "--grid", "0,x,3", "grid must be min,max,count with an integer count, got '0,x,3'"),
    ("tomogram", "--grid", "0,1,2.5", "grid must be min,max,count with an integer count, got '0,1,2.5'"),
    ("tomogram", "--hbar", "abc", "hbar must be positive and finite, got 'abc'"),
])
def test_typed_flags_name_their_meaning(tmp_path, capsys, command, flag, value, message):
    # argparse once printed its parser's name: invalid <lambda> value, invalid _hbar value
    out = str(tmp_path / "out")
    argv = [command, "--state", "ho:n=0", flag, value, "--out", out]
    if command == "compare":
        argv += ["--classical", "oscillator:E=1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err and "invalid" not in err
    assert not os.path.exists(out)


def test_readme_commands_parse():
    # every command line the README shows passes only flags its command reads
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    lines = [ln for ln in open(readme) if ln.startswith("tomolab ")]
    assert len(lines) >= 9
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line.split(" #")[0])[1:])
        assert args.command in cli.COMMANDS


def test_readme_commands_run(tmp_path):
    # every command line the README shows runs and exits 0, its out/ paths
    # moved under tmp_path
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    lines = [ln for ln in open(readme) if ln.startswith("tomolab ")]
    assert len(lines) >= 10
    for line in lines:
        argv = [str(tmp_path / a) if a.startswith("out/") else a for a in shlex.split(line.split(" #")[0])[1:]]
        assert run(argv) == 0, line


def test_reconstruct_density(tmp_path, capsys):
    out = str(tmp_path / "rec")
    code = run(["reconstruct", "--state", "coherent:re=1,im=0", "--target", "density",
                "--hbar", "1", "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] < 1e-3
    assert rep["hermiticity_residual"] < 1e-8
    assert abs(rep["trace"] - 1.0) < 1e-3


@pytest.mark.parametrize("state,error", [("ho:n=1,varpi=1.7e308", 5.401e-08),
                                         ("coherent:re=0.5,im=0.5,varpi=1.7e308", 8.164e-08),
                                         ("ho:n=3,varpi=1e-300", 1.054e-08)])
def test_reconstruct_wigner_at_extreme_varpi(tmp_path, state, error):
    # varpi q^2 once overflowed in the exact Wigner forms: an overflow
    # warning and exit 1 with errors 8.9e-1 and 5.6e-1 against the reference
    out = str(tmp_path / "rec")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["reconstruct", "--state", state, "--target", "wigner", "--hbar", "1",
                    "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] == pytest.approx(error, rel=1e-3)


@pytest.mark.parametrize("state", ["cat:even,re=1,im=0", "cat:odd,re=0.8,im=0.4", "superpos:n=0,m=2"])
def test_reconstruct_wigner_gates_cats_and_superpositions(tmp_path, state):
    # every oscillator catalog state has its exact W, the displaced-parity
    # sum, so the Wigner target reports and gates its error for these too
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", state, "--target", "wigner", "--hbar", "0.5", "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] < 1e-3


@pytest.mark.parametrize("state,hbar,error", [("box:n=3,L=1", "0.1", 5.017e-4), ("box:n=2,L=1", "0.5", 3.641e-4),
                                              ("box:n=1,L=2", "1", 8.361e-4), ("box:n=5,L=1", "0.2", 5.527e-4)])
def test_reconstruct_wigner_gates_box_states(tmp_path, state, hbar, error):
    # a box eigenstate has its exact W, three segments over the overlap, so
    # the Wigner target reports and gates its error
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", state, "--target", "wigner", "--hbar", hbar, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] == pytest.approx(error, rel=1e-3)


def test_density_reconstruct_and_custom_families_leave_numpy_ma_unloaded(tmp_path):
    # np.unique's first call imports numpy.ma, 15-19 ms in every process
    import subprocess
    import sys

    code = (
        "import sys, numpy as np, tomolab.cli as c\n"
        "from tomolab import quantum as qt, states as st\n"
        f"assert c.main(['reconstruct', '--state', 'coherent:re=1,im=0', '--target', 'density',"
        f" '--hbar', '1', '--out', {str(tmp_path / 'rec')!r}]) == 0\n"
        "x = np.linspace(-6, 6, 121)\n"
        "state = st.CustomGrid(x, np.exp(-x ** 2 / 2) / np.pi ** 0.25)\n"
        "qt.build_state_family(state, 1.0, np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


@pytest.mark.parametrize("state,target,hbar", [
    ("coherent:re=0.45,im=0.4", "density", "0.3349075317892564"),
    ("ho:n=3", "wigner", "0.5"),
])
def test_reconstruct_centre_frame_is_exactly_zero(tmp_path, state, target, hbar):
    # these sizes put np.linspace's centre mu at +-4e-16, a needle-thin frame
    # that read 3e12 (density) and 2e-2 (wigner) before the grids were centred
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", state, "--target", target, "--hbar", hbar,
                "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] < 1e-3


def test_reconstruct_reports_the_frame_box_tail(tmp_path):
    # ho:n=1 at hbar = 1 sizes its frame box to |beta|^2 = 40 at the mid-edge
    # frames, where |G| = |1 - 40| e^{-20} is largest on the edge
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", "ho:n=1", "--target", "wigner", "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["frame_box_tail"] == pytest.approx(39.0 * math.exp(-20.0), rel=1e-9)
    # its error, 1.2e-3, is past the reconstruct tolerance: the files are
    # written and the command exits 1
    assert run(["reconstruct", "--state", "superpos:n=1,m=2", "--target", "density",
                "--out", out]) == 1
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert 1e-3 < rep["frame_box_tail"] < 1.0  # the density box discards this much


# error: max |rho - rho_exact|, reported in units of max(1, max |rho_exact|)
@pytest.mark.parametrize("state,hbar,error", [("box:n=2,L=1", "0.5", 6.287e-1),
                                              ("ho:n=3", "1", 1.071e-2)])
def test_reconstruct_exits_1_past_the_error_tolerance(tmp_path, capsys, state, hbar, error):
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", state, "--target", "density", "--hbar", hbar,
                "--out", out]) == 1
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    xs = np.unique(np.loadtxt(os.path.join(out, "density.csv"), delimiter=",", skiprows=1)[:, 0])
    peak = np.max(np.abs(tomolab.quantum.rho_grid(st.parse_state(state), float(hbar), xs).values))
    error /= max(1.0, peak)  # the box's peak 2/L halves its error; ho:n=3's is below 1
    assert rep["max_error_vs_exact"] == pytest.approx(error, rel=1e-3)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert os.path.join(out, "density.csv") in err[0] and f"{error:.3e}" in err[0]
    assert os.path.exists(os.path.join(out, "density.csv"))


@pytest.mark.parametrize("state,target", [("ho:n=3", "wigner"), ("coherent:re=1,im=0", "density")])
def test_reconstruct_writes_the_library_reconstruction(tmp_path, state, target):
    # the command writes what quantum.reconstruct_wigner / reconstruct_density
    # return: the report is their fields after state, hbar and target
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", state, "--target", target, "--hbar", "0.5",
                "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    parsed = st.parse_state(state)
    grid, fields = getattr(tomolab.quantum, f"reconstruct_{target}")(parsed, 0.5)
    assert isinstance(grid, GridFunction2D)
    v = grid.values
    values = (v.real, v.imag) if target == "density" else (v,)
    assert rep == {"state": parsed.descriptor(), "hbar": 0.5, "target": target, **fields}
    rows = np.loadtxt(os.path.join(out, f"{target}.csv"), delimiter=",", skiprows=1)
    x, y = np.meshgrid(grid.x_grid, grid.y_grid, indexing="ij")
    assert np.array_equal(rows, np.column_stack([x.ravel(), y.ravel(), *(c.ravel() for c in values)]))


def test_reconstruct_density_error_is_relative_to_the_exact_peak(tmp_path):
    # rho scales as sqrt(varpi/hbar): at varpi = 1e4 max |rho| is 41.29, and an
    # absolute error of 2.717e-2 once failed the 1e-3 gate at the accuracy of
    # varpi = 1; in units of max(1, max |rho|) both read the same 6.58e-4
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", "ho:n=1,varpi=1e4", "--target", "density", "--hbar", "1",
                "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] == pytest.approx(6.584e-4, rel=1e-3)


def test_reconstruct_box_wigner_at_small_hbar(tmp_path):
    # the command the per-frame family loop once refused (11,001 frames x
    # 14,866 X, estimated 131 s): the box characteristic function is closed
    # form, and the frame box widens until its edge |G| is under 1e-3
    import time

    from mpmath import fp

    out = str(tmp_path / "rec")
    t0 = time.perf_counter()
    code = run(["reconstruct", "--state", "box:n=3,L=1", "--target", "wigner", "--hbar", "0.1",
                "--out", out])
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["frame_box_tail"] < tomolab.quantum.FRAME_TAIL_TOL
    rows = np.genfromtxt(os.path.join(out, "wigner.csv"), delimiter=",", names=True)
    q, p = np.unique(rows["q"]), np.unique(rows["p"])
    W = rows["W"].reshape(q.size, p.size)
    k, hbar = 3 * math.pi, 0.1

    def wigner(q0, p0):
        # W = int psi(q + u/2) psi(q - u/2) e^{-i p u/hbar} du over the box
        r = min(q0, 1.0 - q0)
        if r <= 0:
            return 0.0
        return fp.quad(lambda u: 2.0 * math.sin(k * (q0 + u / 2)) * math.sin(k * (q0 - u / 2))
                       * math.cos(p0 * u / hbar),
                       list(np.linspace(-2 * r, 2 * r, 9 + int(abs(p0) * 4 * r / hbar))))

    for i in (5, 20, 22, 26, 29, 35, 40):  # q outside the box, on its wall, inside
        for j in (0, 13, 17, 20, 24, 31):
            assert abs(W[i, j] - wigner(q[i], p[j])) < 1e-3, (q[i], p[j])


def test_catalog_reconstruct_leaves_scipy_special_unimported(tmp_path):
    # the closed-form characteristic functions take their Laguerre factor
    # from a numpy recurrence, not from scipy.special
    import subprocess
    import sys

    code = (
        "import sys, tomolab.cli as c\n"
        "assert c.main(['reconstruct', '--state', 'cat:odd,re=1,im=0', '--target', 'wigner',\n"
        f"               '--hbar', '0.25', '--out', {str(tmp_path)!r}]) == 0\n"
        + _NO_SCIPY
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


def test_dual_route_and_radon_load_no_scipy():
    # the Radon line integral interpolates with numpy: scipy.ndimage cost
    # ~26 MB and ~0.4 s in every process that reached it; the CSV writer's
    # tables are built from integers, without fractions or decimal
    import subprocess
    import sys

    code = (
        "import sys, numpy as np, tomolab.cli as c\n"
        "from tomolab import classical as cl\n"
        "from tomolab.kernel import GridFunction2D, TomographyFrame\n"
        "assert c.main(['selftest', '--quick']) == 0\n"
        "q = np.linspace(-5, 5, 81)\n"
        "f = np.exp(-q[:, None] ** 2 / 2 - q ** 2 / 2) / (2 * np.pi)\n"
        "cl.radon_density(cl.DensityGrid(GridFunction2D(q, q, f)), TomographyFrame(1, 1),\n"
        "                 np.linspace(-8, 8, 101))\n"
        + _NO_SCIPY
        + "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
        + "assert 'tomolab.chirp' not in sys.modules\n"  # no command needs it
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


@pytest.mark.parametrize("reach,radius", [(3.7, 8.1), (2.0, 2.5), (1.0, 2.5), (math.sqrt(80.0), 4.0),
                                          (0.4, 1.0), (60.0, 0.7071067811865476), (1e-3, 1e-3)])
def test_frame_axis(reach, radius):
    # the reconstructions' frame axes: odd, exactly symmetric, centred exactly
    # on 0 (np.linspace can leave a needle-thin frame at +-4e-16 there) and
    # stepped at most 2.5/radius; the ends are reach h/h, within one rounding
    # of +-reach
    g = tomolab.quantum._frame_axis(reach, radius)
    assert g.size % 2 == 1 and abs(g[-1] - reach) <= np.spacing(reach)
    assert np.array_equal(g, -g[::-1]) and g[g.size // 2] == 0.0
    assert np.max(np.diff(g)) <= 2.5 / radius * (1.0 + 1e-12)
    # reach * radius rounding to 0 leaves the one frame at the origin
    assert np.array_equal(tomolab.quantum._frame_axis(1e-200, 1e-200), [0.0])


def test_reconstruct_wigner_negativity(tmp_path):
    out = str(tmp_path / "rec")
    code = run(["reconstruct", "--state", "ho:n=1", "--target", "wigner",
                "--hbar", "1", "--grid", "-2.5,2.5,21", "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] < 1e-3
    data = np.genfromtxt(os.path.join(out, "wigner.csv"), delimiter=",", names=True)
    origin = np.argmin(data["q"] ** 2 + data["p"] ** 2)
    assert data["W"][origin] < -1.5  # Wigner negativity recovered


def test_reconstruct_custom_state_omits_exact(tmp_path):
    x = np.linspace(-7, 7, 1401)
    psi = np.exp(-(x - 0.3) ** 2 / 2.0)
    psi = psi / math.sqrt(np.trapezoid(psi * psi, x))
    path = str(tmp_path / "state.csv")
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for xi, pi in zip(x, psi):
            fh.write(f"{float(xi):.17g},{float(pi):.17g},0.0\n")
    out = str(tmp_path / "rec")
    code = run(["reconstruct", "--state", f"custom:{path}", "--target", "density",
                "--hbar", "1", "--grid", "-2,2,13", "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert "max_error_vs_exact" not in rep


def test_a_request_past_the_panel_cap_exits_2(tmp_path, capsys):
    # a sampled state at mu = 1000 needs ~5e8 panels: once a
    # ChirpResolutionError traceback with status 1
    x = np.linspace(-8.0, 8.0, 281)
    psi = np.exp(-(x - 0.3) ** 2 / 2.0)
    psi = psi / math.sqrt(np.trapezoid(psi * psi, x))
    path = str(tmp_path / "packet.csv")
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for xi, pi in zip(x, psi):
            fh.write(f"{float(xi):.17g},{float(pi):.17g},0.0\n")
    out = str(tmp_path / "t.csv")
    code = run(["tomogram", "--state", f"custom:{path}", "--frame", "1000,0.001",
                "--hbar", "0.5", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("tomogram: chirp quadrature needs")
    assert "but only 4000000 are allowed" in err[0]
    assert not os.path.exists(out)


def test_an_odd_cat_at_alpha_zero_exits_2(tmp_path, capsys):
    # N- = 1/sqrt(2(1 - exp(-2|alpha|^2))) is infinite at alpha = 0: refused
    # with one stderr line, not a ZeroDivisionError traceback
    out = str(tmp_path / "t.csv")
    code = run(["tomogram", "--state", "cat:odd,re=0,im=0", "--frame", "0.6,-0.8",
                "--hbar", "0.7", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("tomogram: an odd cat state needs alpha != 0")
    assert not os.path.exists(out)


@pytest.mark.parametrize("state,message", [
    ("cat:even,re=1e200,im=0", "|alpha|^2 must be finite, got alpha = (1e+200+0j)"),
    ("coherent:re=1e200,im=0", "|alpha|^2 must be finite, got alpha = (1e+200+0j)"),
    # the rows of |alpha> and |-alpha> differ only below 1e-8: the difference is roundoff
    ("cat:odd,re=1e-12,im=0", "an odd cat state needs alpha != 0 and |alpha| >= 1e-8, got (1e-12+0j)"),
])
def test_an_alpha_out_of_range_exits_2(tmp_path, capsys, state, message):
    out = str(tmp_path / "t.csv")
    code = run(["tomogram", "--state", state, "--frame", "1,0", "--hbar", "0.7", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"tomogram: {message}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("args,message", [
    # once a ZeroDivisionError traceback, an exit 0, and an exit 0 with negative hbar_values
    (["ehrenfest-box", "--ns", "20,40", "--momentum-check-n", "0"], "momentum check needs n >= 1, got 0"),
    (["ehrenfest-box", "--ns", "20,40", "--momentum-check-n", "-5"], "momentum check needs n >= 1, got -5"),
    (["ehrenfest-box", "--L", "-1"], "box study needs a positive finite L, got -1.0"),
    (["ehrenfest-box", "--ns", "0,25"], "quantum numbers must be positive, got '0,25'"),
    # mu^2 + nu^2 underflows to 0 while the frame is not the zero frame:
    # once ZeroDivisionError tracebacks
    (["ehrenfest-oscillator", "--ns", "20,40", "--frame", "1e-200,0"],
     "frame (1e-200, 0.0) is too small: mu^2 + nu^2 underflows"),
    (["interference", "--frame", "1e-200,1e-200"],
     "frame (1e-200, 1e-200) is too small: mu^2 + nu^2 underflows"),
    # a repeated or turning-back value is refused before any is computed, not after the
    # whole sweep and a RankWarning
    (["ehrenfest-oscillator", "--ns", "25,25"], "sweep values must be strictly monotone, got [25, 25]"),
    (["interference", "--hbars", "0.1:0.1:geometric:5"],
     "sweep values must be strictly monotone, got [0.1, 0.1, 0.1, 0.1, 0.1]"),
    (["ehrenfest-oscillator", "--ns", "25,50,25"],
     "sweep values must be strictly monotone, got [25, 50, 25]"),
    # one n has no step to fall by: it once read converged, with nothing swept
    (["ehrenfest-oscillator", "--ns", "400"], "need at least 2 parameter values, got 1"),
    (["ehrenfest-box", "--ns", "30"], "need at least 2 parameter values, got 1"),
])
def test_a_study_input_outside_its_domain_exits_2(tmp_path, capsys, args, message):
    out = str(tmp_path / "study")
    assert run(["limit", *args, "--out", out]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"limit: {message}"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("study,flag", [
    ("planck-delta", "--center"), ("cat-interference", "--re"), ("cat-interference", "--im"),
    ("ehrenfest-coherent", "--q-alpha"), ("ehrenfest-cat", "--p-alpha"), ("ehrenfest-box", "--L"),
])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_real_study_parameters_must_be_finite(tmp_path, capsys, study, flag, value):
    # --center inf once ran to the verdict inconclusive with exit 0
    out = str(tmp_path / "study")
    assert _exit_code(["limit", study, f"{flag}={value}"], tmp_path, out) == 2
    err = capsys.readouterr().err
    name = flag[2:].replace("-", "_")
    assert f"argument {flag}: {name} must be a finite number, got '{value}'" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)
    form = {"command": "limit", "study": study, "params": {name: float(value)}}
    assert _exit_code(form, tmp_path, out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"--config: {name} must be a finite number, got '{float(value)}'"]


def test_compare_oscillator(tmp_path, capsys):
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "ho:n=100", "--classical", "oscillator:E=1",
                "--hbar", "0.01", "--frames", "1,0", "--out", out])
    assert code == 0
    rows = np.genfromtxt(os.path.join(out, "compare.csv"), delimiter=",", names=True)
    assert rows["l1_distance"] < 0.03


def test_compare_plain_rows_keep_the_classical_mass(tmp_path, capsys):
    # the default grid once spanned only the coherent state's narrow
    # tomogram, so 1.0488 and 1.0954 were printed with 11.5 % and 16.1 % of
    # the classical mass on the grid; its own support bounds the distance by 2
    argv = ["compare", "--state", "coherent:re=1,im=0", "--classical", "oscillator:E=1",
            "--hbar", "1e-3", "--frames", "1,0;0.6,0.8", "--out", str(tmp_path / "a")]
    assert run(argv) == 0
    rows = np.loadtxt(tmp_path / "a" / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.abs(rows[:, 2] - 1.9342) < 1e-3)
    capsys.readouterr()
    # a grid that drops the mass is written, then refused
    argv[-1] = str(tmp_path / "b")
    assert run(argv + ["--grid", "-0.3,0.3,4001"]) == 1
    assert (tmp_path / "b" / "compare.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"compare: {tmp_path / 'b' / 'compare.csv'}: frame ({f}) classical tomogram mass "
                   f"residual 8.639e-01 exceeds the tolerance 0.01" for f in ("1, 0", "0.6, 0.8")]


def test_compare_oscillator_in_the_zero_frame(tmp_path, capsys):
    # once "L1 = nan [failed: float division by zero]"; the frame-free
    # distance must not stand in for the zero-frame tomogram, a unit atom
    out = str(tmp_path / "cmp")
    assert run(["compare", "--state", "ho:n=100", "--classical", "oscillator:E=1",
                "--hbar", "0.01", "--frames", "0,0;1,0", "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "compare.csv"), delimiter=",", skiprows=1, ndmin=2)
    assert math.isnan(rows[0, 2])
    assert rows[1, 2] == lm.oscillator_windowed_distance(100, TomographyFrame(1.0, 0.0))
    notes = json.load(open(os.path.join(out, "compare.json")))["notes"]
    assert notes == ["zero frame not comparable", "windowed; turning zones excluded"]


@pytest.mark.parametrize("classical, extra, frame, message", [
    ("point:q0=5,p0=0", ["--grid", "-1,1,101"], (1.0, 0.0), "atom at 5.0 lies outside the grid"),
    pytest.param("grid:", ["--grid", "-1,1,101"], (1.0, 0.0), "tomogram mass deficit 3.173e-01 exceeds tolerance",
                 id="grid-mass-deficit")])
def test_a_failed_compare_row_is_written_then_exits_1(tmp_path, capsys, classical, extra, frame, message):
    # a row that raised was once written as nan with exit 0, like the rows
    # that are nan by design (test_compare_oscillator_in_the_zero_frame)
    if classical == "grid:":  # a unit Gaussian on +-6, most of its Radon mass off the grid
        g = np.linspace(-6, 6, 121)
        f = np.exp(-g[:, None] ** 2 / 2 - g[None, :] ** 2 / 2) / (2 * math.pi)
        classical += str(tmp_path / "f.csv")
        write_density_csv(DensityGrid(GridFunction2D(g, g, f)), classical[5:])
    out = tmp_path / "cmp"
    assert run(["compare", "--state", "coherent:re=1,im=0", "--classical", classical,
                "--frames", "%r,%r" % frame, "--out", str(out), *extra]) == 1
    rows = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[0, :2].tolist() == list(frame) and math.isnan(rows[0, 2])
    assert json.load(open(out / "compare.json"))["notes"] == [f"failed: {message}"]
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"compare: {out / 'compare.csv'}: frame ({frame[0]:g}, {frame[1]:g}) failed: {message}"]


def test_a_plain_compare_row_is_the_same_at_every_frame_length(tmp_path):
    # the classical radius sqrt(2E (mu^2 + nu^2)) once overflowed past
    # |zeta| ~ 1e154 and the row at (1e160, 0) failed
    frames = ((1.0, 0.0), (1e-150, 0.0), (1e150, 0.0), (1e160, 0.0))
    out = tmp_path / "cmp"
    assert run(["compare", "--state", "coherent:re=1,im=0", "--classical", "oscillator:E=1",
                "--frames", ";".join("%r,%r" % f for f in frames), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, :2].tolist() == [list(f) for f in frames]
    assert np.all(np.abs(rows[:, 2] / rows[0, 2] - 1.0) < 1e-12) and abs(rows[0, 2] - 1.1612) < 1e-4


def test_compare_oscillator_evaluates_the_hermite_average_once(tmp_path, monkeypatch):
    # the windowed distance is the same in every nonzero frame: one
    # 121-center, 48-sample average serves all three rows (plus X = 2, the
    # oscillator study's forbidden-region point, which rides on the same call)
    points = []

    def counted(n, x):
        points.append(np.size(x))
        return tomolab.specfun.hermite_phi(n, x)
    monkeypatch.setattr(tomolab.states, "hermite_phi", counted)
    out = str(tmp_path / "cmp")
    assert run(["compare", "--state", "ho:n=100", "--classical", "oscillator:E=1", "--hbar", "0.01",
                "--frames", "1,0;0.568,0.856;-0.3,1.7", "--out", out]) == 0
    assert points == [5808 + 1]
    rows = np.loadtxt(os.path.join(out, "compare.csv"), delimiter=",", skiprows=1, ndmin=2)
    assert np.all(rows[:, 2] == rows[0, 2])



def test_main_reuses_one_parser_without_carrying_values(tmp_path):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    args = ["compare", "--state", "ho:n=100", "--classical", "oscillator:E=1", "--hbar", "0.01"]
    assert run(args + ["--frames", "0,1;0.6,0.8", "--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    rows = np.loadtxt(tmp_path / "b" / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, :2].tolist() == [[1.0, 0.0]]

def test_compare_box(tmp_path):
    # the frame (1, 0) row is nan by design and keeps exit 0
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "box:n=200,L=1", "--classical", "box:L=1,E=1",
                "--hbar", str(tomolab.quantum.ehrenfest_hbar(200)), "--frames", "1,0.3;1,0",
                "--out", out])
    assert code == 0
    rows = np.genfromtxt(os.path.join(out, "compare.csv"), delimiter=",", names=True)
    assert rows["l1_distance"][0] < 0.05 and math.isnan(rows["l1_distance"][1])
    assert json.load(open(os.path.join(out, "compare.json")))["notes"][1] == "frame needs mu != 0 and nu != 0"


def test_compare_rejects_values_the_windowed_rows_ignore(tmp_path, capsys):
    # the windowed oscillator rows hold at hbar = 1/n and E = 1 only
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "ho:n=100", "--classical", "oscillator:E=5",
                "--hbar", "0.5", "--frames", "1,0", "--out", out])
    assert code == 2
    assert "hbar = 0.01" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "compare.csv"))


def test_compare_refuses_the_ground_state_against_the_orbit(tmp_path, capsys):
    # hbar = 1/n has no value at n = 0: once a row "L1 = nan" and exit 0
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "ho:n=0", "--classical", "oscillator:E=1",
                "--hbar", "1", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["compare: the oscillator Ehrenfest hbar 1/n needs n >= 1, got n = 0"]
    assert not os.path.exists(out)


def test_compare_coherent_vs_point(tmp_path):
    # the distance between the coherent tomogram and the classical point's
    # cell is a pure function of the sqrt(hbar)-wide Gaussian profile
    distances = []
    x = np.linspace(-3, 3, 121)
    dX = x[1] - x[0]
    for k, hbar in enumerate((2.0 * (4 * dX) ** 2, 2.0 * dX ** 2)):
        out = str(tmp_path / f"cmp{k}")
        alpha = 1.0 / math.sqrt(2.0 * hbar)
        code = run(["compare", "--state", f"coherent:re={alpha!r},im=0",
                    "--classical", "point:q0=1,p0=0", "--hbar", str(hbar),
                    "--frames", "1,0", "--grid", "-3,3,121", "--out", out])
        assert code == 0
        rows = np.genfromtxt(os.path.join(out, "compare.csv"), delimiter=",", names=True)
        # oracle on the same grid, built without tomolab: Gaussian of width
        # sqrt(hbar/2) against the unit mass lumped into the cell at X = 1
        sig = math.sqrt(hbar / 2.0)
        g = np.exp(-((x - 1.0) ** 2) / (2 * sig * sig)) / (sig * math.sqrt(2 * math.pi))
        cell = np.zeros_like(x)
        cell[np.argmin(np.abs(x - 1.0))] = 1.0 / dX
        diff = np.abs(g - cell)
        oracle = dX * (np.sum(diff) - 0.5 * (diff[0] + diff[-1]))
        assert abs(rows["l1_distance"] - oracle) < 1e-9
        distances.append(float(rows["l1_distance"]))
    # narrower packets hug the classical cell more closely
    assert distances[1] < distances[0]


def test_config_replay(tmp_path):
    out = str(tmp_path / "from_config.csv")
    cfg = {
        "command": "tomogram",
        "state": "ho:n=2",
        "frame": [0.6, 0.8],
        "hbar": 0.5,
        "grid": [-6, 6, 501],
        "out": out,
    }
    path = str(tmp_path / "run.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert run(["--config", path]) == 0
    tom, meta = read_tomogram(out)
    assert meta["state"] == "ho:n=2,varpi=1"
    assert meta["hbar"] == 0.5


def test_config_limit_uses_top_level_state(tmp_path):
    out = str(tmp_path / "study")
    path = str(tmp_path / "run.json")
    with open(path, "w") as fh:
        json.dump({"command": "limit", "study": "planck-delta",
                   "state": "coherent:re=1,im=0", "frame": [0.6, 0.8],
                   "params": {"hbars": "4e-3:6.25e-5:geometric:4"},
                   "out": out}, fh)
    assert run(["--config", path]) == 0
    rep = json.load(open(os.path.join(out, "planck-delta_report.json")))
    # the coherent family converges at the sqrt(hbar) rate; the default
    # eigenstate family would show ratio-4 distances instead
    ratio = rep["distances"][0] / rep["distances"][1]
    assert 1.8 < ratio < 2.3


def test_config_rejects_unknown_keys(tmp_path):
    path = str(tmp_path / "run.json")
    with open(path, "w") as fh:
        json.dump({"command": "tomogram", "bogus": 1}, fh)
    with pytest.raises(ValueError):
        cli.RunConfig.from_json(path)


def test_command_determinism(tmp_path):
    blobs = []
    for i in range(2):
        out = str(tmp_path / f"run{i}.csv")
        run(["tomogram", "--state", "superpos:n=0,m=3", "--frame", "0.6,0.8",
             "--hbar", "0.7", "--grid", "-8,8,801", "--out", out])
        with open(out, "rb") as fh:
            blob = fh.read()
        with open(out.replace(".csv", ".json"), "rb") as fh:
            blob += fh.read()
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_selftest_quick_passes(tmp_path):
    assert cli.run_selftest(quick=True, out=str(tmp_path)) == 0
    rows = json.load(open(tmp_path / "selftest.json"))
    assert all(r["passed"] for r in rows)


def test_selftest_full_passes():
    # the full battery adds the radon, Wigner and density round trips
    assert cli.run_selftest(quick=False) == 0


def test_selftest_detects_injected_normalization_bug(monkeypatch, tmp_path):
    # a 1 percent scaling bug in a closed form must trip the normalization row
    real = tomolab.quantum.hermite_tomogram

    def broken(n, frame, X, hbar):
        return 1.01 * real(n, frame, X, hbar)

    monkeypatch.setattr(tomolab.quantum, "hermite_tomogram", broken)
    rows = cli._selftest_rows(quick=True)
    by_name = {r[0]: r for r in rows}
    assert not by_name["normalization(closed forms)"][3]
    code = cli.run_selftest(quick=True)
    assert code == 1
