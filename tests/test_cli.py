import argparse
import json
import math
import os
import shlex

import numpy as np
import pytest

import tomolab.quantum
from tomolab import cli
from tomolab.kernel import normalization_residual, read_tomogram


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


def test_limit_command_planck_delta(tmp_path):
    out = str(tmp_path / "study")
    code = run(["limit", "planck-delta", "--state", "coherent:re=1,im=0",
                "--frame", "0.6,0.8", "--hbars", "4e-3:6.25e-5:geometric:4",
                "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "planck-delta_report.json")))
    assert rep["verdict"] == "converged"
    assert rep["details"]["center"] == 0.0


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
            assert not sidecar  # an (X, value) profile
            with open(path) as fh:
                assert fh.readline() == "X,value\n"
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


def test_reconstruct_density(tmp_path, capsys):
    out = str(tmp_path / "rec")
    code = run(["reconstruct", "--state", "coherent:re=1,im=0", "--target", "density",
                "--hbar", "1", "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] < 1e-3
    assert rep["hermiticity_residual"] < 1e-8
    assert abs(rep["trace"] - 1.0) < 1e-3


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


@pytest.mark.parametrize("state,hbar,error", [("box:n=2,L=1", "0.5", 6.287e-1),
                                              ("ho:n=3", "1", 1.071e-2)])
def test_reconstruct_exits_1_past_the_error_tolerance(tmp_path, capsys, state, hbar, error):
    out = str(tmp_path / "rec")
    assert run(["reconstruct", "--state", state, "--target", "density", "--hbar", hbar,
                "--out", out]) == 1
    rep = json.load(open(os.path.join(out, "reconstruct_report.json")))
    assert rep["max_error_vs_exact"] == pytest.approx(error, rel=1e-3)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert os.path.join(out, "density.csv") in err[0] and f"{error:.3e}" in err[0]
    assert os.path.exists(os.path.join(out, "density.csv"))


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
    assert rep["frame_box_tail"] < cli.FRAME_TAIL_TOL
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


def test_centred_grid():
    for m, n in ((3.7, 101), (2.0, 5), (1.0, 3), (1.5, 4)):
        g = cli._centred_grid(m, n)
        assert g.size == n and g[0] == -m and g[-1] == m
        assert np.array_equal(g, -g[::-1])
        assert n % 2 == 0 or g[n // 2] == 0.0
    assert np.array_equal(cli._centred_grid(4.0, 1), [0.0])


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


def test_compare_oscillator(tmp_path, capsys):
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "ho:n=100", "--classical", "oscillator:E=1",
                "--hbar", "0.01", "--frames", "1,0", "--out", out])
    assert code == 0
    rows = np.genfromtxt(os.path.join(out, "compare.csv"), delimiter=",", names=True)
    assert rows["l1_distance"] < 0.03



def test_main_reuses_one_parser_without_carrying_values(tmp_path):
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    args = ["compare", "--state", "ho:n=100", "--classical", "oscillator:E=1", "--hbar", "0.01"]
    assert run(args + ["--frames", "0,1;0.6,0.8", "--out", str(tmp_path / "a")]) == 0
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    rows = np.loadtxt(tmp_path / "b" / "compare.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, :2].tolist() == [[1.0, 0.0]]

def test_compare_box(tmp_path):
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "box:n=200,L=1", "--classical", "box:L=1,E=1",
                "--hbar", str(tomolab.quantum.ehrenfest_hbar(200)), "--frames", "1,0.3",
                "--out", out])
    assert code == 0
    rows = np.genfromtxt(os.path.join(out, "compare.csv"), delimiter=",", names=True)
    assert rows["l1_distance"] < 0.05


def test_compare_rejects_values_the_windowed_rows_ignore(tmp_path, capsys):
    # the windowed oscillator rows hold at hbar = 1/n and E = 1 only
    out = str(tmp_path / "cmp")
    code = run(["compare", "--state", "ho:n=100", "--classical", "oscillator:E=5",
                "--hbar", "0.5", "--frames", "1,0", "--out", out])
    assert code == 2
    assert "hbar = 0.01" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "compare.csv"))


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
