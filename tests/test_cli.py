import json
import math
import os

import numpy as np
import pytest

import tomolab.quantum
from tomolab import cli
from tomolab.kernel import read_tomogram


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


def test_box_tomogram_leaves_scipy_special_unimported(tmp_path):
    # the Faddeeva function is numpy-only: importing scipy.special would add
    # ~0.27 s and ~20 MB to every process that draws a box tomogram
    import subprocess
    import sys

    out = str(tmp_path / "box.csv")
    code = (
        "import sys, tomolab.cli as c\n"
        "assert 'scipy.special' not in sys.modules\n"
        "assert c.main(['tomogram', '--state', 'box:n=40,L=1', '--frame', '1,0.3',\n"
        f"               '--hbar', '0.0112', '--out', {out!r}]) == 0\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
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
    # n = 2000 at hbar = 1e-3 loses most of its mass (Hermite underflow): the
    # CSV is still written for inspection, but the command must not succeed
    out = str(tmp_path / "ho2000.csv")
    code = run(["tomogram", "--state", "ho:n=2000", "--hbar", "0.001", "--frame", "1,0",
                "--out", out])
    assert code == 1
    assert os.path.exists(out)
    err = capsys.readouterr().err
    assert "normalization residual" in err and "0.01" in err


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


def test_limit_command_fails_on_an_artifact_mass_deficit(tmp_path, capsys):
    # at hbar = 1e-3 the default 2001-point grid misses the cat's fringes
    # near this frame and the artifact's mass is off by 4e-2: the report is
    # still written, but the command must not succeed
    out = str(tmp_path / "study")
    code = run(["limit", "ehrenfest-cat", "--q-alpha", "1.4961860991915943",
                "--p-alpha", "-0.8333520530471484",
                "--scaling", "0.9252541173618899,0.9586151787036555", "--out", out])
    assert code == 1
    assert os.path.exists(os.path.join(out, "ehrenfest-cat_report.json"))
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "ehrenfest-cat_hbar_1.000000e-03.csv" in err[0] and "4.026e-02" in err[0]


def test_limit_command_ehrenfest_oscillator(tmp_path):
    out = str(tmp_path / "study")
    code = run(["limit", "ehrenfest-oscillator", "--ns", "25,50,100", "--frame", "1,0",
                "--out", out])
    assert code == 0
    rep = json.load(open(os.path.join(out, "ehrenfest-oscillator_report.json")))
    assert rep["verdict"] == "converged"
    d = rep["distances"]
    assert d[0] > d[1] > d[2]


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

    def broken(n, frame, X, hbar, varpi=1.0):
        return 1.01 * real(n, frame, X, hbar, varpi)

    monkeypatch.setattr(tomolab.quantum, "hermite_tomogram", broken)
    rows = cli._selftest_rows(quick=True)
    by_name = {r[0]: r for r in rows}
    assert not by_name["normalization(closed forms)"][3]
    code = cli.run_selftest(quick=True)
    assert code == 1
