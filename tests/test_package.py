"""The package's public surface: every exported name resolves, is exported
by its own module alone (the package binds only `__version__`, and
importing one module loads only the modules it uses), and so does
every function the benchmark tracer (perfbench/tracer.py) wraps by name,
which only a traced benchmark run would otherwise notice missing, and
every classical time-average route and every catalog state's tomogram
route reaches a traced name.  The
source size the README states is the one its own rule counts, no
private top-level name is left unused, every public name is used or
documented, the oscillator catalog's wave functions and extents are
defined once, in the base class that applies the Fourier turn, and every
refusal of a limit study is named by its message in some test."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import tomolab
from tomolab import classical as cl
from tomolab import quantum as qt
from tomolab import states as st
from tomolab.kernel import GridFunction2D, TomographyFrame

_ROOT = Path(__file__).resolve().parents[1]
_TRACER = _ROOT / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(tomolab.__path__):
        module = importlib.import_module(f"tomolab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_importing_one_module_loads_one_module():
    code = ("import sys, tomolab; "
            "print(sorted(n for n in vars(tomolab) if not n.startswith('_') or n == '__version__')); "
            "import tomolab.kernel; "
            "print(sorted(m for m in sys.modules if m.startswith('tomolab')))")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env).stdout.splitlines()
    assert out == ["['__version__']", "['tomolab', 'tomolab.kernel']"]


def test_no_name_is_exported_twice():
    # a function is imported from the module that defines it: no __all__
    # lists a name its module imports from a sibling, and __init__.py binds
    # nothing but __version__
    for path in (_ROOT / "src" / "tomolab").glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            bound = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
            imports = [node.lineno for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert bound == ["__version__"] and not imports, (bound, imports)
            continue
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        assert not exported & imported, (path.name, sorted(exported & imported))


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    wraps = [w for layer in tracer.LAYERS.values() for w in layer]
    assert wraps
    for w in wraps:
        target = getattr(importlib.import_module(f"tomolab.{w.module}"), w.func, None)
        assert callable(target), (w.module, w.func)


def test_readme_states_the_source_size():
    # the README's rule: lines of src/tomolab/*.py not matching ^\s*(#|$)
    stated = int(re.search(r"wc -l` \((\d+)", (_ROOT / "README.md").read_text()).group(1))
    counted = sum(1 for path in (_ROOT / "src" / "tomolab").glob("*.py")
                  for line in path.read_text().splitlines()
                  if not re.match(r"\s*(#|$)", line))
    assert counted == stated


def test_time_average_routes_reach_the_traced_names(monkeypatch):
    # the tracer rebinds module globals, so a route table that held the
    # function objects themselves would hide these calls from it
    calls = []
    for name in ("classical_box_tomogram_build", "classical_oscillator_tomogram_build",
                 "radon_density"):
        def counted(*args, _name=name, _orig=getattr(cl, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cl, name, counted)
    g = np.linspace(-4, 4, 81)
    f = np.exp(-0.5 * (g[:, None] ** 2 + g[None, :] ** 2)) / (2 * np.pi)
    x = np.linspace(-6, 6, 241)
    for model in (cl.BoxTrajectory(1.0), cl.OscillatorTrajectory(),
                  cl.DensityGrid(GridFunction2D(g, g, f))):
        cl.time_averaged_tomogram(model, TomographyFrame(0.6, 0.8), x)
    assert calls == ["classical_box_tomogram_build", "classical_oscillator_tomogram_build",
                     "radon_density"]


def test_state_routes_reach_the_traced_names(monkeypatch):
    # each catalog class reaches its closed form through the module global
    # the tracer rebinds, once per tomogram
    calls = []
    names = ("hermite_tomogram", "coherent_tomogram", "cat_tomogram",
             "superposition_tomogram", "box_tomogram")
    for name in names:
        def counted(*args, _name=name, _orig=getattr(qt, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(qt, name, counted)
    x = np.linspace(-6, 6, 241)
    states = (st.HOEigen(2, 1.5), st.Coherent(0.5 - 0.2j), st.CatEven(0.8j), st.CatOdd(-0.7),
              st.Superposition(0, 3), st.BoxEigen(2, 1.5))
    expected = ["hermite_tomogram", "coherent_tomogram", "cat_tomogram", "cat_tomogram",
                "superposition_tomogram", "box_tomogram"]
    for state, name in zip(states, expected):
        calls.clear()
        qt.state_tomogram(state, TomographyFrame(0.6, 0.8), x, 0.7)
        assert calls == [name], (state, calls)


def _used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_private_top_level_name_is_used():
    # a helper left behind when its caller goes is dead code no test runs
    sources = {path: path.read_text() for path in (_ROOT / "src" / "tomolab").glob("*.py")}
    defined, used = [], set()
    for path, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append(f"{path.name}:{name}")
        used |= _used_names(tree)
    unused = sorted(d for d in defined if d.split(":")[1] not in used)
    assert not unused, unused


def test_every_imported_name_is_used():
    # the project runs no linter: an import left behind when its last user moves
    # (a helper, a typing name) is caught by reading each module's own names
    for path in (_ROOT / "src" / "tomolab").glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= loaded, (path.name, sorted(imported - loaded))


def test_every_public_name_is_used_or_documented():
    # an __all__ name that only tests reach is a feature no command, study
    # or benchmark job runs: package code uses it, the benchmark names it,
    # or the README does
    trees = {path.stem: ast.parse(path.read_text())
             for path in (_ROOT / "src" / "tomolab").glob("*.py") if path.name != "__init__.py"}
    used = set().union(*map(_used_names, trees.values()))
    text = (_ROOT / "README.md").read_text() + "".join(
        path.read_text() for path in (_ROOT / "perfbench").glob("*.py"))
    unreached = []
    for module, tree in trees.items():
        for name in getattr(importlib.import_module(f"tomolab.{module}"), "__all__", ()):
            if name not in used and not re.search(rf"\b{name}\b", text):
                unreached.append(f"{module}.{name}")
    assert not unreached, unreached


def test_dense_phase_tables_are_built_in_one_place():
    # classical._phases builds every e^{i k y} table of the Fourier maps:
    # no other function takes np.exp of an outer product (np.outer,
    # np.multiply.outer or a [:, None] broadcast) or fills a cos/sin table
    for name in ("classical.py", "quantum.py"):
        tree = ast.parse((_ROOT / "src" / "tomolab" / name).read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "_phases":
                continue
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"):
                    continue
                where = (name, fn.name, call.lineno)
                if call.func.attr == "exp":
                    inner = list(ast.walk(call))
                    assert not any(isinstance(n, ast.Attribute) and n.attr == "outer" for n in inner), where
                    assert not any(isinstance(n, ast.Constant) and n.value is None for n in inner), where
                if call.func.attr in ("cos", "sin"):
                    assert not any(k.arg == "out" for k in call.keywords), where


def test_the_oscillator_momentum_side_is_one_fourier_turn():
    # states._Oscillator alone defines the wave functions and extents, from
    # its one _wave and each family's _extent, so the momentum side of every
    # oscillator state is the one Fourier turn of its position side
    sides = {"position_wavefunction", "momentum_wavefunction", "position_extent", "momentum_extent"}
    assert sides | {"_wave"} <= set(vars(st._Oscillator))
    families = [c for c in vars(st).values()
                if isinstance(c, type) and issubclass(c, st._Oscillator) and c is not st._Oscillator]
    assert {st.HOEigen, st.Superposition, st.Coherent, st.CatEven, st.CatOdd} <= set(families)
    for cls in families:
        assert not (sides | {"_wave"}) & set(vars(cls)), cls.__name__
    # and one row builder, states._basis_rows, serves the wave functions,
    # every tomogram frame and the amplitude: quantum builds no oscillator row
    assert not hasattr(st, "_coherent_psi")
    tree = ast.parse((_ROOT / "src" / "tomolab" / "quantum.py").read_text())
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "hermite_phi"]
    assert callers == []
    # one exact Wigner function, the displaced-parity sum on _Oscillator, from
    # the matrix elements that states keeps beside _basis_rows
    assert "exact_wigner" in vars(st._Oscillator) and not hasattr(st._Oscillator, "_radius2")
    for cls in families:
        assert "exact_wigner" not in vars(cls), cls.__name__
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert not defined & {"_fock_displacement", "_coherent_displacement", "_expectation"}
    imported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "laguerre_scaled" not in imported


def test_no_np_unique_in_the_package():
    # np.unique's first call in a process imports numpy.ma (15-19 ms):
    # kernel._distinct gives the same sorted distinct values without it
    for path in (_ROOT / "src" / "tomolab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and node.attr == "unique"
                        and isinstance(node.value, ast.Name) and node.value.id == "np"), (
                path.name, node.lineno)


def test_every_box_segment_is_states_segment():
    # int e^{iwy} dy over a segment, the a = 0 integral of the box closed forms,
    # is written once: np.sinc is called in states._segment alone, and the box
    # momentum wave function is two segments with no special case at resonance
    def np_calls(node, name):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                and c.func.attr == name and isinstance(c.func.value, ast.Name) and c.func.value.id == "np"]

    trees = {path.name: ast.parse(path.read_text()) for path in (_ROOT / "src" / "tomolab").glob("*.py")}
    states = trees["states.py"].body
    segment = next(fn for fn in states if isinstance(fn, ast.FunctionDef) and fn.name == "_segment")
    assert len(np_calls(segment, "sinc")) == sum(len(np_calls(tree, "sinc")) for tree in trees.values()) > 0
    box = next(cls for cls in states if isinstance(cls, ast.ClassDef) and cls.name == "BoxEigen")
    wave = next(fn for fn in box.body if isinstance(fn, ast.FunctionDef) and fn.name == "momentum_wavefunction")
    assert not np_calls(wave, "where")


def test_file_formats_are_known_in_kernel_alone():
    # kernel holds the one table reader, the one JSON serializer and the one
    # sidecar rule: outside it no function calls np.loadtxt or json (but
    # RunConfig.from_json, which reads the user's --config document) or
    # builds a '.json' sidecar path from a CSV path
    for path in (_ROOT / "src" / "tomolab").glob("*.py"):
        if path.name == "kernel.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "from_json":
                continue
            for node in ast.walk(fn):
                where = (path.name, fn.name, getattr(node, "lineno", None))
                if isinstance(node, ast.Attribute):
                    assert node.attr != "splitext", where
                    if isinstance(node.value, ast.Name):
                        assert (node.value.id, node.attr) != ("np", "loadtxt"), where
                        assert node.value.id != "json", where
                assert not (isinstance(node, ast.Constant) and node.value == ".json"), where


def test_the_command_line_leaves_reconstruction_to_the_library():
    # quantum.reconstruct_wigner and reconstruct_density size, build and
    # invert the frame families; cmd_reconstruct only writes and gates, and
    # the selftest's round trips call them too.  The one family the CLI
    # builds is the selftest's characteristic row, which checks G itself
    # against each frame's tomogram and inverts nothing
    library = {"build_state_family", "build_state_slices", "wigner_from_tomogram_grid",
               "density_grid_from_tomogram"}
    calls = []
    for fn in ast.parse((_ROOT / "src" / "tomolab" / "cli.py").read_text()).body:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls += [(getattr(fn, "name", None), name)] if name in library else []
    assert calls == [("_selftest_rows", "build_state_family")]


def test_only_states_splits_a_descriptor_on_its_colon():
    # one kind:args scanner, states._scan_descriptor, serves parse_state and
    # parse_classical; the one other ':' split is the hbar sweep a:b:geometric
    splits = set()
    for path in (_ROOT / "src" / "tomolab").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("split", "rsplit", "partition", "rpartition") and node.args
                        and isinstance(node.args[0], ast.Constant) and node.args[0].value == ":"):
                    splits.add((path.name, fn.name))
    assert splits == {("states.py", "_scan_descriptor"), ("cli.py", "parse_hbar_sequence")}


def test_no_limit_study_calls_a_cli_function():
    # a _STUDIES row is the study's parameters and one call into the library:
    # no per-study adapter in cli stands between them
    tree = ast.parse((_ROOT / "src" / "tomolab" / "cli.py").read_text())
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_STUDIES" for t in node.targets))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(table) if isinstance(node, ast.Call)}
    assert called and not called & defined, sorted(called & defined)


def test_the_readme_lists_every_descriptor_kind():
    text = (_ROOT / "README.md").read_text()
    states_list = text[text.index("State descriptors:"):text.index("Classical descriptors:")]
    classical_list = text[text.index("Classical descriptors:"):]
    for kinds, listed in ((st._STATE_KINDS, states_list), (cl._CLASSICAL_KINDS, classical_list)):
        assert [k for k in kinds if f"`{k}:" not in listed] == []


def test_every_limits_refusal_is_pinned_by_its_message():
    # a refusal no test names can outlive the route it guarded: for each raise
    # in limits.py, the longest literal run of its message (a string or the
    # constant parts of an f-string), edge punctuation dropped, is in a test
    tests = "".join(path.read_text() for path in (_ROOT / "tests").glob("*.py"))
    tree = ast.parse((_ROOT / "src" / "tomolab" / "limits.py").read_text())
    unpinned = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            message = node.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            longest = max((p.value for p in parts if isinstance(p, ast.Constant)), key=len).strip(" ;:,.()")
            if longest not in tests:
                unpinned.append(f"limits.py:{node.lineno}: {longest}")
    assert not unpinned, unpinned
