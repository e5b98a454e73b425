"""Static checks on the source tree, read with ``ast``: nothing is imported or run.

- Every import in ``src/``, ``tests/`` and ``scripts/`` is used.
- Only ``field._spectral`` (the forward half) and ``field._synthesize`` (the
  inverse half) call a transform, pocketfft's gufunc ``fft`` and ``ifft``,
  which only ``field._pocketfft`` imports and hands out, and only
  ``field._wavenumbers`` calls ``fftfreq``: the package has one FFT path.
  The scan sees each form: ``np.fft.<name>``, a gufunc read bare or off any
  module, an alias, and an import (``test_fft_scan_sees_each_form``).
- In ``src/`` and ``scripts/`` only ``cli._accept`` runs the acceptance suite:
  ``renormlab accept`` is its one runner.
- Within ``commutator`` only ``mollify`` reads ``mollifier``: every
  commutator and chain-rule defect reads one ``Mollified`` record.
- No module in ``scripts/`` builds a ``Grid`` or calls or imports a study
  function (``convergence_study``, ``mild_solve``, ``decay_study``,
  ``transform_coeffs``, ``relaxation_residuals``, ``relaxation_metrics``):
  ``renormlab run`` is the studies' one front end.  A script may still run
  the CLI, or patch a function and run checks through ``lab``.
- Only ``lab._per_member`` integrates flows, by one ``simulate_flows`` call,
  and only ``lab.Run.paths`` draws or refines Brownian paths: the lab has one
  member loop and one path drawer.  No call of the member loop passes a reduce
  that returns the ensemble it is given, so no estimate loops over the members a second
  time.  Chunking lives in ``flow`` alone: ``lab`` never names
  ``members_per_chunk`` or ``logdet_gaps``, and in ``flow`` only the march
  reads each member's increments and only ``simulate_flows`` takes the fused
  log-det pass.
- Only ``flow._newton_rows`` solves a Newton step or takes the node start:
  ``zvonkin`` imports none of ``_start_nodes``, ``_at_nodes`` and
  ``_solve_stack``, so the straightening's node-exact first step is the
  flow inversion's.
- ``field`` owns per-row coefficient work: ``parabolic`` imports nothing
  from ``flow``, ``lab`` and ``zvonkin`` import no private name of
  ``parabolic``, only ``field`` writes the twist contraction
  ``"ij...,ji...->..."`` (once) or looks rows up by
  ``index[...slice_indices(...)]``, and no module defines ``_by_slice`` or
  ``_at_times``.
- No line of ``src/renormlab`` reads ``id(``, ``distinct(``, ``slice_of`` or
  ``.slices``: time samples share a slice through ``TimeGridVector.index``,
  not through object identity.
- In ``src/`` and ``scripts/`` only ``weakform.residual_renormalized`` and
  ``WeakFormLedger.flipped`` build a ``WeakFormLedger`` (by its constructor
  or ``from_terms``): the package has one ledger function.
- No module in ``src/`` imports ``scipy.ndimage`` (by an import statement,
  ``import_module`` or ``__import__``), and ``interp`` exports one name,
  ``PeriodicInterpolant``: the package has one spline class.  Only
  ``interp`` names scipy's private ``_nd_image`` (its module-level load of
  the compiled file included), and it calls it at two sites, the prefilter
  in ``PeriodicInterpolant.__init__`` and the small call in
  ``PeriodicInterpolant._read``; no module in ``src/`` calls
  ``map_coordinates``: every small spline call is that one call.
- In ``src/`` and ``scripts/`` only ``PeriodicInterpolant._read`` reads the
  stencil's ``plan``, ``gather`` and ``add`` (off ``_stencil`` or
  ``_Stencil``, called or not): march steps, row calls, Newton rounds and
  f0 reads are one read.  The scan sees each form
  (``test_stencil_read_scan_sees_each_form``).
- In ``src/`` and ``scripts/`` only ``interp._Stencil.plan`` takes a point's
  cell (``floor``, and ``trunc`` for the periodic wrap), whence the B-spline
  weights, and only ``_Stencil`` reads the padded spline coefficients
  (``_coeff``): every stencil read, Newton rounds included, is one plan and
  its gathers.
- No module of ``src/renormlab`` but ``field`` names ``spectral_derivative``
  or ``_derivative_multiplier``: every other module takes a derivative
  through ``field``'s stacks (``gradient``, ``jacobian_stack``,
  ``hessian_stack``, ...) or ``_partials``, never by a multi-index of its own.
- No module of ``src/renormlab`` names ``environ``, ``getenv`` or
  ``ENV_VAR``: the package reads no setting from the environment.
- In ``src/renormlab`` only ``lab`` imports ``parallel``, and only
  ``lab._determinism_payload`` names ``ordered_map``: every estimate runs in
  one thread, and the determinism check owns the one thread pool.  The scan
  sees each form (``test_pool_scan_sees_each_form``).
- ``field`` owns the time-axis rule: no module of ``src/renormlab`` calls
  ``array_equal`` or ``allclose`` on times, and only
  ``field._time_tolerance`` writes the tolerance 1e-9 * max(...).  Every
  ``parabolic`` and ``zvonkin`` function that reads a time axis calls
  ``field._step_axis``, and ``flow._step_count``, ``_step_of`` and
  ``_validate_coefficients`` read ``_time_tolerance``.
- Every field of a ``@dataclass`` in ``src/renormlab`` is read as
  ``<...>.field`` somewhere in ``src/``, ``scripts/``, ``perfbench/`` or
  ``tests/``, outside its own class's ``__post_init__``: a record carries no
  field that nothing reads.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "renormlab"
SCANNED = sorted(
    path for part in ("src", "tests", "scripts") for path in (ROOT / part).rglob("*.py")
)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module):
    """Each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(path: Path) -> list[str]:
    """The imported names the module never reads."""
    tree = _parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in _imported(tree) if name not in used]


def test_no_unused_imports():
    found = [f"{p.relative_to(ROOT)}: {name}" for p in SCANNED for name in unused_imports(p)]
    assert found == []


def test_unused_import_scan_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os, os.path as osp\nimport numpy.linalg\n"
        "from math import pi, tau as t\n"
        "def f(x: float = pi) -> None:\n    return numpy.linalg\n",
        encoding="utf-8",
    )
    assert unused_imports(probe) == ["os", "osp", "t"]


def _with_function(node: ast.AST, function: str = "<module>"):
    """(innermost enclosing function, node) for ``node`` and every node below it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    yield function, node
    for child in ast.iter_child_nodes(node):
        yield from _with_function(child, function)


# numpy.fft's transforms and frequency helpers, and pocketfft's gufuncs
_FFT_NAMES = {
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2",
    "rfftn", "irfftn", "hfft", "ihfft", "fftfreq", "rfftfreq",
}


def _fft_uses(path: Path) -> list[tuple[str, str]]:
    """(enclosing function, name) for each read of the module's transforms.

    That is each ``<...>.fft.<name>``, each other read of a name in
    _FFT_NAMES, bare or as an attribute (a call, or an alias taken for one),
    and (function, "import") for each import that names fft.
    """
    uses, modules = [], set()
    for function, node in _with_function(_parse(path)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "fft":
            uses.append((function, node.attr))
            modules.add(node.value)  # np.fft read as a module, not as a transform
        elif name in _FFT_NAMES and isinstance(node.ctx, ast.Load) and node not in modules:
            uses.append((function, name))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any("fft" in name for name in names):
                uses.append((function, "import"))
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_fft_path(path):
    uses = _fft_uses(path)
    if path.name != "field.py":
        assert uses == []
        return
    assert sorted(set(uses)) == [
        ("_pocketfft", "fft"), ("_pocketfft", "ifft"), ("_pocketfft", "import"),
        ("_spectral", "fft"), ("_synthesize", "ifft"), ("_wavenumbers", "fftfreq"),
    ]


def test_fft_scan_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nfrom numpy.fft import _pocketfft_umath\n"
        "def a(x):\n    return np.fft.fftn(x)\n"
        "def b():\n    return np.fft\n"
        "def c(x, out):\n    fft = _pocketfft()[0]\n    return fft(x, 1.0, out=out)\n"
        "def d(gufuncs, x):\n    return gufuncs.ifft(x, 0.5, out=x)\n"
        "def e(x):\n    return np.fft._pocketfft_umath.rfft_n_even(x, 1.0)\n"
        "def f():\n    import scipy.fft\n"
        "def g(fft):\n    ifft = 'np.fft.ifft(x)'\n    return ifft\n",
        encoding="utf-8",
    )
    assert sorted(_fft_uses(probe)) == [
        ("<module>", "import"), ("a", "fftn"), ("b", "fft"), ("c", "fft"), ("d", "ifft"),
        ("e", "_pocketfft_umath"), ("f", "import"), ("g", "ifft"),
    ]


def _readers(tree: ast.Module, name: str) -> list[str]:
    """The functions that read ``name`` bare or as an attribute, each once, sorted.

    A call reads its callee, and so does an alias taken for a later call; an
    import, a definition, an assignment to the name or a string does not.
    """
    return sorted({
        function for function, node in _with_function(tree)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == name
        and isinstance(node.ctx, ast.Load)
    })


def test_readers_scan_sees_each_form():
    tree = ast.parse(
        "from .lab import acceptance_suite\n"
        "def a(cfg):\n    return acceptance_suite(cfg)\n"
        "def b(cfg):\n    return lab.acceptance_suite(cfg).checks\n"
        "def c():\n    run = renormlab.lab.acceptance_suite\n    return run\n"
        "def d(cfg):\n    acceptance_suite = print\n    return 'acceptance_suite(cfg)'\n"
        "def acceptance_suite(cfg):\n    return acceptance_suite_of(cfg)\n"
        "cli.acceptance_suite = capture\n"
        "report = lab.acceptance_suite(cfg)\n"
    )
    assert _readers(tree, "acceptance_suite") == ["<module>", "a", "b", "c"]


def test_one_suite_runner():
    # perfbench and the tests may run the suite too; the package and its
    # scripts run it through `renormlab accept` alone
    readers = {
        str(path.relative_to(ROOT)): _readers(_parse(path), "acceptance_suite")
        for part in ("src", "scripts") for path in sorted((ROOT / part).rglob("*.py"))
    }
    assert {path: fns for path, fns in readers.items() if fns} == {
        "src/renormlab/cli.py": ["_accept"],
    }


def test_only_mollify_builds_a_mollifier():
    assert _readers(_parse(PACKAGE / "commutator.py"), "mollifier") == ["mollify"]


def test_mollifier_scan_sees_each_form():
    tree = ast.parse(
        "from .field import mollifier\n"
        "def mollify(sigma, f, eps):\n    return mollifier(f.grid, eps)\n"
        "def op_T(m):\n    return field.mollifier(m.f.grid, 0.5)\n"
        "def op_S(m):\n    return 'mollifier(grid, eps)', m.kernel\n"
    )
    assert _readers(tree, "mollifier") == ["mollify", "op_T"]


_STUDIES = (
    "Grid", "convergence_study", "mild_solve", "decay_study", "transform_coeffs",
    "relaxation_residuals", "relaxation_metrics",
)


def _study_calls(tree: ast.Module) -> list[str]:
    """``function: name`` for each call of a ``_STUDIES`` name, bare or as an
    attribute, and each import of one, each once, sorted.  Reading or
    assigning the name without a call, as a patch does, is not counted."""
    found = set()
    for function, node in _with_function(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _STUDIES:
                found.add(f"{function}: {name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in _STUDIES:
                    found.add(f"{function}: {alias.name.rpartition('.')[2]}")
    return sorted(found)


def test_scripts_run_no_study_of_their_own():
    calls = {
        path.name: _study_calls(_parse(path)) for path in sorted((ROOT / "scripts").rglob("*.py"))
    }
    assert calls and {name: found for name, found in calls.items() if found} == {}


def test_study_call_scan_sees_each_form():
    tree = ast.parse(
        "from renormlab.field import Grid\nfrom renormlab import parabolic, lab\n"
        "from renormlab.zvonkin import relaxation_metrics as metrics\n"
        "grid = Grid(dim=1, L=6.28, N=64)\n"
        "def a(b):\n    return parabolic.mild_solve(b, 4.0, 128)\n"
        "def b(sigma, f):\n    return renormlab.commutator.convergence_study('T', sigma, f)\n"
        "def c(monkeypatch, broken):\n"
        "    original = parabolic.decay_study\n"
        "    monkeypatch.setattr(zvonkin, 'transform_coeffs', broken)\n"
        "    parabolic.relaxation_residuals = broken\n"
        "    return original, lab.run_experiment(cfg), 'mild_solve(b)'\n"
        "def d(cfg):\n    return subprocess.run(['renormlab', 'run', cfg])\n"
    )
    assert _study_calls(tree) == [
        "<module>: Grid", "<module>: relaxation_metrics", "a: mild_solve",
        "b: convergence_study",
    ]


def _uses(tree: ast.AST, name: str) -> list[str]:
    """The functions that import ``name`` or read it bare or as an attribute, each once, sorted."""
    return sorted({
        function for function, node in _with_function(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.rpartition(".")[2] == name for alias in node.names)
    })


def test_uses_scan_sees_each_form():
    tree = ast.parse(
        "from .flow import members_per_chunk as per_chunk\n"
        "import renormlab.flow.members_per_chunk\n"
        "def a(grid):\n    return flow.members_per_chunk(grid, 3)\n"
        "def b():\n    return members_per_chunk\n"
        "def c(members_per_chunk=1):\n    return members_per_chunk_of(c)\n"
        "def members_per_chunk():\n    return 'members_per_chunk'\n"
    )
    assert _uses(tree, "members_per_chunk") == ["<module>", "a", "b"]


def test_one_member_loop():
    tree = _parse(PACKAGE / "lab.py")
    assert _readers(tree, "simulate_flows") == ["_per_member"]
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "simulate_flows"
    ]
    assert len(calls) == 1
    for name in ("members_per_chunk", "logdet_gaps", "_member_increments", "_by_chunks"):
        assert _uses(tree, name) == [], name
    imported = set(_imported(tree))
    assert not imported & {"simulate_flow", "variational_jacobian", "logdet_stochastic_exponential"}
    flow_tree = _parse(PACKAGE / "flow.py")
    assert _uses(flow_tree, "_member_increments") == ["_march"]
    assert _uses(flow_tree, "logdet_gaps") == ["simulate_flows"]
    for drawer in ("sample_brownian", "refine_brownian"):
        assert _readers(tree, drawer) == ["paths"], drawer
    # ... and the one function of that name is the run's method
    methods = [
        f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    ]
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "Run.paths" in methods and defined.count("paths") == 1
    reduces = _member_reduces(tree)
    assert len(reduces) >= 7  # the scan sees the lab's calls
    assert [ast.unparse(r) for r in reduces if _returns_its_argument(r, tree)] == []
    flow_names = {
        node.name for node in ast.walk(flow_tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not flow_names & {"ensemble_moment", "MomentEstimate"}


def test_one_newton_solver():
    flow_tree = _parse(PACKAGE / "flow.py")
    assert _uses(flow_tree, "_solve_stack") == ["_newton_rows"]
    assert _uses(flow_tree, "_start_nodes") == ["_newton_rows"]
    private = {"_start_nodes", "_at_nodes", "_solve_stack"}
    assert not set(_imported(_parse(PACKAGE / "zvonkin.py"))) & private


def _imports_from(tree: ast.Module, module: str) -> list[str]:
    """The names imported from the sibling ``module``, by ``from .module import``
    or ``from . import module``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names += [alias.name for alias in node.names if alias.name == module]
    return names


_TWIST = re.compile(r"""["']ij\.\.\.,ji\.\.\.->\.\.\.["']""")
_ROW_LOOKUP = re.compile(r"index\[[^\]]*slice_indices\(")


def test_field_owns_the_row_work():
    trees = {path.name: _parse(path) for path in PACKAGE.glob("*.py")}
    assert _imports_from(trees["parabolic.py"], "flow") == []
    for name in ("lab.py", "zvonkin.py"):
        private = [n for n in _imports_from(trees[name], "parabolic") if n.startswith("_")]
        assert private == [], name
    twists = {}
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        twists[path.name] = len(_TWIST.findall(text))
        if path.name != "field.py":
            assert _ROW_LOOKUP.findall(text) == [], path.name
        defined = {
            node.name for node in ast.walk(trees[path.name])
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & {"_by_slice", "_at_times"}, path.name
    assert {name: n for name, n in twists.items() if n} == {"field.py": 1}


def test_row_work_scans_see_each_form():
    tree = ast.parse(
        "from .flow import _blocks\nfrom . import flow, rng\nfrom .field import Grid\n"
    )
    assert _imports_from(tree, "flow") == ["_blocks", "flow"]
    probe = (
        'np.einsum("ij...,ji...->...", j, j)\n'
        "np.einsum('ij...,ji...->...', j, j)\n"
        'np.einsum("ij...,ij...->...", j, j)\n'
        "c.index[c.slice_indices(times)]\nu.index[int(u.slice_indices(t))]\n"
        "c.slice_indices(times)\nc.values[c.index[rows]]\n"
    )
    assert len(_TWIST.findall(probe)) == 2
    assert len(_ROW_LOOKUP.findall(probe)) == 2


def _member_reduces(tree: ast.Module) -> list[ast.expr]:
    """The reduce argument of each ``_per_member(prob, paths, reduce, ...)`` call."""
    return [
        node.args[2] for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_per_member" and len(node.args) > 2
    ]


def _returns_its_argument(reduce: ast.expr, tree: ast.Module) -> bool:
    """A lambda or a function of the module that returns its first parameter as is."""
    if isinstance(reduce, ast.Lambda):
        bodies, params = [reduce.body], reduce.args.args[:1]
    elif isinstance(reduce, ast.Name):
        defs = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == reduce.id
        ]
        bodies = [r.value for d in defs for r in ast.walk(d) if isinstance(r, ast.Return)]
        params = [a for d in defs for a in d.args.args[:1]]
    else:
        return False
    names = {param.arg for param in params}
    return any(isinstance(body, ast.Name) and body.id in names for body in bodies)


def test_returned_ensemble_scan_sees_each_form():
    tree = ast.parse(
        "def keep(ens):\n    return ens\n"
        "def mass(ens):\n    return ens.paths.sum()\n"
        "_per_member(prob, paths, lambda ens: ens)\n"
        "_per_member(prob, paths, keep, [3])\n"
        "_per_member(prob, paths, lambda e: mass(e))\n"
        "_per_member(prob, paths, mass)\n"
        "_per_member(prob, paths, logdet_gap)\n"
    )
    assert [_returns_its_argument(r, tree) for r in _member_reduces(tree)] == [
        True, True, False, False, False,
    ]


_ENVIRONMENT = ("environ", "getenv", "ENV_VAR")


def _environment_names(tree: ast.Module) -> list[str]:
    """Each ``_ENVIRONMENT`` name the module imports, defines or reads, bare or
    as an attribute; a string does not name it."""
    return [name for name in _ENVIRONMENT if _uses(tree, name)]


def test_no_module_reads_the_environment():
    found = {path.name: _environment_names(_parse(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_environment_scan_sees_each_form():
    forms = {
        "os.environ['RENORMLAB_THREADS'] = '8'": ["environ"],
        "workers = os.environ.get(name, '1')": ["environ"],
        "del os.environ[parallel.ENV_VAR]": ["environ", "ENV_VAR"],
        "from os import environ as env": ["environ"],
        "def f():\n    return os.getenv('RENORMLAB_THREADS')": ["getenv"],
        "from os import getenv": ["getenv"],
        "monkeypatch.setenv(ENV_VAR, '8')": ["ENV_VAR"],
        "from .parallel import ENV_VAR as name": ["ENV_VAR"],
        "'os.environ, os.getenv and ENV_VAR'\nenvironment = os.environb": [],
    }
    assert {text: _environment_names(ast.parse(text)) for text in forms} == forms


def _pool_uses(tree: ast.Module) -> list[str]:
    """"import" if the module imports ``parallel`` or a name from it, then the
    functions that import or read ``ordered_map``; a string does neither."""
    imports = any(
        isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "parallel"
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.rpartition(".")[2] == "parallel" for alias in node.names)
        for node in ast.walk(tree)
    )
    return ["import"] * imports + _uses(tree, "ordered_map")


def test_one_thread_pool():
    found = {path.name: _pool_uses(_parse(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {
        "lab.py": ["import", "_determinism_payload"],
    }


def test_pool_scan_sees_each_form():
    forms = {
        "from . import parallel": ["import"],
        "from . import commutator, parallel as pool": ["import"],
        "import renormlab.parallel": ["import"],
        "from .parallel import workers": ["import"],
        "from .parallel import ordered_map as omap": ["import", "<module>"],
        "def f(fn, xs):\n    return parallel.ordered_map(fn, xs)": ["f"],
        "def g():\n    run = ordered_map\n    return run": ["g"],
        "'parallel.ordered_map'\nfrom . import parallelism\nordered_maps = 1": [],
    }
    assert {text: _pool_uses(ast.parse(text)) for text in forms} == forms


_MULTI_INDEX = ("spectral_derivative", "_derivative_multiplier")


def _multi_index_names(tree: ast.Module) -> list[str]:
    """Each ``_MULTI_INDEX`` name the module imports or reads, bare or as an
    attribute; a string does not name it."""
    return [name for name in _MULTI_INDEX if _uses(tree, name)]


def test_only_field_takes_a_derivative_by_multi_index():
    found = {path.name: _multi_index_names(_parse(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "field.py": ["spectral_derivative", "_derivative_multiplier"],
    }


def test_multi_index_scan_sees_each_form():
    forms = {
        "from .field import spectral_derivative": ["spectral_derivative"],
        "from .field import _derivative_multiplier as mult": ["_derivative_multiplier"],
        "def f(u):\n    return field.spectral_derivative(u, (1, 1))": ["spectral_derivative"],
        "d = _derivative_multiplier(g.dim, g.L, g.N, (2,))": ["_derivative_multiplier"],
        "def g(u, d=spectral_derivative):\n    return d(u, (2,))": ["spectral_derivative"],
        "'spectral_derivative'\nspectral_derivatives = _derivative_multipliers": [],
    }
    assert {text: _multi_index_names(ast.parse(text)) for text in forms} == forms


# sharing told from object identity, or the list of per-sample slice objects
_IDENTITY = re.compile(r"\bid\(|distinct\(|slice_of|\.slices\b")


def _identity_uses(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if _IDENTITY.search(line)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_sharing_by_identity(path):
    assert _identity_uses(path.read_text(encoding="utf-8")) == []


def test_identity_scan_sees_each_form():
    probe = (
        "memo[id(sl)]\nunique, index = c.distinct()\nst.slice_of[j]\nfor s in c.slices:\n"
        "valid(x)\nc.slices_at(t)\nc.slice_indices(t)\nc.values[c.index]\n"
    )
    assert _identity_uses(probe) == [
        "memo[id(sl)]", "unique, index = c.distinct()", "st.slice_of[j]", "for s in c.slices:",
    ]


READERS = sorted(
    path for part in ("src", "scripts", "perfbench", "tests")
    for path in (ROOT / part).rglob("*.py")
)


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target).rpartition(".")[2] == "dataclass"


def _attribute_reads(node: ast.AST, validating: str | None = None):
    """(attribute, class) for each ``<...>.attribute`` read at or below ``node``;
    class names the class whose ``__post_init__`` holds the read, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, validating
    for child in ast.iter_child_nodes(node):
        post_init = isinstance(node, ast.ClassDef) and getattr(child, "name", "") == "__post_init__"
        yield from _attribute_reads(child, node.name if post_init else validating)


def unread_fields(records: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``module.Class.field`` for each field of a ``@dataclass`` in ``records`` that
    no reader reads as ``<...>.field`` outside the ``__post_init__`` of its class.

    A read of any object's attribute of the same name counts: ``scalars.r``
    would keep any record's ``r``, and a field's ``.times`` any record's
    ``times``.  So it finds a lower bound of the unread fields, not all of them.
    """
    reads = {read for tree in readers for read in _attribute_reads(tree)}
    read_by = {}
    for attribute, validating in reads:
        read_by.setdefault(attribute, set()).add(validating)
    unread = []
    for module, tree in records.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        name = stmt.target.id
                        if not read_by.get(name, set()) - {node.name}:
                            unread.append(f"{module}.{node.name}.{name}")
    return unread


def test_every_record_field_is_read():
    records = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_fields(records, [_parse(path) for path in READERS]) == []


def test_unread_field_scan_sees_each_form():
    record = ast.parse(
        "@dataclass\nclass A:\n    kept: int\n    checked: int\n    unread: int\n"
        "    doubled: int = 0\n"
        "    def __post_init__(self):\n        if self.checked < 0 or self.kept < 0:\n"
        "            raise ValueError\n"
        "    def twice(self):\n        return 2 * self.doubled\n"
        "@dataclasses.dataclass(frozen=True)\nclass B:\n    written: int\n"
        "class C:\n    plain: int\n"
    )
    reader = ast.parse("a.kept\nb.written = 1\n")
    assert unread_fields({"probe": record}, [record, reader]) == [
        "probe.A.checked", "probe.A.unread", "probe.B.written",
    ]


def _ledger_builders(tree: ast.Module) -> list[str]:
    """The functions that call ``WeakFormLedger(...)`` or ``<...>.from_terms(...)``,
    bare or as an attribute, each once, sorted."""
    return sorted({
        function for function, node in _with_function(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in ("WeakFormLedger", "from_terms")
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in ("WeakFormLedger", "from_terms")
        )
    })


def test_one_ledger():
    # the plain weak form is the linear renormalizer's ledger, so one
    # function assembles every ledger and flipping a term is the only edit
    builders = {
        str(path.relative_to(ROOT)): _ledger_builders(_parse(path))
        for part in ("src", "scripts") for path in sorted((ROOT / part).rglob("*.py"))
    }
    assert {path: fns for path, fns in builders.items() if fns} == {
        "src/renormlab/weakform.py": ["flipped", "residual_renormalized"],
    }


def test_ledger_builder_scan_sees_each_form():
    tree = ast.parse(
        "def a(t, d):\n    return WeakFormLedger(t, d, 0.0)\n"
        "def b(t, d):\n    return weakform.WeakFormLedger(t, d, 0.0)\n"
        "def c(t, d):\n    return WeakFormLedger.from_terms(t, d)\n"
        "def d(t, d):\n    return from_terms(t, d)\n"
        "def e(led):\n    return led.residual, WeakFormLedger, 'WeakFormLedger(t)'\n"
        "def f(led):\n    return led.flipped('g_div_b'), led.from_terms\n"
    )
    assert _ledger_builders(tree) == ["a", "b", "c", "d"]


def _ndimage_imports(tree: ast.Module) -> list[str]:
    """Each dotted name under ``scipy.ndimage`` that the module imports (by an
    import statement, ``import_module`` or ``__import__``) or reads as
    ``scipy.ndimage``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and node.args and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        ) in ("import_module", "__import__") and isinstance(node.args[0], ast.Constant):
            names.append(str(node.args[0].value))
    return sorted(name for name in names if (name + ".").startswith("scipy.ndimage."))


def test_one_spline_class():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py")) if _ndimage_imports(_parse(p))]
    assert importers == []
    tree = _parse(PACKAGE / "interp.py")
    exports = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]
    ]
    assert exports == [["PeriodicInterpolant"]]


def _private_ndimage(tree: ast.Module):
    """(uses, calls): the functions that name ``_nd_image`` (in an import,
    bare, as an attribute, or as the last dotted part of a string, as a load
    from its file names it), each once, sorted; and ``function: routine`` for
    each call of a routine of it, one entry per call site, sorted."""
    uses, calls = set(), []
    for function, node in _with_function(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.rpartition(".")[2] == "_nd_image" for alias in node.names
        ) or isinstance(node, ast.ImportFrom) and (
            (node.module or "").rpartition(".")[2] == "_nd_image"
            or any(alias.name == "_nd_image" for alias in node.names)
        ) or isinstance(node, ast.Name) and node.id == "_nd_image" or (
            isinstance(node, ast.Attribute) and node.attr == "_nd_image"
        ) or isinstance(node, ast.Constant) and (
            str(node.value).rpartition(".")[2] == "_nd_image"
        ):
            uses.add(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if getattr(owner, "id", None) == "_nd_image" or getattr(owner, "attr", None) == (
                "_nd_image"
            ):
                calls.append(f"{function}: {node.func.attr}")
    return sorted(uses), sorted(calls)


def _map_coordinates_calls(tree: ast.Module) -> list[str]:
    """The function of each call of ``map_coordinates``, bare or as an
    attribute, one entry per call site, sorted."""
    return sorted(
        function for function, node in _with_function(tree)
        if isinstance(node, ast.Call) and "map_coordinates" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    )


def test_one_small_call_site():
    found = {
        str(path.relative_to(ROOT)): _private_ndimage(_parse(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert {path: uses for path, uses in found.items() if uses != ([], [])} == {
        "src/renormlab/interp.py": (
            ["<module>", "__init__", "_load_nd_image", "_read"],
            ["__init__: spline_filter1d", "_read: geometric_transform"],
        ),
    }
    calls = {
        str(path.relative_to(ROOT)): _map_coordinates_calls(_parse(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert {path: sites for path, sites in calls.items() if sites} == {}


def test_small_call_scan_sees_each_form():
    tree = ast.parse(
        "from scipy.ndimage import _nd_image, _ni_support\n"
        "import scipy.ndimage._nd_image as raw\nfrom scipy.ndimage._nd_image import zoom_shift\n"
        "from scipy import ndimage\nfrom scipy.ndimage import map_coordinates\n"
        "def a(c, x, o):\n"
        "    _nd_image.geometric_transform(c, None, x)\n"
        "    _nd_image.geometric_transform(c, None, o)\n"
        "    return scipy.ndimage._nd_image.zoom_shift(c), _ni_support._get_output(o, c)\n"
        "def b(c, x):\n    return ndimage.map_coordinates(c, x), map_coordinates(c, x)\n"
        "def d(c, x):\n"
        "    return 'ndimage._nd_image.geometric_transform', ndimage.map_coordinates, raw.zoom(c)\n"
        "def load(dirs):\n"
        "    spec = importlib.machinery.PathFinder.find_spec('scipy.ndimage._nd_image', dirs)\n"
        "    return importlib.util.module_from_spec(spec)\n"
        "compiled = load(['scipy/ndimage'])\n"
        "def e(c):\n    return spec_from_file_location('_nd_image', 'x.so'), c\n"
    )
    assert _private_ndimage(tree) == (
        ["<module>", "a", "e", "load"],
        ["a: geometric_transform", "a: geometric_transform", "a: zoom_shift"],
    )
    assert _map_coordinates_calls(tree) == ["b", "b"]


def test_ndimage_scan_sees_each_form():
    tree = ast.parse(
        "import scipy\nimport scipy.ndimage\nimport scipy.ndimage as ndi\n"
        "from scipy import ndimage, linalg\nfrom scipy import ndimage as nd\n"
        "from scipy.ndimage import map_coordinates\nfrom . import ndimage\n"
        "def f(x):\n    return scipy.ndimage.spline_filter1d(x), scipy.linalg, 'scipy.ndimage'\n"
        "def g():\n"
        "    return importlib.import_module('scipy.ndimage'), __import__('scipy.ndimage.x')\n"
        "def h(dirs):\n"
        "    return importlib.machinery.PathFinder.find_spec('scipy.ndimage._nd_image', dirs)\n"
    )
    assert _ndimage_imports(tree) == (
        ["scipy.ndimage"] * 6 + ["scipy.ndimage.map_coordinates", "scipy.ndimage.x"]
    )


_STENCIL_WORK = ("floor", "trunc", "_coeff")


def _stencil_work(tree: ast.Module) -> list[str]:
    """``Class.function: name`` (or ``function: name``) for each read of a
    point's cell (``floor``, ``trunc``) or of the padded spline coefficients
    (``_coeff``), bare or as an attribute, each once, sorted.  An import, an
    assignment to the name or a string does not read it."""
    found = set()

    def visit(node, cls, function):
        if isinstance(node, ast.ClassDef):
            cls, function = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in _STENCIL_WORK and isinstance(getattr(node, "ctx", None), ast.Load):
            where = ".".join(part for part in (cls, function) if part) or "<module>"
            found.add(f"{where}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function)

    visit(tree, None, None)
    return sorted(found)


def test_one_stencil_plan():
    work = {
        str(path.relative_to(ROOT)): _stencil_work(_parse(path))
        for part in ("src", "scripts") for path in sorted((ROOT / part).rglob("*.py"))
    }
    assert {path: found for path, found in work.items() if found} == {
        "src/renormlab/interp.py": [
            "_Stencil.__init__: _coeff", "_Stencil.gather: _coeff",
            "_Stencil.plan: floor", "_Stencil.plan: trunc",
        ],
    }


_STENCIL_READ = ("plan", "gather", "add")


def _stencil_reads(tree: ast.Module) -> list[str]:
    """``function: name`` for each read of ``plan``, ``gather`` or ``add`` off
    a name or attribute ``_stencil`` or ``_Stencil`` (a call, or an alias
    taken for one), each once, sorted.  A store or another owner's
    attribute of the same name does not count."""
    return sorted({
        f"{function}: {node.attr}" for function, node in _with_function(tree)
        if isinstance(node, ast.Attribute) and node.attr in _STENCIL_READ
        and isinstance(node.ctx, ast.Load)
        and (getattr(node.value, "id", None) or getattr(node.value, "attr", None))
        in ("_stencil", "_Stencil")
    })


def test_one_stencil_read():
    reads = {
        str(path.relative_to(ROOT)): _stencil_reads(_parse(path))
        for part in ("src", "scripts") for path in sorted((ROOT / part).rglob("*.py"))
    }
    assert {path: found for path, found in reads.items() if found} == {
        "src/renormlab/interp.py": ["_read: add", "_read: gather", "_read: plan"],
    }


def test_stencil_read_scan_sees_each_form():
    tree = ast.parse(
        "from renormlab import interp\n"
        "def a(self, x):\n    return self._stencil.plan(x), self.spline._stencil.gather(x)\n"
        "def b(s, x):\n    return interp._Stencil.add(s, x), _Stencil.plan(s, x)\n"
        "def c(spline):\n    read = spline._stencil.add\n    return read\n"
        "def d(reads, x):\n"
        "    reads.plan, stencil = None, x._stencil\n"
        "    return np.add(x, 1), reads.plan, x.gather(1), 'self._stencil.plan'\n"
    )
    assert _stencil_reads(tree) == [
        "a: gather", "a: plan", "b: add", "b: plan", "c: add",
    ]


def test_stencil_work_scan_sees_each_form():
    tree = ast.parse(
        "import numpy as np\nfrom math import floor\n"
        "class S:\n    def plan(self, x):\n        return np.floor(x), math.trunc(x)\n"
        "    def read(self, i):\n        return self._coeff.take(i), self._coeff[:, i]\n"
        "def cells(x):\n    return floor(x), 'np.floor(x)'\n"
        "def store(s):\n    s._coeff = s.trunc_of(1)\n"
        "rounded = np.trunc(2.5)\n"
    )
    assert _stencil_work(tree) == [
        "<module>: trunc", "S.plan: floor", "S.plan: trunc", "S.read: _coeff", "cells: floor",
    ]


def _called(node: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _time_axis_rules(tree: ast.Module) -> list[str]:
    """Each time-axis rule a module writes itself: a call of ``array_equal`` or
    ``allclose`` with an argument that names a time, and a product of 1e-9
    with a ``max(...)``, the time tolerance."""
    found = []
    for function, node in _with_function(tree):
        if isinstance(node, ast.Call) and _called(node) in ("array_equal", "allclose"):
            named = [
                getattr(n, "id", None) or getattr(n, "attr", "")
                for arg in node.args for n in ast.walk(arg)
            ]
            if any("time" in name for name in named):
                found.append(f"{function}: {_called(node)}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(isinstance(s, ast.Constant) and s.value == 1e-9 for s in sides) and any(
                isinstance(s, ast.Call) and _called(s) == "max" for s in sides
            ):
                found.append(f"{function}: 1e-9 * max")
    return found


def test_field_owns_the_time_axis_rule():
    trees = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: _time_axis_rules(tree) for name, tree in trees.items()}
    assert {name: rules for name, rules in found.items() if rules} == {
        "field.py": ["_time_tolerance: 1e-9 * max"],
    }
    readers = {
        name: _readers(tree, "_step_axis") for name, tree in trees.items() if name != "field.py"
    }
    assert {name: fns for name, fns in readers.items() if fns} == {
        "parabolic.py": [
            "mild_defect", "mild_solve", "pde_residual", "relaxation_residuals", "space_time_norm",
        ],
        "zvonkin.py": ["relaxation_metrics", "transformed_residual"],
    }
    assert _readers(trees["flow.py"], "_time_tolerance") == [
        "_step_count", "_step_of", "_validate_coefficients",
    ]


def test_time_axis_scan_sees_each_form():
    tree = ast.parse(
        "from numpy import allclose\n"
        "def a(sol, b):\n    return np.array_equal(sol.u.times, b.times)\n"
        "def b(times):\n    return allclose(np.diff(times), times[1], rtol=1e-10)\n"
        "def c(T):\n    return 1e-9 * max(T, 1.0)\n"
        "def d(path, t):\n    return abs(t) > max(path.T, 1.0) * 1e-9\n"
        "def e(u, T):\n"
        "    np.array_equal(u.values, u.index), 1e-12 * max(T, 1.0), 1e-9 * min(T, 1.0)\n"
        "    return '1e-9 * max(T, 1)', np.allclose(u.values, 0.0)\n"
    )
    assert _time_axis_rules(tree) == [
        "a: array_equal", "b: allclose", "c: 1e-9 * max", "d: 1e-9 * max",
    ]
