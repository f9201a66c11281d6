"""Lazy import of ``hyplab.theoremlab``: only the theorem checks load it.

``hyplab/__init__.py`` resolves theoremlab's exports on first access
(PEP 562), and ``cli.py`` looks a theorem check up only when its row runs,
so a CLI process for any other subcommand never imports the module.
"""

import ast
import os
import subprocess
import sys

import pytest

import hyplab
import hyplab.cli as cli
from hyplab import BCMatrix, BCVector
from hyplab.jsonio import dumps, matrix_to_json, vector_to_json

SRC = os.path.dirname(os.path.dirname(hyplab.__file__))
ACCEPTANCE = os.path.join(os.path.dirname(__file__), "test_acceptance.py")

#: every subcommand, with inputs it accepts; the first seven are not theorem checks
ARGV = {
    "opnorm": ["--matrix", "I.json"],
    "omc": ["--matrix", "I.json"],
    "solve": ["--matrix", "I.json", "--y", "x.json"],
    "series": ["--terms", "terms.json"],
    "norm": ["--vector", "x.json"],
    "knorm": ["--scalar", "z.json"],
    "inv": ["--scalar", "z.json"],
    "zabreiko": ["--matrix", "I.json", "--x", "x.json", "--m", "2,2", "--r", "1", "--eps", "1,1"],
    "ubp": ["--family", "family.json", "--samples", "5"],
    "omt-verify": ["--matrix", "I.json", "--trials", "5"],
    "lemma31": ["--matrix", "I.json", "--trials", "5"],
    "subadd": ["--matrix", "I.json", "--terms", "terms.json"],
    "ballscale": ["--matrix", "I.json", "--samples", "5"],
}
PLAIN = ("opnorm", "omc", "solve", "series", "norm", "knorm", "inv")


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONWARNINGS", None)
    return env


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    x = BCVector([0.25, -0.5], [0.5, 0.125])
    docs = {
        "I.json": matrix_to_json(BCMatrix.identity(2)),
        "x.json": vector_to_json(x),
        "terms.json": [vector_to_json(x), vector_to_json(x.scale(0.5))],
        "family.json": [matrix_to_json(BCMatrix.identity(2))],
        "z.json": {"e1": [3, 4], "e2": [1, 0]},
    }
    for name, doc in docs.items():
        (d / name).write_text(dumps(doc) + "\n")
    return d


def _imported_modules(cwd, argv) -> set[str]:
    """Modules a ``python -m hyplab.cli`` process imports, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hyplab.cli", *argv],
        capture_output=True, cwd=cwd, env=_env(), timeout=120, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.count("\n") == 1
    rows = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {row[-1].strip() for row in rows if len(row) == 3}


def test_hyplab_imports_neither_dataclasses_nor_traceback():
    """No class is built by ``dataclasses``, which compiles each one's methods
    with ``exec`` in every process, and ``traceback`` waits for an exit-5 error."""
    code = (
        "import sys, numpy; before = set(sys.modules); import hyplab.cli, hyplab.theoremlab; "
        "print(sorted({'dataclasses', 'traceback'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(), timeout=120, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr[-2000:]


@pytest.mark.parametrize("command", sorted(ARGV))
def test_only_theorem_subcommands_import_theoremlab(inputs, command):
    modules = _imported_modules(inputs, [command, *ARGV[command]])
    assert {"hyplab", "hyplab.jsonio", "hyplab.dop"} <= modules  # -X importtime sees them
    assert ("hyplab.theoremlab" in modules) == (command not in PLAIN)


def test_every_subcommand_is_covered():
    assert set(ARGV) == set(cli._ROWS)


def test_lazy_names_resolve_on_first_use():
    code = (
        "import sys, hyplab\n"
        "assert 'hyplab.theoremlab' not in sys.modules\n"
        "from hyplab import zabreiko_decompose\n"
        "import hyplab.theoremlab as tl\n"
        "assert zabreiko_decompose is tl.zabreiko_decompose\n"
        "for name in hyplab.__all__:\n"
        "    exec(f'from hyplab import {name}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(), timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(hyplab)
    for name in hyplab.__all__:
        assert getattr(hyplab, name) is not None
        assert name in listed
    assert set(hyplab._LAZY) <= set(hyplab.__all__)
    assert len(hyplab._LAZY) == 13


@pytest.mark.parametrize("module", [hyplab, cli])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "theoremlab_helper")
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import no_such_name")


def _used_names(path: str, imports: bool) -> set[str]:
    """Names a module reads, as names or attributes; a definition's own body
    does not count for its name, nor (unless ``imports``) an import."""
    used = set()

    def visit(node, inside=frozenset()):
        read = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign):
            inside = inside | {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read = node.id
        elif isinstance(node, ast.Attribute):
            read = node.attr
        elif isinstance(node, ast.alias) and imports:
            read = node.asname or node.name
        if read is not None and read not in inside:
            used.add(read)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()))
    return used


def test_every_exported_name_is_used_by_the_package_or_the_acceptance_gate():
    package = os.path.dirname(hyplab.__file__)
    used = _used_names(ACCEPTANCE, imports=True)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            used |= _used_names(os.path.join(package, name), imports=False)
    assert sorted(set(hyplab.__all__) - used) == []
