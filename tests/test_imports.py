"""Each command loads only the library modules it uses.

A ``permalg`` call is mostly interpreter start-up and imports, so the
package exports its names lazily and ``permalg.cli`` imports library code
inside the commands.  The child-process tests read ``python -X importtime``
to see which modules a real run loaded.  The front end is the standard
library only: no run loads click, which only the in-process tests use.
No command loads ``dataclasses`` or the ``inspect`` it imports: records
are ``NamedTuple``s and tree nodes ``__slots__`` classes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import permalg

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
HEISENBERG = str(REPO / "algebras" / "heisenberg.json")
LIBRARY = {
    f"permalg.{p.stem}"
    for p in (SRC / "permalg").glob("*.py")
    if p.stem not in ("__init__", "__main__", "cli")
}
TOP_LEVEL = [
    "bn",
    "check-identity",
    "cohn-witness",
    "dims",
    "envelope",
    "expand",
    "gk",
    "is-lie",
    "jordan-express",
    "lie-express",
    "normalize",
    "to-bn",
]


def _run(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime *args``; return the process and the
    ``permalg``, ``click``, ``dataclasses`` and ``inspect`` modules it
    imported."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    shown = ("permalg", "click", "dataclasses", "inspect")
    return proc, {m for m in imported if m.partition(".")[0] in shown}


def _click(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.partition(".")[0] == "click"}


def test_library_module_list_is_found():
    assert {"permalg.perm", "permalg.envelope", "permalg.metabelian"} <= LIBRARY


def test_import_permalg_loads_no_submodule():
    proc, loaded = _run("-c", "import permalg")
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"permalg"}


def test_import_cli_loads_no_library_module():
    proc, loaded = _run("-c", "import permalg.cli")
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"permalg", "permalg.cli"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["dims", "--gens", "3", "--deg", "4"], LIBRARY - {"permalg.perm"}),
        (["normalize", "x2*x1*x3"], {"permalg.envelope", "permalg.metabelian", "permalg.lie"}),
        # the Lie criterion is a sum per slice: no row echelon, so no linalg
        (["is-lie", "x2*x1*x3 - x1*x2*x3"], {"permalg.envelope", "permalg.metabelian", "permalg.jordan", "permalg.linalg"}),
        (["lie-express", "x2*x1 - x1*x2"], {"permalg.envelope", "permalg.metabelian", "permalg.jordan", "permalg.linalg"}),
        (["envelope", "build", "--algebra", HEISENBERG, "--deg", "4"], {"permalg.jordan", "permalg.lie"}),
        (["envelope", "nf", "--algebra", HEISENBERG, "d(e2)*e1"], {"permalg.jordan", "permalg.lie"}),
        (["envelope", "check", "--algebra", HEISENBERG], {"permalg.jordan", "permalg.lie"}),
    ],
)
def test_command_loads_only_what_it_uses(argv, absent):
    proc, loaded = _run("-m", "permalg", *argv)
    assert proc.returncode == 0, proc.stderr
    assert loaded & LIBRARY, "the command ran no library code"
    assert not loaded & absent
    assert not _click(loaded)
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import permalg.cli"],
        ["-m", "permalg", "--help"],
        ["-m", "permalg", "--version"],
        ["-m", "permalg", "envelope", "--help"],
        ["-m", "permalg", "dims", "--gens", "x", "--deg", "2"],
        # the console script: pyproject's ``permalg.cli:main``
        ["-c", "import permalg.cli; permalg.cli.main()", "--version"],
    ],
)
def test_front_end_loads_no_click(args):
    proc, loaded = _run(*args)
    assert proc.returncode in (0, 2), proc.stderr
    assert "permalg.cli" in loaded
    assert not _click(loaded)


def test_entry_point_smoke():
    proc, loaded = _run("-m", "permalg", "--help")
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.split("Commands:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in listed if line.strip()] == TOP_LEVEL
    assert not loaded & LIBRARY

    proc, loaded = _run("-m", "permalg", "envelope", "--help")
    assert proc.returncode == 0, proc.stderr
    listed = proc.stdout.split("Commands:\n", 1)[1].splitlines()
    assert sorted(line.split()[0] for line in listed if line.strip()) == ["build", "check", "nf"]
    assert not loaded & LIBRARY

    proc, loaded = _run("-m", "permalg", "--version")
    assert (proc.returncode, proc.stdout) == (0, "permalg, version 0.1.0\n")
    assert not loaded & LIBRARY


def test_console_script_uses_the_same_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["permalg"]
    assert target == "permalg.cli:main"
    module, attr = target.split(":")
    proc, loaded = _run("-c", f"import {module}; {module}.{attr}()", "--version")
    assert (proc.returncode, proc.stdout) == (0, "permalg, version 0.1.0\n")
    assert not loaded & LIBRARY


def test_lazy_exports():
    for name in permalg.__all__:
        obj = getattr(permalg, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    # looked up on every access, never stored in the package namespace
    assert not set(permalg.__all__) & set(vars(permalg))
    assert set(permalg.__all__) <= set(dir(permalg))
    star: dict = {}
    exec("from permalg import *", star)
    assert set(permalg.__all__) <= set(star)
    with pytest.raises(AttributeError):
        permalg.no_such_name


def test_lazy_export_follows_a_rebound_submodule_name(monkeypatch):
    from permalg import jordan

    sentinel = object()
    monkeypatch.setattr(jordan, "to_bn", sentinel)
    assert permalg.to_bn is sentinel


def test_envelope_exports_only_its_own_names():
    from permalg import envelope, metabelian

    assert all(getattr(envelope, name).__module__ == envelope.__name__ for name in envelope.__all__)
    assert not set(envelope.__all__) & set(metabelian.__all__ + ["random_metabelian"])
