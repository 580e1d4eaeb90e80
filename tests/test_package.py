"""The package namespace: one export table, modules imported on first use."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ncpoly

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> list[str]:
    """stdout lines of ``code`` run in a new interpreter."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_import_loads_no_submodule():
    code = "import sys, ncpoly\nprint(sorted(m for m in sys.modules if m.startswith('ncpoly.')))\n"
    assert run_fresh(code) == ["[]"]


def test_eval_loads_only_what_it_uses():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ncpoly.cli\n"
        "ncpoly.cli.main(['eval', 'x'])\n"
        "unused = ('ncpoly.matrixeval', 'ncpoly.calculus', 'ncpoly.randomgen', 'dataclasses', 'inspect')\n"
        "print([m for m in unused if m in set(sys.modules) - before])\n"
    )
    assert run_fresh(code) == ["+ 1*x", "[]"]


def test_eval_and_json_load_no_json_module():
    code = (
        "import sys\n"
        "import ncpoly.cli\n"
        "ncpoly.cli.main(['eval', 'x'])\n"
        "ncpoly.cli.main(['json', 'x'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('json', '_json')))\n"
    )
    assert run_fresh(code) == ["+ 1*x", '{"terms":[{"word":[24],"coeff":1}]}', "[]"]


def test_every_export_resolves():
    code = (
        "import ncpoly\n"
        "namespace = {}\n"
        "exec('from ncpoly import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "print(sorted(namespace) == ncpoly.__all__)\n"
        "print(all(namespace[name] is getattr(ncpoly, name) for name in ncpoly.__all__))\n"
        "print(ncpoly.__all__ == sorted(set(ncpoly.__all__)))\n"
    )
    assert run_fresh(code) == ["True", "True", "True"]
    assert len(ncpoly.__all__) == 30


def test_namespace_lists_exports_and_reaches_submodules():
    code = (
        "import ncpoly\n"
        "print(set(ncpoly.__all__) <= set(dir(ncpoly)))\n"
        "print(ncpoly.element.POWER_LIMIT)\n"
        "try:\n"
        "    ncpoly.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert run_fresh(code) == ["True", "1000000", "module 'ncpoly' has no attribute 'no_such_name'"]


def test_version_is_read_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools marks its [tool.setuptools] table as beta
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)
    assert config["project"]["version"] == ncpoly.__version__
