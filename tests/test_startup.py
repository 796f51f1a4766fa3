"""Start-up: ``import fano72`` and ``fano72 hilbert`` load only the layers they run,
and nothing but ``verify``'s records loads ``dataclasses``.  ``cli`` reads its own
argv, so no command loads ``argparse``, ``gettext`` or ``locale``, and
``fano72 hilbert`` loads neither ``re`` nor ``shutil``.

The package resolves its exports on first access, through a name table, so a
typo in that table would show only when the name is first used; the table
tests below resolve every name.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fano72

SRC = str(Path(fano72.__file__).resolve().parents[1])
CERTIFIER = {"fano72.checks", "fano72.linsys", "fano72.ratmap", "fano72.bundles", "dataclasses"}


def _loaded(*args: str) -> set[str]:
    """The modules a fresh ``python -S`` loads to run args, read from ``-X importtime``."""
    done = subprocess.run([sys.executable, "-S", "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_hilbert_loads_only_cli_and_grading():
    # grading imports nothing from the package, so neither polynomials nor
    # their rationals load: fractions imports decimal.
    loaded = _loaded("-m", "fano72", "hilbert", "--weights", "1,1", "--degree", "1")
    assert {m for m in loaded if m.startswith("fano72.")} == {"fano72.cli", "fano72.grading"}
    assert not loaded & (CERTIFIER | {"fractions", "decimal"})


@pytest.mark.parametrize("args", [("hilbert", "--weights", "1,1", "--degree", "1"),
                                  ("wps", "--weights", "1,1,4,6"), ("verify", "all")],
                         ids=["hilbert", "wps", "verify"])
def test_commands_load_no_argument_library(args):
    loaded = _loaded("-m", "fano72", *args)
    assert "fano72.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}
    if args[0] == "hilbert":
        assert not loaded & {"re", "shutil"}


def test_import_fano72_loads_no_submodule():
    loaded = _loaded("-c", "import fano72")
    assert "fano72" in loaded
    assert not {m for m in loaded if m.startswith("fano72.")}
    assert not loaded & CERTIFIER


def test_every_exported_name_is_its_submodule_attribute():
    for name, module in fano72._EXPORTS.items():
        assert getattr(fano72, name) is getattr(importlib.import_module(f"fano72.{module}"), name)
    assert set(fano72._EXPORTS) <= set(fano72.__all__) <= set(dir(fano72))
    assert all(hasattr(fano72, name) for name in fano72.__all__)


@pytest.mark.parametrize("args", [("-m", "fano72", "wps", "--weights", "1,1,4,6"),
                                  ("-c", "import fano72.linsys, fano72.bundles, fano72.wps")],
                         ids=["wps", "builders"])
def test_wps_and_the_builders_load_no_dataclasses_or_inspect(args):
    # Their values are plain classes on grading.FrozenValue: no decorator
    # generates code at import, so neither module loads.
    assert not _loaded(*args) & {"dataclasses", "inspect"}


def test_verify_all_loads_no_typing():
    assert "typing" not in _loaded("-m", "fano72", "verify", "all")


def test_verify_without_json_output_loads_no_json():
    assert "json" not in _loaded("-m", "fano72", "verify", "all")


def test_submodules_import_and_unknown_names_are_refused():
    # In a fresh process the import system, not the package's __getattr__, loads a submodule.
    loaded = _loaded("-c", "import sys; from fano72 import checks; "
                           "assert checks is sys.modules['fano72.checks']")
    assert "fano72.checks" in loaded
    with pytest.raises(AttributeError, match="no attribute 'hilbert_cont'"):
        fano72.hilbert_cont
    with pytest.raises(AttributeError) as refused:
        getattr(fano72, "z" * 10 ** 5)
    assert len(str(refused.value)) < 200
    assert importlib.import_module("fano72.checks").ConfigurationError is fano72.ConfigurationError
