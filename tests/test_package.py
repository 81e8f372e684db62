import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydome

SOURCE = Path(polydome.__file__).resolve().parents[1]


def imported_modules(*args):
    """Top-level names of every module a fresh interpreter imports running ``args``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SOURCE)),
    )
    assert done.returncode == 0, done.stderr[-500:]
    rows = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")]
    return done.stdout, {row.split(".")[0] for row in rows[1:]}  # rows[0] is the header


class TestStartsWithoutNumpy:
    def test_import_package(self):
        _, modules = imported_modules("-c", "import polydome")
        assert "polydome" in modules and "numpy" not in modules

    def test_params_command(self):
        out, modules = imported_modules("-m", "polydome.cli", "params", "--n", "5")
        assert out.splitlines()[-1].startswith("params: n=5 ")
        assert "polydome" in modules and "numpy" not in modules


class TestExportTable:
    def test_all_is_the_table(self):
        assert sorted(polydome.__all__) == sorted(polydome._EXPORTS)
        assert len(set(polydome.__all__)) == len(polydome.__all__)

    @pytest.mark.parametrize("name", polydome.__all__)
    def test_each_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"polydome.{polydome._EXPORTS[name]}")
        assert getattr(polydome, name) is getattr(home, name)
        assert name in home.__all__

    def test_every_home_export_is_listed(self):
        for module in set(polydome._EXPORTS.values()):
            home = importlib.import_module(f"polydome.{module}")
            assert {name: module for name in home.__all__}.items() <= polydome._EXPORTS.items()

    def test_dir_lists_the_names(self):
        assert set(polydome.__all__) <= set(dir(polydome))
        assert "__version__" in dir(polydome)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            polydome.no_such_name
        assert not hasattr(polydome, "np")
