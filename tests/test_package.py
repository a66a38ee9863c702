"""The package root: lazy re-exports, and what ``import repro.data`` pulls in."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
README = SRC.parent / "README.md"


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's ``repro``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLazyRoot:
    def test_import_repro_data_leaves_the_upper_layers_unimported(self):
        out = _run(
            "import sys, repro.data\n"
            "print(sorted(m for m in ('networkx', 'repro.experiments', 'repro.web',"
            " 'repro.crowd', 'repro.analysis') if m in sys.modules))\n"
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize("module", ["repro.web", "repro.cli.main"])
    def test_the_served_process_never_imports_networkx(self, module):
        # networkx and scipy are test dependencies only: serving and the CLI
        # run without them.
        out = _run(f"import sys, {module}\n"
                   "print([m for m in ('networkx', 'scipy') if m in sys.modules])\n")
        assert out.strip() == "[]"

    def test_every_exported_name_resolves_from_a_cold_start(self):
        out = _run(
            "import repro\n"
            "from repro import *\n"
            "missing = [n for n in repro.__all__ if n not in globals()]\n"
            "print(len(repro.__all__), missing)\n"
        )
        assert out.strip() == f"{len(repro.__all__)} []"

    def test_exports_are_the_submodules_objects(self):
        from repro import data, experiments, pipeline

        assert repro.run_pipeline is pipeline.run_pipeline
        assert repro.small_pipeline_config is experiments.small_pipeline_config
        assert repro.CheckInDataset is data.CheckInDataset
        assert set(repro._SOURCE) | {"__version__"} == set(repro.__all__)
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_the_readme_quickstart_runs(self):
        block = re.search(r"## Quickstart\s+```python\n(.*?)```", README.read_text(), re.S)
        assert "users;" in _run(block.group(1))
