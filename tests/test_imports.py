"""The cold-start contract: what each entry point loads, in a fresh interpreter.

``repro``, ``repro.experiments``, ``repro.service``, ``repro.trace`` and
``repro.workloads`` export lazily (``repro._lazy``), so an import loads
only the modules it names.  Every check here runs in a subprocess, because
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.experiments",
    "repro.service",
    "repro.trace",
    "repro.workloads",
)


def _run(code: str, tmp_path: Path) -> dict:
    """Run ``code`` in a fresh interpreter on ``src``; it prints one JSON value.

    Bytecode goes to ``tmp_path`` (``PYTHONPYCACHEPREFIX``), so a module
    compiled once is not compiled again and the source tree stays clean.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path / "pyc"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded_after(imports: str, tmp_path: Path) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``imports``."""
    return _run(
        f"import json, sys\nimport {imports}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))",
        tmp_path,
    )


def test_service_client_loads_no_simulator(tmp_path):
    loaded = _loaded_after("repro.service.client", tmp_path)
    assert "repro.service.client" in loaded
    heavy = [
        name
        for name in loaded
        if name == "repro.machine"
        or name.startswith(("repro.sim", "repro.experiments", "repro.scenarios"))
    ]
    assert heavy == []


def test_a_plain_simulation_loads_no_trace_codec_service_scenario_or_figure(tmp_path):
    # perfbench's mix workload imports exactly these two modules; then one
    # tiny spec runs, so nothing the run needs may load the rest lazily.
    loaded = _loaded_after(
        "repro.machine, repro.experiments.harness\n"
        "from repro.config import tiny\n"
        "repro.machine.run_experiment(\n"
        "    repro.experiments.harness.multiprogram_spec(tiny(), 'MATVEC', 'R'))",
        tmp_path,
    )
    assert "repro.machine" in loaded
    unwanted = [
        name
        for name in loaded
        if name == "repro.trace.format"
        or name.startswith(("repro.service", "repro.scenarios", "repro.experiments.figure"))
    ]
    assert unwanted == []


def test_version_is_read_only_on_demand(tmp_path):
    loaded = _run(
        "import json, sys\nimport repro, repro.cli\n"
        "print(json.dumps(['repro._version' in sys.modules,"
        " 'importlib.metadata' in sys.modules]))",
        tmp_path,
    )
    assert loaded == [False, False]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(package, tmp_path):
    outcome = _run(
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "listed = set(dir(package))\n"
        "names = list(package.__all__)\n"
        "unlisted = [name for name in names if name not in listed]\n"
        "resolved = {}\n"
        "for name in names:\n"
        f"    exec(f'from {package} import {{name}}', resolved)\n"
        "missing = [name for name in names if name not in resolved]\n"
        "print(json.dumps([len(names), unlisted, missing]))",
        tmp_path,
    )
    count, unlisted, missing = outcome
    assert count > 0
    assert unlisted == []
    assert missing == []


def test_a_submodule_attribute_imports_the_submodule(tmp_path):
    outcome = _run(
        "import json, sys, repro.experiments\n"
        "before = 'repro.experiments.figure7' in sys.modules\n"
        "module = repro.experiments.figure7\n"
        "print(json.dumps([before, module.__name__, hasattr(repro.experiments, 'nope')]))",
        tmp_path,
    )
    assert outcome == [False, "repro.experiments.figure7", False]


def test_every_module_imports_on_its_own(tmp_path):
    """An import cycle the old eager package imports masked fails here.

    One interpreter imports each module with no ``repro`` module loaded:
    before each import every ``repro`` entry leaves ``sys.modules``, so the
    import runs as it would first thing in a fresh interpreter.
    """
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__main__.py"
    )
    failures = _run(
        "import importlib, json, sys, traceback\n"
        "failures = {}\n"
        f"for name in {modules!r}:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc(limit=-3)\n"
        "print(json.dumps(failures))",
        tmp_path,
    )
    assert len(modules) > 80
    assert failures == {}
