"""What a ``repro serve`` process imports, and the lazy package exports
that keep it small.

The admission service, its clients and the predictor are pure Python.
``repro``, ``repro.core``, ``repro.serve``, ``repro.sim`` and
``repro.sanitizer`` resolve their public names on first access (PEP 562),
and the CLI imports the experiment harness only inside the commands that
run it, so a server process loads neither numpy nor the simulator.
``repro.experiments`` and ``repro.mem`` stay eager: both need numpy
anyway, and ``repro.experiments.sweep`` is a submodule and a function.
The load generator and the chaos driver take their latency summaries
from the pure-Python ``repro.latency``, so they load no numpy either.
"""

import asyncio
import importlib
import json
import os
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.serve.client import ServeClient

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = ["repro", "repro.core", "repro.serve", "repro.sim", "repro.sanitizer"]

#: modules (and their submodules) a server process must not import
NOT_IMPORTED = (
    "numpy",
    "repro.sim.kernel",
    "repro.mem",
    "repro.experiments",
    "repro.profiler",
    "repro.energy",
    "repro.serve.chaos",
    "repro.serve.loadgen",
)

#: server command lines: perfbench's admit_durable workload and the chaos
#: campaigns' journaled, sanitized server
SERVE_ARGS = {
    "admit_durable": [
        "--capacity-mb", "12", "--shards", "2", "--journal", "{dir}/j.log",
        "--journal-fsync", "0.05", "--predict",
    ],
    "chaos": ["--capacity-mb", "4", "--journal", "{dir}/j.log", "--sanitize"],
}


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


async def hello_when_listening(sock: Path, proc: subprocess.Popen) -> None:
    for _ in range(600):
        assert proc.poll() is None, "the server exited before listening"
        try:
            client = await ServeClient.connect(unix_path=str(sock), timeout=5.0)
        except (ConnectionError, FileNotFoundError, OSError):
            await asyncio.sleep(0.05)
            continue
        try:
            reply = await client.hello("closure-probe")
            assert reply["ok"] is True
        finally:
            await client.close()
        return
    raise AssertionError("the server never listened")


@pytest.mark.parametrize("name", sorted(SERVE_ARGS))
def test_server_process_imports_only_the_service(tmp_path, name):
    sock = tmp_path / "s.sock"
    args = [arg.format(dir=tmp_path) for arg in SERVE_ARGS[name]]
    log = tmp_path / "importtime.log"
    with open(log, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "--policy", "strict", "--socket", str(sock), *args],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        try:
            asyncio.run(hello_when_listening(sock, proc))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in log.read_text().splitlines()
        if line.startswith("import time:")
    }
    assert "repro.serve.server" in imported
    assert ("repro.sanitizer.invariants" in imported) == (name == "chaos")
    loaded = sorted(
        module for module in imported
        if any(module == n or module.startswith(n + ".") for n in NOT_IMPORTED)
    )
    assert loaded == []


@pytest.mark.parametrize("module", ["repro.serve.loadgen", "repro.serve.chaos"])
def test_the_load_generator_and_the_chaos_driver_load_no_numpy(module):
    out = run_python(
        f"import json, sys, {module}\n"
        "print(json.dumps(['numpy' in sys.modules,"
        " sorted(m for m in sys.modules if m.startswith('repro.experiments'))]))\n"
    )
    assert json.loads(out) == [False, []]


def test_building_the_cli_parser_loads_no_asyncio():
    """A batch command's parser reads the service's configs, and through
    them ``repro.serve.protocol``, the codec; the asyncio framer lives in
    ``repro.serve.framer``."""
    out = run_python(
        "import json, sys\n"
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "print(json.dumps(['asyncio' in sys.modules,"
        " 'repro.serve.protocol' in sys.modules]))\n"
    )
    assert json.loads(out) == [False, True]


def test_experiments_metrics_re_exports_the_latency_helpers():
    import repro.latency
    from repro.experiments import metrics

    for name in repro.latency.__all__:
        assert getattr(metrics, name) is getattr(repro.latency, name)


def test_importing_the_lazy_packages_loads_none_of_their_submodules():
    out = run_python(
        "import json, sys\n"
        "import repro, repro.core, repro.serve, repro.sim, repro.sanitizer\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith("
        "'repro')), 'numpy' in sys.modules]))\n"
    )
    modules, numpy_loaded = json.loads(out)
    assert modules == sorted([*LAZY_PACKAGES, "repro._lazy"])
    assert numpy_loaded is False


def test_first_access_resolves_each_export_in_a_fresh_interpreter():
    """Each name, first reached through its package's ``__getattr__``, is
    the object its defining submodule holds."""
    out = run_python(
        "import importlib, json\n"
        f"packages = {LAZY_PACKAGES!r}\n"
        "wrong = []\n"
        "for name in packages:\n"
        "    pkg = importlib.import_module(name)\n"
        "    for attr, sub in pkg._EXPORTS.items():\n"
        "        module = importlib.import_module(f'{name}.{sub}')\n"
        "        if getattr(pkg, attr) is not getattr(module, attr):\n"
        "            wrong.append(f'{name}.{attr}')\n"
        "print(json.dumps(wrong))\n"
    )
    assert json.loads(out) == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_its_defining_submodules_object(name):
    pkg = importlib.import_module(name)
    assert [n for n in pkg.__all__ if n != "__version__"] == list(pkg._EXPORTS)
    for attr, sub in pkg._EXPORTS.items():
        module = importlib.import_module(f"{name}.{sub}")
        value = getattr(pkg, attr)
        assert value is getattr(module, attr), f"{name}.{attr}"
        # a class or function names the submodule it comes from
        defined_in = getattr(value, "__module__", module.__name__)
        if isinstance(value, (type, types.FunctionType)):
            assert defined_in == module.__name__, f"{name}.{attr}"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_lists_every_export(name):
    pkg = importlib.import_module(name)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_an_unknown_name_raises_attribute_error(name):
    pkg = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
    assert not hasattr(pkg, "no_such_name")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_export(name):
    pkg = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    for attr in pkg.__all__:
        assert namespace[attr] is getattr(pkg, attr)


def test_experiments_sweep_stays_the_function_after_a_submodule_import():
    """``repro.experiments`` stays eager: ``sweep`` is both a submodule and
    the function the package exports, and importing the submodule later
    (``figures`` does) must not rebind the package attribute."""
    import repro.experiments.figures  # noqa: F401
    import repro.experiments.sweep  # noqa: F401
    from repro.experiments import sweep

    assert isinstance(sweep, types.FunctionType)
    assert sweep is importlib.import_module("repro.experiments.sweep").sweep
