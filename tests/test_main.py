"""``python -m fairchores`` and ``python -m fairchores.cli`` run the CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import fairchores


def run_python(args):
    src = str(Path(fairchores.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_entry_point_reports_missing_input(tmp_path):
    missing = tmp_path / "absent.json"
    for module in ("fairchores", "fairchores.cli"):
        proc = run_python(["-m", module, "mms", "--input", str(missing)])
        assert proc.returncode == 2, module
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, (module, proc.stderr)
        assert lines[0].startswith("error: ") and str(missing) in lines[0]
        assert "Traceback" not in proc.stderr


def test_cli_module_runs_without_warnings():
    proc = run_python(["-m", "fairchores.cli", "fixtures"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("lower-bound-20-17: ")


def test_import_leaves_the_cli_unloaded():
    code = (
        "import sys, fairchores\n"
        "assert 'fairchores.cli' not in sys.modules\n"
        "assert callable(fairchores.run_cli)\n"
        "assert 'fairchores.cli' in sys.modules\n"
    )
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
