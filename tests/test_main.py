"""``python -m fairchores`` runs the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import fairchores


def test_module_entry_point_reports_missing_input(tmp_path):
    src = str(Path(fairchores.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    missing = tmp_path / "absent.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fairchores", "mms", "--input", str(missing)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(missing) in lines[0]
    assert "Traceback" not in proc.stderr
