"""The README's Quick start runs as written, every step exiting 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_script() -> str:
    """The fenced sh block under the README's "## Quick start" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M)
    assert match, "no ```sh block under ## Quick start"
    return match.group(1)


def test_the_readme_quick_start_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "tablink"
    shim.write_text(
        "#!/bin/sh\n"
        f"PYTHONPATH={shlex.quote(str(ROOT / 'src'))} "
        f'exec {shlex.quote(sys.executable)} -m tablink.cli "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}"}
    proc = subprocess.run(["bash", "-e", "-c", quick_start_script()],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(list((work / "annotations").glob("*.json"))) == 6
