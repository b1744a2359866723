"""The package surface: every exported name resolves, none is listed twice,
and importing the CLI loads no code generator."""

import os
import subprocess
import sys
from pathlib import Path

import ktq


def test_all_names_resolve():
    missing = [name for name in ktq.__all__ if not hasattr(ktq, name)]
    assert not missing


def test_all_has_no_duplicates():
    assert len(ktq.__all__) == len(set(ktq.__all__))


def test_cli_import_loads_no_code_generator():
    """Every command pays for `import ktq.cli`; it must not pull in
    `dataclasses` or `inspect`.  It runs in a fresh process, since pytest and
    hypothesis import `inspect` themselves, and with -S, so that start-up
    hooks of installed packages do not count."""
    code = "import sys, ktq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(ktq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
