import os
import subprocess
import sys
import types
from pathlib import Path

import alphabound


def test_all_is_sorted_and_unique():
    assert alphabound.__all__ == sorted(set(alphabound.__all__))


def test_all_lists_every_public_name():
    public = {name for name, value in vars(alphabound).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(alphabound.__all__) == public


def test_all_entries_resolve():
    assert [name for name in alphabound.__all__ if not hasattr(alphabound, name)] == []


def test_cli_start_up_leaves_out_dataclasses():
    # dataclasses pulls in inspect, dis, ast and tokenize and execs the
    # methods of every decorated class: about 25 ms of each CLI job.  The
    # snapshot leaves out whatever site imported before the package did.
    code = ("import sys; before = set(sys.modules); import alphabound.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(alphabound.__file__).resolve().parents[1]))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "alphabound.cli" in added
    assert "dataclasses" not in added
