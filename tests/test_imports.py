"""`import vnhc.cli` loads neither `dataclasses`, `typing` nor `inspect`:
the records are tuples and the annotations are strings, with their names
from `collections.abc`.  The interpreter runs with -S, as a `site` (or a
`.pth` file that it runs) may import these modules itself."""

import json
import os
import subprocess
import sys

import vnhc

SRC = os.path.dirname(os.path.dirname(vnhc.__file__))

HEAVY = ("dataclasses", "typing", "inspect")

# Prints, as JSON, which of HEAVY were loaded before and after `import vnhc.cli`.
RUNNER = f"""
import json, sys
before = [m for m in {HEAVY!r} if m in sys.modules]
import vnhc.cli
print(json.dumps([before, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def test_cli_import_loads_no_heavy_module():
    done = subprocess.run([sys.executable, "-S", "-c", RUNNER], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]
