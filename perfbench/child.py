"""Run one ktq CLI command in this process under the tracer.

    python3 perfbench/child.py eval --field F2 --cap 4 "inv(t - t^2)"

Prints one JSON line: the command's exit code, stdout and stderr, the time
`import ktq.cli` took, and the tracer's totals.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import tracer as T


def main(argv):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import ktq.cli
    import_s = time.perf_counter() - t0
    tr = T.Tracer()
    tr.install()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tr.root():
            code = ktq.cli.run(argv)
    finally:
        tr.uninstall()
    tr.assert_closed()
    print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "import_s": import_s, "trace": tr.dump()}))


if __name__ == "__main__":
    main(sys.argv[1:])
