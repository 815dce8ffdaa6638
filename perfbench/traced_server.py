"""``repro serve`` with its layers timed, for the traced runs.

Installs :class:`layers.LayerClock` wrappers on the flow and service
layers, runs the ``repro serve`` command line with the remaining
arguments, and after the server has drained writes the per-request
timings to the ``--dump`` file::

    python3 perfbench/traced_server.py --dump layers.json --port 0
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import LayerClock  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--dump":
        raise SystemExit("usage: traced_server.py --dump FILE [serve args]")
    dump, serve_args = argv[1], argv[2:]
    from repro.cli import main as repro_main

    clock = LayerClock()
    clock.install_flow()
    clock.install_server()
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        clock.uninstall()
    with open(dump, "w") as fh:
        json.dump({str(op): row for op, row in clock.per_op().items()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
