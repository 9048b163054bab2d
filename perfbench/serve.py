"""Traced ``repro-serve``: install the layer wrappers, then serve.

Usage: ``python perfbench/serve.py STATS_FILE <repro-serve arguments>``

The wrappers are installed before the server builds its backend.  The
benchmark opens the measured window after the server is ready, so the
start-up key population is not counted:

* ``SIGUSR1`` resets the recorder and writes ``STATS_FILE.reset``;
* ``SIGUSR2`` writes the recorder's snapshot to ``STATS_FILE`` (JSON).
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import layers  # noqa: E402


def _write(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    stats_file, serve_args = argv[0], argv[1:]
    rec = layers.Recorder()
    layers.install(rec)

    def on_reset(*_):
        rec.reset()
        _write(stats_file + ".reset", {})

    def on_dump(*_):
        _write(stats_file, rec.snapshot())

    signal.signal(signal.SIGUSR1, on_reset)
    signal.signal(signal.SIGUSR2, on_dump)
    from repro.net import cli

    return cli.main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
