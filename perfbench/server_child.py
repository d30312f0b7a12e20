"""Serve one database with ``repro.serve.make_server`` until stdin closes.

Usage: ``python server_child.py <database> <trace 0|1> <spans.json>``

Prints the bound port on its first stdout line.  With tracing on, the
layer boundaries of :mod:`tracing` are wrapped in this process too and
its spans are written to ``spans.json`` at shutdown.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.serve import ServeConfig, make_server  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def main(argv) -> int:
    database, trace, spans_path = Path(argv[0]), argv[1] == "1", Path(argv[2])
    tracer = instrument(Tracer()) if trace else None
    server = make_server(ServeConfig(database=database, port=0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # the parent closes stdin to stop the server
    server.close()
    thread.join(timeout=30)
    if tracer is not None:
        tracer.restore()
        spans_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
