"""Traced ``repro serve``: install the layer wrappers, then call the CLI.

Usage: ``python3 perfbench/serve_launch.py TRACE_DIR <repro serve args>``

The wrappers are installed before the serve entry point runs, so forked
pool workers inherit them.  Each process writes its spans and counts to
``TRACE_DIR/<pid>.json`` when it shuts down: the router after
``serve_main`` returns (SIGINT stops it), each worker after its body
returns (the pool stops workers with SIGTERM).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[0])
    trace_dir.mkdir(parents=True, exist_ok=True)

    import repro.serve.pool as pool_mod
    from layers import install_http, install_kernels, install_service
    from repro.serve.cli import serve_main
    from tracing import Tracer

    tracer = Tracer()
    install_service(tracer)
    install_http(tracer)
    install_kernels(tracer)

    worker_main = pool_mod._worker_main

    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump(trace_dir / f"{os.getpid()}.json")

    pool_mod._worker_main = traced_worker_main
    try:
        return serve_main(argv[1:])
    finally:
        tracer.dump(trace_dir / f"{os.getpid()}.json")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
