"""``repro serve`` with the front-door layers traced.

Usage: ``python daemon.py SPANS_JSONL serve --socket ... [serve flags]``.
Wraps the daemon's parse, canonicalize and cache render/store calls,
runs the ordinary CLI entry point, and writes the recorded spans as JSONL
when the daemon has drained.  Worker processes record nothing: their
layers are read from reply telemetry.
"""

from __future__ import annotations

import sys

from benchenv import use_source_tree
from tracer import SERVICE_LAYERS, Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    use_source_tree()
    from repro.cli import main as repro_main

    tracer = Tracer()
    tracer.install_all(SERVICE_LAYERS)
    try:
        return repro_main(cli_args)
    finally:
        tracer.restore()
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
