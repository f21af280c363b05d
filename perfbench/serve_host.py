"""``repro serve`` with layer spans installed in the server process.

Usage::

    python perfbench/serve_host.py --spans-out PATH -- <repro serve args>

Wraps each layer's public entry points (see ``spans.py``), runs the
unmodified ``repro serve`` command until it is signalled, then writes
the span records to ``PATH``.  Every span records the trace
id of the request it served, taken from the request's traceparent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as repro_main
    from repro.telemetry import get_telemetry

    recorder = spans.Recorder(trace_source=lambda: get_telemetry().trace_id)
    spans.install_layers(recorder)
    code = repro_main(["serve", *serve_args])
    spans.dump(recorder.records, args.spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
