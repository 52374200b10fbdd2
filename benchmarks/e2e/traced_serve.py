"""``repro.cli serve`` with per-layer spans recorded from outside.

Usage::

    python benchmarks/e2e/traced_serve.py --spans OUT.jsonl --label A \\
        --listen unix:a.sock --config deployment.json --assume-directory

Every argument after ``--spans``/``--label`` goes to ``repro.cli serve``
unchanged, so the process builds the same ``DirectoryServer``.  The layer
wrappers of :mod:`layers` are installed first; on SIGINT or SIGTERM the
server shuts down and the spans are written to ``--spans`` as JSON lines.
"""

from __future__ import annotations

import argparse
import signal
import sys


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the server's exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file written at exit")
    parser.add_argument("--label", default="server", help="process label stored with spans")
    args, serve_args = parser.parse_known_args(argv)

    from repro import cli
    from layers import SpanRecorder, install

    def interrupt(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    recorder = SpanRecorder(args.label)
    install(recorder, directory=True)
    try:
        return cli.main(["serve", *serve_args])
    except KeyboardInterrupt:
        return 0
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
