"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/_traced_serve.py SPANS_OUT [repro serve args]``

Recording starts on; SIGUSR2 switches it off and SIGUSR1 back on, so the
benchmark can alternate untraced and traced stretches against the same
daemon.  When the daemon drains (SIGTERM) the spans are written to
SPANS_OUT as ``{"pid": ..., "spans": [...]}``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out, serve_args = Path(argv[0]), argv[1:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.enabled = True
    for signum, on in ((signal.SIGUSR1, True), (signal.SIGUSR2, False)):
        signal.signal(signum, lambda _sig, _frame, on=on:
                      setattr(rec, "enabled", on))
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps({"pid": os.getpid(),
                               "spans": [s.to_dict() for s in rec.spans]}))
    os.replace(tmp, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
