"""Run one ``germtower`` CLI command in a fresh interpreter with tracing on.

Usage::

    python3 perfbench/traced_cli.py SPANS_FILE correspond --config C --out R

The import of ``germtower.cli`` and the call of ``germtower.cli.main`` are
timed; every traced function inside records a span.  When the op ends, its
spans, counts and the two timings are written to SPANS_FILE as one JSON
line, followed by a line with the time that counting and writing took, and
the process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_file, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import germtower.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - start
    start = time.perf_counter()
    payload = {
        "import_s": import_s,
        "main_s": main_s,
        "names": tracer.names,
        "spans": tracer.spans,
        "counts": tracer.finish_counts(),
    }
    text = json.dumps(payload, separators=(",", ":"))
    with open(spans_file, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
        # The second line lets the parent take this bookkeeping out of cli.interp_s.
        fh.write(json.dumps({"finish_s": time.perf_counter() - start}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
