"""One traced CLI command in a fresh interpreter.

    python3 perfbench/clitrace.py SPANS_FILE -- ARGV...

Times the import of ``qroulette.cli``, installs the span wrappers, calls
``qroulette.cli.main(ARGV)`` and writes the import and ``main`` times with
the spans to SPANS_FILE.  Exits with ``main``'s return code.  Pool workers
of a ``--workers N`` run record no spans.
"""

from __future__ import annotations

import json
import sys
import time

start = time.perf_counter()
import qroulette.cli  # noqa: E402

imported = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[sys.argv.index("--") + 1 :]
    tracer = Tracer()
    tracer.install()
    tracer.op = "main"
    begin = time.perf_counter()
    code = qroulette.cli.main(argv)
    main_s = time.perf_counter() - begin
    tracer.uninstall()
    with open(spans_file, "w", encoding="ascii") as out:
        json.dump(
            {"import_s": imported - start, "main_s": main_s, "rc": code, "spans": tracer.spans},
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
