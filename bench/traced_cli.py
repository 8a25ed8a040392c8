"""Run one convsarc CLI command with the span recorder installed.

    python bench/traced_cli.py SPANS_OUT <convsarc arguments...>

The benchmark's traced run starts each CLI command through this script in
place of ``python -m convsarc.cli``. It writes the command's spans, the
targets found absent and the time ``import convsarc.cli`` took to SPANS_OUT
as JSON, and exits with the command's exit code.
"""
import time

_t0 = time.perf_counter()
from convsarc import cli  # noqa: E402  (the import is what is timed)
IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "absent": tracer.absent,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
