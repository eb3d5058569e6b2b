"""Run one nonlocper CLI command between two runs of the reference kernel.

    python3 bench/cli_child.py OUT_JSON TRACE COMMAND [ARGS...]

Runs `nonlocper.cli.main` on COMMAND and ARGS, as `python3 -m nonlocper.cli`
does, and exits with its exit code.  The reference kernel (reference.py)
runs before the library is imported and after the command returns; its
times, and the seconds spent on it, go to OUT_JSON.  With TRACE 1 the
benchmark's tracer is installed around the command, and the spans and
counters go to OUT_JSON too.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

from reference import settled_reference_s


def main(argv: list) -> int:
    out, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    before, spent = settled_reference_s()
    from nonlocper import cli

    if not trace:
        code = cli.main(cli_args)
        after, spent_after = settled_reference_s()
        Path(out).write_text(json.dumps({"refs": [before, after],
                                         "ref_s": spent + spent_after}))
        return code

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    tracer.counts[0]["kernels.integration_warnings"] += sum(
        1 for w in caught if tracing.is_kernel_integration_warning(w))
    after, spent_after = settled_reference_s()
    Path(out).write_text(json.dumps({"refs": [before, after], "ref_s": spent + spent_after,
                                     "spans": tracer.spans,
                                     "counts": dict(tracer.counts[0])}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
