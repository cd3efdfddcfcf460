"""Traced CLI process: installs the tracer, then runs `reflext.cli.main`.

    python -m perfbench.launcher SPANS_DIR INPUT_ID CLI_ARG...

When the command exits, whatever its exit code, the spans are written to a
new file in SPANS_DIR, tagged with INPUT_ID.
"""

import os
import sys
import time


def main() -> None:
    spans_dir, input_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import reflext.cli

    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin(input_id)
    try:
        reflext.cli.main(args=args, prog_name="reflext")
    finally:
        tracer.uninstall()
        tracer.dump(os.path.join(spans_dir, f"{os.getpid()}-{time.time_ns()}.json"))


if __name__ == "__main__":
    main()
