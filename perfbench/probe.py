"""Child processes of the benchmark; each runs in a fresh interpreter.

    probe.py setup [--load]   time `import simrank`, and with --load also
                              loading the CSV read from stdin; print seconds
    probe.py main ARGS...     import simrank.cli, then time cli_main(ARGS)
                              alone; print seconds
    probe.py cli ARGS...      run the CLI with spans installed: its output
                              goes to stdout as usual, and the spans go to
                              stderr as one last line after SPANS_MARK

Only sys, time and io (already loaded by the interpreter) are imported
before the timed region, so the import is timed as a user pays it.
"""

import io
import sys
import time

SPANS_MARK = "perfbench-spans "


def _setup(load: bool) -> None:
    text = sys.stdin.read() if load else ""
    start = time.perf_counter()
    import simrank
    if load:
        simrank.dataset.load_dataset(io.StringIO(text), simrank.schema.reference_schema())
    print(repr(time.perf_counter() - start))


def _main(argv: list[str]) -> None:
    from simrank.cli import cli_main

    imported = time.perf_counter()
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = cli_main(argv)
    finally:
        sys.stdout = stdout
    done = time.perf_counter()
    if code != 0:
        sys.exit(code)
    print(repr(done - imported))


def _traced_cli(argv: list[str]) -> None:
    import json

    import simrank.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = simrank.cli.cli_main(argv)
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARK + json.dumps(tracer.spans) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup("--load" in args)
    elif mode == "main":
        _main(args)
    elif mode == "cli":
        _traced_cli(args)
    else:
        sys.exit(f"unknown probe mode {mode!r}")
