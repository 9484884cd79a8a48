"""Run one eigenplane CLI invocation with spans around the package's public functions.

    python3 bench/cli_launcher.py SPANS_JSON [CLI arguments...]

Times the import of eigenplane.cli as the span `cli.import`, wraps the public
functions, calls eigenplane.cli.run, and writes the spans to SPANS_JSON.  An
exception escaping cli.run propagates as it would from the installed entry
point: a traceback and exit code 1.
"""

import sys

from spans import Tracer, write


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import eigenplane.cli as cli

    tracer.end(span)
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        tracer.uninstall()
        write(path, tracer)


if __name__ == "__main__":
    sys.exit(main())
