"""Run one crackmusic CLI command in this fresh interpreter and record timings.

    python3 perfbench/child.py RECORD_JSON MODE CLI_ARG...

MODE is ``run`` (the command, untraced), ``trace`` (the command with every
layer's public functions wrapped in spans) or ``setup`` (parse the arguments
and run ``cli.load_config``, then stop).  RECORD_JSON receives the CLI exit
code, the CLOCK_MONOTONIC time at which ``load_config`` returned (the end of
set-up), this process's peak resident memory and, when traced, the spans.
The package must be importable from the checkout's ``src`` directory.
"""

import json
import resource
import sys
from pathlib import Path

import layers
from spans import Tracer, now

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    record_path, mode, cli_argv = argv[0], argv[1], argv[2:]
    from crackmusic import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"crackmusic was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record = {"rc": None, "ready": None, "spans": []}
    if mode == "setup":
        cli.load_config(cli.build_parser().parse_args(cli_argv))
        record["ready"] = now()
        record["rc"] = 0
    else:
        cli_main = cli.main
        tracer = Tracer(layers.METERS, layers.MEMORY) if mode == "trace" else None
        if tracer:
            tracer.install(layers.modules())
        load_config = cli.load_config

        def marked_load_config(args):
            cfg = load_config(args)
            record["ready"] = now()
            return cfg

        cli.load_config = marked_load_config
        try:
            record["rc"] = cli_main(cli_argv)
        finally:
            cli.load_config = load_config
            if tracer:
                tracer.restore()
                record["spans"] = tracer.spans
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w") as f:
        json.dump(record, f)
    return 0 if record["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
