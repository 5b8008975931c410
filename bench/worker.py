"""Fresh process for one workload; started by run.py, not by hand.

The first statements are the program's own set-up: import ratiolab (which
imports numpy and builds the integrand presets) and build the CLI parser.
The process then writes "ready" on stdout; run.py times interpreter start
to that line as the set-up time. With ``--setup-only`` the process stops
there. Otherwise it imports the harness, measures the workload and writes
its result as one JSON line.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import ratiolab.cli

    ratiolab.cli.build_parser()
    print("ready", flush=True)

    if sys.argv[1:] != ["--setup-only"]:
        import json

        import harness

        print(json.dumps(harness.main(sys.argv[1:])), flush=True)
