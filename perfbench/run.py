"""Benchmark entry point.

    python3 perfbench/run.py --workload mine-batch --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Builds its inputs from ``--seed``,
measures for ``--seconds``, checks the outputs, prints a details
line and, as the last line, the JSON result.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--reference`` re-derives the mine-batch reference digest.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK_ROOT, add_paths  # noqa: E402

WORKLOADS = ("mine-batch", "stream-e2e", "serve-read")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    add_paths()
    if args.reference:
        import mine_batch

        mine_batch.reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    tracing = bool(args.trace)
    if args.workload == "mine-batch":
        import mine_batch

        mine_batch.run(args.seed, args.seconds, tracing)
        return 0
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if args.workload == "stream-e2e":
            import stream_e2e

            stream_e2e.run(args.seed, args.seconds, tracing, workdir)
        else:
            import serve_read

            serve_read.run(args.seed, args.seconds, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
