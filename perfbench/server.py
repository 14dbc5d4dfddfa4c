"""The serve-mix server process: ``repro.serve`` over one corpus store.

Run by the benchmark, not by hand::

    python perfbench/server.py --store STORE --seed N [--trace-out FILE]

Prints ``ready <port>`` once it listens.  Then it reads commands from
standard input, one a line:

* ``trace`` - install the layer shims of :mod:`layers` and swap the
  store lock for a timed one, then answer ``tracing``.  The client sends
  it only while no request is in flight.
* end of input - shut down gracefully; with ``--trace-out``, write the
  layer totals there as JSON first.  Last, print ``peak_rss_kb <n>``,
  this process's peak resident set.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import ExitStack
from pathlib import Path

import layers

from repro.serve import ServerHandle, build_context


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    ctx = build_context(
        store_path=args.store, seed=args.seed, job_workers=1, queue_size=2
    )
    trace = layers.LayerTrace()
    with ExitStack() as stack:
        handle = stack.enter_context(ServerHandle(ctx, workers=4))
        print(f"ready {handle.port}", flush=True)
        for line in sys.stdin:
            if line.strip() == "trace":
                stack.enter_context(layers.tracing(trace))
                ctx.store_lock = layers.TimedLock(trace, "serve.store_lock")
                print("tracing", flush=True)
    ctx.store.close()
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(trace.to_dict()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak_rss_kb {peak}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
