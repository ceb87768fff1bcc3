"""One campaign in one fresh process; prints one JSON line with what it measured.

Started by ``run.py``; not meant to be run by hand. Modes:

- ``campaign``: set up, run the campaign with only the boundary meter on,
  score the verdicts. Gives every end-to-end metric.
- ``setup``: set up and stop at the first packet. Gives one more ``setup_s``.
- ``traced``: like ``campaign`` with every layer wrapped by the tracer.

``--spawned-ns`` is the parent's ``time.monotonic_ns()`` just before the
process was started; ``setup_s`` runs from there to the first packet, so it
includes interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.meter import ExecuteMeter, SetupDone, peak_rss_kb  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Score  # noqa: E402


def run(args: argparse.Namespace) -> dict:
    meter = ExecuteMeter(stop_at_first_packet=args.mode == "setup")
    meter.install()
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()

    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    workload = cls(seed, args.scale)
    workload.setup(Path(args.workdir))

    error = None
    t0 = time.perf_counter()
    try:
        result = workload.campaign()
    except SetupDone:
        result = None
    except Exception:  # a campaign crash is a measured failure, not a harness error
        error = traceback.format_exc()
        result = None
    wall_s = time.perf_counter() - t0

    out = {
        "mode": args.mode,
        "workload": args.workload,
        "seed": seed,
        "params": workload.params,
        "setup_s": None if meter.first_packet_ns is None
        else (meter.first_packet_ns - args.spawned_ns) / 1e9,
    }
    if args.mode == "setup":
        return out

    if error is None:
        score = workload.score(result)
        digest = workload.digest(result)
    else:
        print(error, file=sys.stderr)
        units = workload.units()
        score = Score(units, units, False, {"error": error.strip().splitlines()[-1]})
        digest = None
    peak = peak_rss_kb()
    out.update({
        "wall_s": wall_s,
        "bursts_ms": [ns / 1e6 for ns in meter.bursts_ns],
        "peak_rss_kb": peak,
        "setup_rss_kb": meter.setup_rss_kb if meter.setup_rss_kb is not None else peak,
        "totals": meter.totals(),
        "units": score.units,
        "fails": score.fails,
        "gate_ok": score.gate_ok,
        "gate_detail": score.detail,
        "digest": digest,
    })
    if tracer is not None:
        out["limiter_calls"] = tracer.limiter_counts()
        out["layers"] = tracer.metrics(out["totals"])
        if args.spans:
            tracer.write_spans(Path(args.spans))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--mode", choices=["campaign", "setup", "traced"],
                        default="campaign")
    parser.add_argument("--spawned-ns", type=int, default=time.monotonic_ns())
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
