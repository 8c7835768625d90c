"""refgame benchmark: one command for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; nothing needs installing. The
program is imported from the checkout's ``src`` and run as
``python -m refgame`` with that ``src`` on PYTHONPATH.

Workloads (see BENCHMARK.json for why each exists):
  search-exp4   monte_carlo_search + filter_candidates, exp4 preset, 300x150 lexicon
  search-exp1   the same with the exp1 preset (5x8, four literal metrics)
  evaluate      score_responses, simulate_gameplay, model_agreement,
                metric_rank_correlation and confidence_ttest on the same lexicon
  pipeline-cli  the golden ingest -> normalize -> oed -> simulate pipeline as
                CLI processes, byte-compared with tests/data/golden/expected

Inputs come from synth.py and the seed. A round is a fixed unit of work;
rounds repeat until --seconds have passed and metrics are medians over
rounds. Set-up is timed apart, as the median of fresh interpreters that
import refgame and load the inputs. Timings are seconds at a reference
machine speed: the host's speed is sampled during every timed operation
(only before and after it in the traced run, so that no sample falls
inside a span) and the raw seconds are scaled by it (speed.py); the
printout gives the run's speed_factor, raw = scaled / speed_factor.

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json,
then extras that apply to one workload only (records_per_s,
gameplay_scenarios_per_s, cli_start_s) and failed_frac. With --trace 1 it
alternates plain and traced rounds and prints the per-layer metrics
(spans.py). Every round's output is checked, and one reference output is
compared with its digest in digests.json; a raised DataError, a nonzero
exit or a wrong output counts as a failed operation. The last line of
stdout is the JSON result; a copy of each result, with the environment
and generator settings, goes to .bench_work/results/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search-exp4", "search-exp1", "evaluate", "pipeline-cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="refgame benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    required = ("src/refgame/__init__.py", "tests/data/golden", "BENCHMARK.json")
    missing = [name for name in required if not (ROOT / name).exists()]
    if missing:
        print(f"error: not a refgame checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # one process, no worker threads; set before numpy is imported
    os.environ.pop("REFGAME_THREADS", None)
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
