"""Set-up probe: a fresh interpreter imports refgame and loads one
workload's inputs, then exits. run.py times whole probe processes.

Usage: probe.py WORKLOAD INPUT_DIR OUT_DIR (src must be on PYTHONPATH)
"""

import sys
from pathlib import Path

import synth
import workloads

workload, input_dir, out_dir = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
if workload == "pipeline-cli":
    workloads.load_pipeline_inputs()
else:
    paths = {name: input_dir / filename for name, filename in synth.FILES.items()}
    workloads.load_inputs(paths, out_dir, records=workload == "evaluate")
