"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports tugems, parses each config given on the command line, and builds
what the CLI builds from it (plant models, including the ``default_egu``
polyfit, grids and drive cycles, plus the eval cycles for ``eval:``
configs).  Prints ``ready`` and the system-wide monotonic clock when done,
so the parent can time interpreter start to that point.

    python3 setup_probe.py SRC_DIR learn:cfg.yaml eval:cfg.yaml ...
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, sys.argv[1])

from tugems.config import load_config  # noqa: E402

for arg in sys.argv[2:]:
    kind, path = arg.split(":", 1)
    config = load_config(path)
    config.build_models()
    config.build_grids()
    config.build_cycle()
    if kind == "eval":
        config.build_eval_cycles()
print("ready", time.monotonic(), flush=True)
