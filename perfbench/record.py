"""Record the accuracy of every scenario in perfbench/reference.json.

    python3 perfbench/record.py

Run it from the root of a checkout whose numerics are trusted. The benchmark
then fails any run of train_corridor24 or forecast_bay300 whose accuracy
moves from the recorded value by more than workloads.REFERENCE_RTOL.
"""

from __future__ import annotations

import json
import os
import shutil

import run  # pins BLAS/OpenMP threads before numpy loads


def main() -> None:
    fc = run.import_flowcast()
    import workloads as wl

    recorded = {}
    for cls in (wl.TrainCorridor, wl.ForecastBay):
        values = recorded[cls.name] = {}
        for scenario in range(wl.SCENARIOS):
            workdir = run.ROOT / ".perfbench" / f"record-{cls.name}-{scenario}-pid{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                workload = cls(fc, workdir, scenario)
                workload.setup()
                values[str(scenario)] = workload.reference_value()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(cls.name, scenario, values[str(scenario)], flush=True)
    wl.REFERENCE_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")


if __name__ == "__main__":
    main()
