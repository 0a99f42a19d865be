"""Time one fresh-process set-up: import affmech and build every model a workload uses.

Usage: ``python3 perfbench/setup_probe.py MODEL...`` where each MODEL is a
builtin name or a model-file path.  For each model it builds the bundle and
its bidual, vertical and prolongation charts.  Prints one JSON object with
``setup_s``, the seconds from before the import to the last chart.
"""

import json
import sys
import time

from checkout import use_checkout_src


def main(specs: list[str]) -> float:
    start = time.perf_counter()
    use_checkout_src()
    from affmech import models
    from affmech.modelfile import load_model

    for spec in specs:
        bundle = load_model(spec) if spec.endswith(".model") else models.by_name(spec)
        bundle.chart.bidual_chart()
        bundle.chart.vertical_chart()
        bundle.chart.prolongation()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1:])}))
