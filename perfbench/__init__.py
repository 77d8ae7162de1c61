"""The repository benchmark: four workloads over the public ``repro`` API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``BENCHMARK.json`` at the checkout root names the workloads
and metrics; ``perfbench/RECORD.md`` says what each metric measures,
whether it is host or simulated time, and which end-to-end metric each
per-layer metric is expected to move.
"""
