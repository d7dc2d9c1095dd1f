"""The repo's end-to-end benchmark: four workloads, timed from outside.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is one measured run (the contract ``BENCHMARK.json`` describes);
``python -m benchmarks.e2e`` runs every workload K times in fresh
processes and prints every metric. See ``README.md`` beside this file.
"""
