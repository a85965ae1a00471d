"""depbound's benchmark: seeded workloads, layer tracing and probes.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``run.py`` and ``README.md`` in this directory.
"""
