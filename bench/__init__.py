"""The served-path benchmark: four closed-loop workloads against a child server.

``python3 -m bench --workload W --seed S --seconds T --trace 0|1`` is the
contract entry point recorded in ``BENCHMARK.json``; ``bench/README.md``
explains the workloads, the metrics and the layer trace.
"""
