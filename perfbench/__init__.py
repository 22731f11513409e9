"""End-to-end benchmark of the repro sampling pipeline.

Drives the real :class:`repro.harness.ExperimentRunner` from outside
through its public functions; see ``perfbench/README.md`` for the
workloads, the metrics and how to run it.
"""
