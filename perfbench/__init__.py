"""Benchmark for panelbayes: end-to-end and per-layer timing of the CLI commands.

Run it from the repository root:

    python3 perfbench/run.py --workload fit-i100-late --seed 1 --seconds 20 --trace 0

See NOTES.md in this directory for the workloads, the metrics and why they
were chosen.
"""
