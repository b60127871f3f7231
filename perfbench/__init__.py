"""Wall-clock benchmark of the four execution modes and the auditor.

``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` says
what each workload loads and how the per-layer numbers map onto the
end-to-end ones.
"""
