"""Benchmark of ``Picasso.color`` end to end and layer by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
:mod:`perfbench.run` for the measurement protocol.
"""
