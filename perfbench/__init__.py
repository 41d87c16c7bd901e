"""The repository benchmark: fleet serving (in-process and over a socket)
and offline heuristic design, timed end to end and layer by layer.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
