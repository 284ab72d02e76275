"""Outside-in benchmark of the default serving stack.

``python3 perfbench/run.py --workload {online,bulk,local-cpu} --seed N
--seconds S --trace {0,1}`` stands up the stack that ``repro serve`` builds
by default, drives one seeded workload against it from outside, checks the
answers and prints one JSON result line (see ``run.py``).  Nothing here is
imported by the program under test: every span is recorded by wrappers the
benchmark installs around the layers' public methods (``stack.py``).
"""
