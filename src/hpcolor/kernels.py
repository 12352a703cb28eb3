# Read only by the benchmark header (`perfbench/run.py`); the orientation
# predicate itself is `geometry.orientation`.
ACTIVE = "python"
