"""The SMACS reproduction's benchmark (run it with ``python3 smacsbench/run.py``)."""
