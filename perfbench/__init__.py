"""Host-time benchmark of the SPB simulator (see run.py)."""
