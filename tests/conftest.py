"""Test-session set-up shared by every test module.

Training runs its per-scene work on several threads; a second OpenBLAS
thread per matmul only competes with them for the same cores.  This is set
before any test module imports numpy; an explicit setting wins.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
