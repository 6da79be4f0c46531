"""Process runtime shared by elastic training and the serving pool: the
worker supervisor and signal policy in :mod:`repro.runtime.supervisor`."""
