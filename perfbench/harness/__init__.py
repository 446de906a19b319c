"""End-to-end benchmark harness for AEDB-MLS tuning and campaign grids.

Modules:

* :mod:`harness.spans` -- the in-memory span tracer, per-PID span files
  for forked workers, self time and the percentile rule;
* :mod:`harness.layers` -- wraps each layer's public functions with
  spans (traced pass only) and turns the merged trace into the
  per-layer table;
* :mod:`harness.workloads` -- seed -> inputs, one timed repetition of
  each workload, and the output checks;
* :mod:`harness.env` -- building ``_evcore`` into the benchmark's build
  directory, the host/revision record, and process measurements.

See ``perfbench/README.md`` for what each workload is for.
"""
