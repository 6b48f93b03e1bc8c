"""The repo's one performance harness: six named workloads, one ruler.

Every layer is measured from outside -- by timing calls into its public
functions and, in the traced pass, by class-method timing wrappers this
package installs and removes itself.  Nothing under ``src/`` knows the
harness exists.

* ``run.py`` -- one workload, one process, one JSON result line (the
  ``BENCHMARK.json`` command).
* ``__main__.py`` -- ``python -m benchmarks.harness run | compare``: all six
  workloads (each in its own child process) and the regression check between
  two such runs.
* ``spec.py`` -- ``BENCHMARK.json`` loading, the ``ref12`` grid, workload
  parameters, the workload-specific metric table.
* ``workloads.py`` -- the six workloads (set-up / round / verify / teardown).
* ``layers.py`` -- per-layer metrics: span arithmetic plus direct probes.
* ``spans.py`` -- the in-memory span recorder and its wrappers.
* ``measure.py`` -- the run shape: set-up samples, warm-up, timed rounds.

See ``README.md`` in this directory for the workloads, the metric tables and
the first layer profile.
"""
