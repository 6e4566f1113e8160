"""Correctness tooling for the AdOC reproduction.

Two halves:

* **adoc check** — the static analyzer.  One pass parses each file
  once and runs the repo-specific single-file rules (condition-wait
  loops, notify under the lock, thread names, recorded thread errors,
  copy-free hot path, registered telemetry locks; ADOC100..ADOC109) and
  the whole-program proofs over a call graph: blocking under a lock
  (ADOC110), deadline-propagation (ADOC111), thread-lifecycle
  (ADOC112), static lock-order cycles (ADOC113), reactor-callback
  blocking (ADOC115), cross-module wire symmetry (ADOC107), and
  cross-validation against a runtime lockgraph export (ADOC114 notes).
  Run it with ``adoc check``; rules are documented in
  ``docs/LINTING.md`` and ``docs/ANALYSIS.md``.
* **lockgraph** — a runtime lock-order/deadlock detector enabled by
  ``REPRO_LOCKCHECK=1``; every lock-owning class in the tree creates
  its primitives through :func:`lockgraph.make_lock`/``make_condition`` so
  the whole test suite can run instrumented.  ``REPRO_LOCKCHECK_EXPORT``
  writes the observed graph as JSON for `adoc check --lockgraph`.
"""
