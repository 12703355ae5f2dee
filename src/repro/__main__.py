"""``python -m repro`` — top-level command dispatch.

The subcommand registry lives in :data:`repro.cli.SUBCOMMANDS`; the
usage text below renders from it, so the dispatcher, the ``--help``
epilog and the tests can never disagree about what exists.

* ``study`` — run the full study and save the dataset (delegates to
  :mod:`repro.study.runner`; checkpointed, resumable, shardable over
  worker processes; an ``OUTPUT`` ending in ``.v3`` is written as a
  binary columnar dataset);
* ``dataset`` — convert between the JSON ``perf-dataset-v2`` family
  and the binary columnar ``perf-dataset-v3``, inspect headers, and
  run full checksum verification (:mod:`repro.store.cli`);
* ``report`` — regenerate paper tables/figures
  (:mod:`repro.experiments.report`);
* ``index`` — compile a ``strategy-index-v1`` artifact from a dataset
  (:mod:`repro.serve.index`), the input of ``serve``;
  ``--portfolios`` additionally compiles the greedy K-vs-coverage
  portfolio table backing ``GET /v1/portfolio``;
* ``portfolio`` — the "few fit most" analysis offline: greedy
  K-vs-coverage configuration portfolios per lattice level
  (:mod:`repro.core.portfolio`);
* ``search`` — replay budgeted search strategies (random, lattice
  local search, successive halving) against a dataset's exhaustive
  oracle and report fraction-of-oracle at each budget
  (:mod:`repro.core.search_eval`);
* ``serve`` — answer strategy/prediction queries over an asyncio HTTP
  JSON API (:mod:`repro.serve.server`): pre-serialized zero-encode
  strategy answers, ``--workers N`` SO_REUSEPORT scale-out with merged
  per-worker metrics, and micro-batched predict pricing; SIGTERM/SIGINT
  drain in-flight requests (all workers) and exit 0;
* ``profile`` — render a RunReport artifact (written by any
  subcommand's ``--metrics PATH``) as a human-readable summary
  (:mod:`repro.obs.report`);
* ``doctor`` — diagnose a dataset file or checkpoint directory
  (:mod:`repro.study.doctor`; exits non-zero on unusable state);
* ``validate`` — run every application against its oracle on small
  instances of the three input classes.
"""

from __future__ import annotations

import sys

from .cli import subcommand_epilog

__all__ = ["main"]

_USAGE = f"""usage: python -m repro <command> [args]

{subcommand_epilog()}
"""


def _validate() -> int:
    from .apps.registry import all_applications
    from .graphs.inputs import study_inputs

    inputs = study_inputs(scale=0.05)
    failures = 0
    for inp in inputs.values():
        for app in all_applications():
            if app.requires_weights and not inp.graph.has_weights:
                continue
            ok = app.validate(inp.graph, source=0)
            print(f"{app.name:14s} on {inp.name:12s}: {'ok' if ok else 'FAIL'}")
            failures += not ok
    print(f"\n{failures} failures")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "study":
        from .study import runner

        sys.argv = ["repro-study"] + rest
        runner.main()
        return 0
    if command == "dataset":
        from .store.cli import main as dataset_main

        return dataset_main(rest)
    if command == "report":
        from .experiments.report import main as report_main

        return report_main(rest)
    if command == "index":
        from .serve.index import main as index_main

        return index_main(rest)
    if command == "portfolio":
        from .core.portfolio import main as portfolio_main

        return portfolio_main(rest)
    if command == "search":
        from .core.search_eval import main as search_main

        return search_main(rest)
    if command == "serve":
        from .serve.server import main as serve_main

        return serve_main(rest)
    if command == "profile":
        from .obs.report import main as profile_main

        return profile_main(rest)
    if command == "doctor":
        from .study.doctor import main as doctor_main

        return doctor_main(rest)
    if command == "validate":
        return _validate()
    print(f"unknown command {command!r}", file=sys.stderr)
    print(_USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
