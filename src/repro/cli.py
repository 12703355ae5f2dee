"""Shared CLI plumbing for the ``python -m repro`` subcommands.

Every subcommand that can emit an observability artifact takes the
same ``--metrics PATH`` option.  Rather than each subcommand declaring
(and slowly diverging on) its own copy, :func:`metrics_parent` builds
the one shared `argparse parent parser`_ that ``study``, ``report``,
``profile``, ``index`` and ``serve`` all include via ``parents=[...]``,
and :func:`save_run_report` is the one way a recorder becomes a
:class:`~repro.obs.report.RunReport` artifact on disk.

:data:`SUBCOMMANDS` is the single registry of subcommands — the
top-level dispatcher, its usage epilog and the tests all read it, so a
new subcommand shows up everywhere by adding one row here.

.. _argparse parent parser:
   https://docs.python.org/3/library/argparse.html#parents
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Tuple

__all__ = [
    "SUBCOMMANDS",
    "metrics_parent",
    "save_run_report",
    "subcommand_epilog",
]

#: (name, argument synopsis, one-line summary) of every subcommand, in
#: presentation order.  The dispatcher in :mod:`repro.__main__` routes
#: exactly these names; the usage epilog renders from this table.
SUBCOMMANDS: List[Tuple[str, str, str]] = [
    (
        "study",
        "OUTPUT [--scale S] [--repetitions N] [--jobs N] [--engine E]\n"
        "        [--resume] [--checkpoint DIR] [--retries N]\n"
        "        [--shard-timeout S] [--metrics PATH]",
        "run the full study (checkpointed; resumable)",
    ),
    (
        "dataset",
        "{convert IN OUT [--format F] | info PATH [--json] | verify PATH}",
        "convert/inspect/verify dataset files (v2 JSON, v3 columnar)",
    ),
    (
        "report",
        "[EXPERIMENT ...] [--min-coverage F] [--metrics PATH]",
        "regenerate tables/figures",
    ),
    (
        "index",
        "DATASET OUTPUT [--min-coverage F] [--portfolios]\n"
        "        [--metrics PATH]",
        "compile a strategy-index artifact from a dataset",
    ),
    (
        "portfolio",
        "DATASET [--target F] [--k-max N] [--min-coverage F]\n"
        "        [--output PATH] [--metrics PATH]",
        "greedy K-vs-coverage configuration portfolios",
    ),
    (
        "search",
        "DATASET [--strategy S] [--budget N ...] [--seed N]\n"
        "        [--trials N] [--by DIM] [--min-coverage F]\n"
        "        [--metrics PATH]",
        "replay budgeted search strategies against the oracle",
    ),
    (
        "serve",
        "INDEX [--host H] [--port P] [--workers N]\n"
        "        [--max-concurrency N] [--timeout S] [--no-predict]\n"
        "        [--predict-window-ms MS]\n"
        "        [--predict-max-batch N] [--predict-flush-timeout S]\n"
        "        [--max-restarts N] [--restart-backoff S]\n"
        "        [--heartbeat-interval S] [--admin-port P]\n"
        "        [--admission-depth N] [--admission-predict-depth N]\n"
        "        [--latency-watermark-ms MS] [--breaker-threshold N]\n"
        "        [--breaker-reset S] [--faults DIR] [--metrics PATH]",
        "serve strategy queries over HTTP (async JSON API)",
    ),
    (
        "profile",
        "REPORT.json [--spans N] [--metrics PATH]",
        "render a study run report",
    ),
    (
        "doctor",
        "PATH [--fingerprint HEX] [--export DATASET]",
        "diagnose a dataset, checkpoint dir, or run report",
    ),
    (
        "validate",
        "",
        "oracle-check all applications",
    ),
]


def metrics_parent() -> argparse.ArgumentParser:
    """The shared ``--metrics PATH`` parent parser.

    Include it via ``argparse.ArgumentParser(parents=[metrics_parent()])``
    so every subcommand spells the option identically.  The parser is
    built fresh per call (argparse parents must not be reused across
    parsers that might mutate them).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "write a RunReport JSON artifact (counters, spans, "
            "histograms) to PATH; render it with "
            "`python -m repro profile PATH`"
        ),
    )
    return parent


def subcommand_epilog() -> str:
    """The ``commands:`` epilog listing every subcommand."""
    lines = ["commands:"]
    for name, synopsis, summary in SUBCOMMANDS:
        first, *rest = (synopsis or "").split("\n")
        head = f"  {name} {first}".rstrip()
        if len(head) <= 45:
            lines.append(f"{head:45s} {summary}")
        else:
            lines.append(head)
            lines.append(f"{'':45s} {summary}")
        lines.extend(f"  {cont}" for cont in rest)
    return "\n".join(lines)


def save_run_report(recorder, path: str, meta: Optional[dict] = None):
    """Persist ``recorder``'s state as a RunReport artifact at ``path``.

    Returns the saved :class:`~repro.obs.report.RunReport` so callers
    can additionally render it.
    """
    from .obs import RunReport

    report = RunReport.from_recorder(recorder, meta=meta)
    report.save(path)
    return report
