"""Command-line entrypoints: ``python -m repro.service <subcommand>``.

Four subcommands mirror the roles of the service (see the package
docstring for a full walkthrough):

* ``scheduler`` -- run a scheduler in the foreground until interrupted.
* ``worker``    -- run a worker pull loop against a scheduler.
* ``submit``    -- submit one registered study from the shell and wait for
  the merged result (the way the litex rowhammer scripts drive a board
  server through a remote client).
* ``status``    -- print the scheduler's live telemetry snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Optional


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="scheduler host")
    parser.add_argument("--port", type=int, default=7075, help="scheduler port")


def _cmd_scheduler(args: argparse.Namespace) -> int:
    from repro.service.scheduler import SchedulerServer

    server = SchedulerServer(
        args.host,
        args.port,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
    )

    async def main() -> None:
        host, port = await server.start()
        print(f"repro.service scheduler listening on {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("scheduler stopped", flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import ServiceWorker

    worker = ServiceWorker(
        args.host,
        args.port,
        name=args.name,
        batch_size=args.batch,
    )
    print(f"worker {worker.name} pulling from {args.host}:{args.port}", flush=True)
    try:
        done = worker.run()
    except KeyboardInterrupt:
        done = worker.units_done
    print(f"worker {worker.name} exiting after {done} unit(s)", flush=True)
    return 0


def _build_config(study_name: str, config_json: Optional[str]) -> Any:
    from repro.experiments import get_study

    spec = get_study(study_name)
    if not config_json:
        return spec.default_config()
    kwargs = json.loads(config_json)
    if not isinstance(kwargs, dict):
        raise SystemExit("--config-json must hold a JSON object of config fields")
    if spec.config_cls is None:
        raise SystemExit(f"study {study_name!r} takes no config")
    # JSON arrays arrive as lists; frozen configs use tuples for sequence
    # fields (hashability), so convert at the boundary.
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in kwargs.items()
    }
    return spec.config_cls(**kwargs)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSession, ResultStore, get_study
    from repro.experiments.remote import ServiceExecutor

    spec = get_study(args.study)
    config = _build_config(args.study, args.config_json)
    population = None
    if spec.requires_chip:
        if not args.table1_chips:
            raise SystemExit(
                f"study {args.study!r} runs per chip; pass --table1-chips N to "
                "build a Table 1 population"
            )
    if args.table1_chips:
        from repro.dram.population import make_population

        population = make_population(chips_per_config=args.table1_chips, seed=args.seed)
    session = ExperimentSession(
        population=population,
        executor=ServiceExecutor(args.host, args.port, label=args.study),
        store=ResultStore(args.store) if args.store else None,
    )
    outcome = session.run(args.study, config)
    print(
        json.dumps(
            {
                "study": outcome.study,
                "results": len(outcome.results),
                "units_total": outcome.units_total,
                "cache_hits": outcome.cache_hits,
                "executed": outcome.executed,
                "retries": outcome.retries,
                "requeues": outcome.requeues,
                "elapsed_s": round(outcome.elapsed_s, 3),
            },
            indent=2,
        ),
        flush=True,
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import fetch_status

    status = fetch_status(args.host, args.port)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counters = status.get("counters", {})
    throughput = status.get("throughput", {})
    print(f"scheduler {status['address'][0]}:{status['address'][1]}")
    print(
        f"  uptime {status['uptime_s']:.1f}s · lease_ttl {status['lease_ttl']}s · "
        f"max_attempts {status['max_attempts']}"
    )
    print(
        "  units: "
        + " ".join(f"{state}={count}" for state, count in status["unit_states"].items())
    )
    print(
        f"  completed {counters.get('units_completed', 0)} · "
        f"requeued {counters.get('units_requeued', 0)} · "
        f"quarantined {counters.get('units_quarantined', 0)} · "
        f"duplicates {counters.get('duplicate_completions', 0)}"
    )
    overall = throughput.get("overall_units_per_s")
    recent = throughput.get("recent_units_per_s")
    print(
        f"  throughput: overall {overall:.2f}/s"
        + (f" · recent {recent:.2f}/s" if recent is not None else "")
    )
    for submission in status.get("submissions", []):
        print(
            f"  study {submission['label']!r} [{submission['id']}]: "
            f"{submission['completed']}/{submission['total']} done, "
            f"{submission['leased']} leased, "
            f"{submission['quarantined']} quarantined, "
            f"{submission['retried_units']} retried"
        )
    for name, view in status.get("workers", {}).items():
        print(
            f"  worker {name}: {view['state']}, "
            f"{view['units_completed']} completed, "
            f"last seen {view['last_seen_s_ago']:.1f}s ago"
        )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Distributed experiment service for repro studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scheduler = sub.add_parser("scheduler", help="run a scheduler")
    _add_endpoint_args(scheduler)
    scheduler.add_argument("--lease-ttl", type=float, default=15.0)
    scheduler.add_argument("--max-attempts", type=int, default=3)
    scheduler.add_argument("--backoff-base", type=float, default=0.25)
    scheduler.add_argument("--backoff-cap", type=float, default=10.0)
    scheduler.set_defaults(fn=_cmd_scheduler)

    worker = sub.add_parser("worker", help="run a worker pull loop")
    _add_endpoint_args(worker)
    worker.add_argument("--name", default=None)
    worker.add_argument("--batch", type=int, default=2, help="units per lease")
    worker.set_defaults(fn=_cmd_worker)

    submit = sub.add_parser("submit", help="submit a registered study")
    _add_endpoint_args(submit)
    submit.add_argument("--study", required=True)
    submit.add_argument("--config-json", default=None)
    submit.add_argument(
        "--seed", type=int, default=0, help="seed of the --table1-chips population"
    )
    submit.add_argument("--store", default=None, help="client-side result store dir")
    submit.add_argument(
        "--table1-chips", type=int, default=0, help="chips per Table 1 config"
    )
    submit.set_defaults(fn=_cmd_submit)

    status = sub.add_parser("status", help="print scheduler telemetry")
    _add_endpoint_args(status)
    status.add_argument("--json", action="store_true")
    status.set_defaults(fn=_cmd_status)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
