"""Serve PyraNet: curation, fine-tuning and evaluation as HTTP jobs.

Starts the persistent job service and blocks until interrupted::

    python examples/serve.py --port 8642 --workers 2 \
        --queue-dir .pyranet-service

Then drive it with curl (every endpoint speaks plain JSON)::

    # liveness + queue/metric snapshot
    curl -s localhost:8642/healthz

    # curate a dataset into a named store (returns {"job_id": ...})
    curl -s -X POST localhost:8642/jobs -d '{
        "type": "curate",
        "params": {"seed": 7, "store": "demo"},
        "idempotency_key": "curate-demo-7"}'

    # poll it, read its run report, then query the store
    curl -s localhost:8642/jobs/<job_id>
    curl -s localhost:8642/jobs/<job_id>/report
    curl -s localhost:8642/stores/demo/facets
    curl -s "localhost:8642/stores/demo/sample?n=3&layer=2"

    # evaluate a recipe trained on that store
    curl -s -X POST localhost:8642/jobs -d '{
        "type": "eval",
        "params": {"recipe": "architecture", "store": "demo",
                   "n_problems": 8},
        "idempotency_key": "eval-demo-7"}'

    # graceful stop: in-flight jobs finish, queue state is journaled
    curl -s -X POST localhost:8642/shutdown

The queue is crash-safe: kill this process however you like (including
``kill -9`` mid-curation) and restart it on the same ``--queue-dir`` —
interrupted jobs are re-queued and *resume* from their checkpoint
journals, landing byte-identical results.  Resubmitting a finished
idempotency key returns the finished job instead of re-running it.

On SIGINT/SIGTERM the service drains in-flight jobs and journals a
clean shutdown before exiting.
"""

import signal
import sys
import threading

import _cli
from repro.obs import Observability
from repro.service import PyraNetService, serve


def main() -> None:
    parser = _cli.add_service_flags(_cli.build_parser(
        "Serve PyraNet curation/finetune/eval as HTTP jobs"))
    args = parser.parse_args()
    _cli.note_unused_store(args)
    _cli.note_unused_cache(args)

    # Always live (never the no-op handle): /healthz and /report serve
    # these metrics, traced or not.
    obs = Observability()
    service = PyraNetService(
        args.queue_dir,
        n_workers=args.workers or 2,
        obs=obs,
        resilience=_cli.resilience_from(args, obs=obs),
        executor=_cli.executor_from(args),
    )
    server = serve(service, host=args.host, port=args.port)

    stopping = threading.Event()

    def _graceful(signum, frame) -> None:
        if stopping.is_set():  # second signal: exit hard
            sys.exit(1)
        stopping.set()
        print(f"\nsignal {signum}: draining in-flight jobs…", flush=True)
        # Stop from a helper thread: server.shutdown() must not be
        # called from the serve_forever thread it is stopping.
        threading.Thread(target=_stop, daemon=True).start()

    def _stop() -> None:
        service.stop(reason="signal")
        server.shutdown()

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)

    # The E2E test (and shell scripts) parse this line for the port.
    print(f"pyranet service listening on http://{args.host}:{server.port}",
          flush=True)
    print(f"service root: {args.queue_dir} "
          f"(workers={service.pool.n_workers})", flush=True)
    counts = service.queue.counts()
    if sum(counts.values()):
        print(f"resumed queue: {counts}", flush=True)
    try:
        server.serve_forever()
    finally:
        if not stopping.is_set():
            service.stop(reason="exit")
        server.server_close()
        counts = service.queue.counts()
        print(f"stopped; queue journaled: {counts}", flush=True)
        _cli.write_report(args, {"queue": counts,
                                 "port": server.port})
        _cli.write_trace(args, obs, example="serve")


if __name__ == "__main__":
    main()
