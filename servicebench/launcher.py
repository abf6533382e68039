"""Start ``repro.service.http`` in this process, optionally traced.

    python servicebench/launcher.py [--trace-out FILE] -- <repro.serve args>

With ``--trace-out``, benchmark-owned wrappers are set around each
layer's public entry points before the server is built: nothing under
``src/`` changes.  Spans stay in memory and are written to FILE when the
server stops on SIGTERM.  The traced server also turns on the engine's
``profile_expansion`` stage timers.  Without ``--trace-out`` the server
runs exactly as ``python -m repro.serve`` would.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import time
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import Span, Tracer  # noqa: E402

_RESULT_CACHE = "_servicebench_result_cache"


def _wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    after: Callable[[Span, tuple, Any], None] | None = None,
    when: Callable[[tuple], bool] | None = None,
) -> None:
    """Replace ``owner.attr`` with a version that records a span named
    ``name`` around each call (``when`` filters calls by arguments;
    ``after`` reads the result into the span's attributes)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if when is not None and not when(args):
            return original(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = getattr(exc, "reason", type(exc).__name__)
            raise
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, result)
        return result

    setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's entry points (the layers metrics.py
    names)."""
    from repro.core import columnar, matcher
    from repro.core.config import CuTSConfig
    from repro.service import (
        cache,
        dispatcher,
        http,
        registry,
        scheduler,
        service,
        state,
    )
    from repro.versioning import incremental

    # http: one span per request, tagged with the client's request id
    # (the idempotency key the benchmark sets on every /match).
    handler = http._Handler
    for verb in ("do_GET", "do_POST"):
        _wrap(tracer, handler, verb, "http.handler")
    read_body = handler._read_body

    @functools.wraps(read_body)
    def tagged_read_body(self: Any) -> dict[str, Any]:
        body = read_body(self)
        span = tracer.current
        if span is not None:
            span.rid = body.get("idempotency_key")
            span.attrs["path"] = self.path
        return body

    handler._read_body = tagged_read_body
    send_json = handler._send_json

    @functools.wraps(send_json)
    def stamped_send_json(self: Any, *args: Any, **kwargs: Any) -> None:
        # When the reply starts to go out: the handler's end for
        # transport arithmetic (the client may finish reading before
        # this thread runs again to close its span).
        span = tracer.current
        if span is not None:
            span.attrs["respond"] = time.perf_counter()
        send_json(self, *args, **kwargs)

    handler._send_json = stamped_send_json
    setup = handler.setup

    @functools.wraps(setup)
    def counted_setup(self: Any) -> None:
        now = time.perf_counter()
        tracer.record("http.connection", now, now)
        setup(self)

    handler.setup = counted_setup

    # fingerprint: the module-level name each caller bound at import.
    for module in (service, registry):
        original = module.graph_fingerprint

        def traced_fp(graph: Any, _original: Any = original) -> str:
            with tracer.span("fingerprint"):
                return _original(graph)

        module.graph_fingerprint = traced_fp

    # scheduler: submit -> pop_batch is the queue wait of each request;
    # the dispatcher span takes the request id of its batch's head.
    submitted: dict[str, tuple[float, str | None]] = {}
    job_rid: dict[str, str | None] = {}
    sched = scheduler.Scheduler

    def after_submit(span: Span, args: tuple, _result: Any) -> None:
        job_id = args[1].job_id
        submitted[job_id] = (span.end, span.rid)
        job_rid[job_id] = span.rid
        span.attrs["depth"] = args[0].depth

    _wrap(tracer, sched, "submit", "scheduler.submit", after=after_submit)
    pop_batch = sched.pop_batch

    @functools.wraps(pop_batch)
    def traced_pop_batch(self: Any, *args: Any, **kwargs: Any) -> Any:
        batch, dead = pop_batch(self, *args, **kwargs)
        now = time.perf_counter()
        for request in batch:
            start, rid = submitted.pop(request.job_id, (now, None))
            tracer.record("scheduler.queue_wait", start, now, rid=rid)
        for request in dead:
            submitted.pop(request.job_id, None)
            job_rid.pop(request.job_id, None)
        return batch, dead

    sched.pop_batch = traced_pop_batch
    dispatch = dispatcher.Dispatcher.dispatch

    @functools.wraps(dispatch)
    def traced_dispatch(self: Any, handle: Any, batch: list) -> Any:
        rids = [job_rid.pop(r.job_id, None) for r in batch]
        with tracer.span("dispatcher.dispatch", rid=rids[0]) as span:
            span.attrs["size"] = len(batch)
            return dispatch(self, handle, batch)

    dispatcher.Dispatcher.dispatch = traced_dispatch

    # cache: the result cache only (the plan cache shares the class).
    svc_init = service.MatchingService.__init__

    @functools.wraps(svc_init)
    def tagging_init(self: Any, *args: Any, **kwargs: Any) -> None:
        svc_init(self, *args, **kwargs)
        setattr(self.result_cache, _RESULT_CACHE, True)

    service.MatchingService.__init__ = tagging_init
    _wrap(tracer, service.MatchingService, "wait", "service.wait")

    def is_result(args: tuple) -> bool:
        return getattr(args[0], _RESULT_CACHE, False)

    def after_get(span: Span, _args: tuple, result: Any) -> None:
        span.attrs["hit"] = result is not None

    lru = cache.LRUBytesCache
    _wrap(tracer, lru, "get", "cache.get", after=after_get, when=is_result)
    _wrap(tracer, lru, "put", "cache.put", when=is_result)
    _wrap(tracer, lru, "promote", "cache.promote", when=is_result)

    # registry, overlay, versioning, state.
    reg = registry.GraphRegistry
    _wrap(tracer, reg, "register", "registry.register")
    _wrap(tracer, reg, "mutate_edges", "registry.commit")
    for module in (registry, incremental):
        _wrap(tracer, module, "spliced_graph", "overlay.splice")
    _wrap(tracer, incremental, "incremental_match", "versioning.incremental")
    st = state.ServiceState
    _wrap(tracer, st, "append_version", "state.append_version")

    def after_record(span: Span, args: tuple, _result: Any) -> None:
        span.attrs["jobs"] = len(args[1])

    _wrap(tracer, st, "record_jobs", "state.record_jobs", after=after_record)

    # engine and columnar kernels.
    def after_match(span: Span, _args: tuple, result: Any) -> None:
        stats = result.stats
        span.attrs.update(
            paths=int(sum(stats.paths_per_depth)),
            chunks=int(stats.chunks_processed),
            intersections_c=int(stats.intersection_calls.get("c", 0)),
            intersections_p=int(stats.intersection_calls.get("p", 0)),
            peak_frontier=int(stats.peak_frontier),
            chunk_halvings=int(stats.chunk_halvings),
            spilled_chunks=int(stats.spilled_chunks),
            stages=dict(stats.stage_wall_s),
            modeled_ms=float(result.time_ms),
        )

    _wrap(tracer, matcher.CuTSMatcher, "match", "engine.match",
          after=after_match)
    _wrap(tracer, columnar.ColumnarEngine, "extend", "columnar.extend")

    # The engine's own per-stage timers, on in the traced server only.
    http.CuTSConfig = functools.partial(CuTSConfig, profile_expansion=True)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = Tracer()
    if trace_out is not None:
        install(tracer)

    def stop(_signum: int, _frame: object) -> None:
        raise KeyboardInterrupt

    # repro.service.http.main closes the server and the service on
    # KeyboardInterrupt, so SIGTERM is a clean shutdown.
    signal.signal(signal.SIGTERM, stop)
    from repro.service.http import main as serve_main

    code = serve_main(argv)
    if trace_out is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
