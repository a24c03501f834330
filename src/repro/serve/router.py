"""Shard routing: one HTTP endpoint over many shard-owning worker processes.

:class:`RouterHTTPServer` is a thin HTTP proxy that routes
``/recommend`` and ``/score`` to the worker process owning the user's
shard (``ShardMap.worker_for_user``, the arithmetic of
:mod:`repro.serve.sharding`) over keep-alive upstream connections, and
aggregates ``/health`` / ``/stats`` across workers.  The workers behind
it come from :mod:`repro.serve.pool`: each runs one
:class:`~repro.serve.service.RecommenderService` with
``shards=(owned, n_shards)``, which answers a misrouted user with a 421
rather than a wrong ranking.  Routing stays outside the scoring path.

The router holds no model state: it never loads arrays, so it stays
cheap, and a worker crash surfaces as a 502 on that worker's shards
rather than taking the whole endpoint down.
"""

from __future__ import annotations

import http.client
import json
import threading

from ..utils import get_logger
from .errors import BadRequestError, ServeError
from .http import JSONHTTPServer, JSONRequestHandler, _parse_int
from .sharding import ShardMap

__all__ = ["RouterHTTPServer", "create_router"]

logger = get_logger("repro.serve.router")


# ----------------------------------------------------------------------
# HTTP shard router (the front of a multi-process worker pool)
# ----------------------------------------------------------------------
class RouterHTTPServer(JSONHTTPServer):
    """Route requests to shard-owning worker endpoints, keep-alive upstream.

    ``workers`` is the ordered list of ``(host, port)`` worker addresses;
    worker ``w`` serves ``shard_map.shards_for_worker(w)``.  Each router
    handler thread keeps one persistent upstream connection per worker
    (stale connections are retried once with a fresh socket), so proxying
    adds no per-request TCP handshake.
    """

    def __init__(
        self,
        address: tuple[str, int],
        workers: list[tuple[str, int]],
        shard_map: ShardMap,
        max_requests: int = 0,
    ):
        if len(workers) != shard_map.n_workers:
            raise ValueError(
                f"shard map expects {shard_map.n_workers} worker(s), "
                f"got {len(workers)} address(es)"
            )
        super().__init__(address, _RouterHandler, max_requests)
        self.workers = list(workers)
        self.shard_map = shard_map
        self._local = threading.local()

    # -- upstream connection pool (per handler thread) ------------------
    def _connection(self, worker: int) -> http.client.HTTPConnection:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        conn = pool.get(worker)
        if conn is None:
            host, port = self.workers[worker]
            conn = pool[worker] = http.client.HTTPConnection(host, port, timeout=30)
        return conn

    def _drop_connection(self, worker: int) -> None:
        pool = getattr(self._local, "pool", None)
        if pool:
            conn = pool.pop(worker, None)
            if conn is not None:
                conn.close()

    def forward(
        self, worker: int, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """Proxy one request to ``worker``; one retry on a stale keep-alive."""
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection(worker)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self._drop_connection(worker)
                if attempt:
                    raise ServeError(
                        f"worker {worker} at {self.workers[worker]} unreachable: {exc}"
                    ) from exc


class _RouterHandler(JSONRequestHandler):
    server: RouterHTTPServer

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        from urllib.parse import parse_qs, urlparse

        url = urlparse(self.path)
        if url.path == "/health":
            self._guarded(self._health)
        elif url.path == "/stats":
            self._guarded(self._stats)
        elif url.path == "/recommend":
            self._proxy(lambda: self._recommend_request(parse_qs(url.query)))
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        from urllib.parse import urlparse

        url = urlparse(self.path)
        if url.path == "/score":
            self._proxy(self._score_request)
        else:
            self._reply(404, {"error": f"unknown path {url.path!r}"})

    # ------------------------------------------------------------------
    def _route(self, user: int) -> int:
        return self.server.shard_map.worker_for_user(user)

    def _proxy(self, request) -> None:
        """Forward ``request()`` → ``(user, method, path, body)`` to the user's worker.

        The worker's reply is relayed unchanged.  A malformed request is a
        400; an unreachable worker (any other :class:`ServeError`) is a 502,
        logged with the worker index.
        """
        worker = None
        try:
            user, method, path, body = request()
            worker = self._route(user)
            status, payload = self.server.forward(worker, method, path, body)
        except ServeError as exc:
            code = 502 if not isinstance(exc, BadRequestError) else exc.http_status
            if code == 502:
                logger.warning("worker %s failed, replying 502: %s", worker, exc)
            self._reply(code, {"error": str(exc), "type": type(exc).__name__})
            return
        self._reply_raw(status, payload)

    def _recommend_request(self, query: dict[str, list[str]]) -> tuple:
        if "user" not in query:
            raise BadRequestError("missing required query parameter 'user'")
        return _parse_int(query["user"][0], "user"), "GET", self.path, None

    def _score_request(self) -> tuple:
        body = self._read_json_body()
        if not isinstance(body, dict) or "user" not in body:
            raise BadRequestError("body must be a JSON object with 'user' and 'items'")
        user = _parse_int(str(body["user"]), "user")
        return user, "POST", "/score", json.dumps(body).encode("utf-8")

    # ------------------------------------------------------------------
    def _health(self) -> tuple[int, dict]:
        workers = []
        status = "ok"
        for w in range(len(self.server.workers)):
            try:
                code, payload = self.server.forward(w, "GET", "/health")
                workers.append(json.loads(payload.decode("utf-8")))
                if code != 200:
                    status = "degraded"
            except ServeError as exc:
                workers.append({"status": "unreachable", "error": str(exc)})
                status = "degraded"
        return (200 if status == "ok" else 503), {
            "status": status,
            "role": "router",
            "n_workers": len(self.server.workers),
            "n_shards": self.server.shard_map.n_shards,
            "workers": workers,
        }

    def _stats(self) -> tuple[int, dict]:
        workers = []
        for w in range(len(self.server.workers)):
            try:
                _, payload = self.server.forward(w, "GET", "/stats")
                workers.append(json.loads(payload.decode("utf-8")))
            except ServeError as exc:
                workers.append({"error": str(exc)})
        totals = {"recommend": 0, "score": 0, "total": 0}
        for stats in workers:
            requests = stats.get("requests")
            if isinstance(requests, dict):
                for key in totals:
                    totals[key] += int(requests.get(key, 0))
        return 200, {
            "role": "router",
            "n_workers": len(self.server.workers),
            "n_shards": self.server.shard_map.n_shards,
            "requests": totals,
            "requests_proxied": self.server.requests_served,
            "workers": workers,
        }


def create_router(
    workers: list[tuple[str, int]],
    n_shards: int,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: int = 0,
) -> RouterHTTPServer:
    """Bind a shard router in front of ``workers`` (ordered worker addresses)."""
    shard_map = ShardMap(n_shards=n_shards, n_workers=len(workers))
    return RouterHTTPServer((host, port), workers, shard_map, max_requests=max_requests)
