"""Deterministic multiprocess experiment executor.

Every figure in the paper is a matrix sweep of *independent* simulations —
Figure 8 is 8 workloads × 4 settings, Figure 11 a parameter grid, the
replication study all of that × seeds.  Each simulation is a fresh seeded
:class:`~repro.sim.kernel.Environment`, so fanning them across a
:class:`~concurrent.futures.ProcessPoolExecutor` cannot change any result:
workers share no mutable state, and results are merged in **submission
order** regardless of completion order.  Batch reports, sweep points and
the pinned golden Figure-8 metrics are therefore bit-identical between
``jobs=1`` and ``jobs=N`` (guarded by ``tests/test_parallel.py``).

The unit of work is a picklable :class:`RunRequest` — workload name,
device/algorithm *names* (or a picklable zero-arg factory such as
:class:`~repro.eval.runner.TunedFactory`), scale, seed and config.  The
worker re-resolves those names through :mod:`repro.registry` on its side of
the process boundary; with the default ``fork`` start method the child
also inherits any custom runtime registrations, so user-registered devices
and algorithms fan out exactly like the shipped ones.

Typed simulation errors round-trip intact: :class:`SimDeadlockError` keeps
``.tick``/``.blocked`` and :class:`VerificationError` its ``.violations``
across pickling (``__reduce__`` in :mod:`repro.errors`), and
:func:`execute_requests` captures one run's failure without losing the
other runs' results.

The same determinism makes result caching exact: :class:`ResultCache`
stores each run's metrics under :meth:`RunRequest.cache_key`, and
``run_requests(..., cache=...)`` serves every hit verbatim and runs only
the misses.

See ``docs/PERFORMANCE.md`` for the design and determinism argument.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.metrics import RunMetrics
from repro.eval.runner import DEFAULT_CYCLE_LIMIT, Setting, run_workload
from repro.spamer.delay import DelayAlgorithm
from repro.workloads.arrival import ArrivalSpec

#: Version tag baked into every request cache key.  Bump it whenever the
#: meaning of a run changes in a way the serialized fields cannot express
#: (a semantic fix to a device model, a new default that alters results),
#: which atomically invalidates every previously cached result.
CACHE_KEY_VERSION = 1

#: Pickle protocol pinned for cached :class:`~repro.eval.metrics.RunMetrics`
#: payloads: byte-identity claims ("a cache hit returns the same bytes a
#: fresh run would produce") need one fixed serialization, not whatever
#: ``pickle.DEFAULT_PROTOCOL`` happens to be on the running interpreter.
CACHE_PICKLE_PROTOCOL = 4


def _canonical_component(value):
    """A JSON-able canonical form for a device/algorithm specification.

    Registry names pass through as strings; parameterized factories must
    be frozen dataclasses (the :class:`~repro.eval.runner.TunedFactory`
    pattern) so their identity is the class path plus the field values —
    the same information pickle ships across the process boundary, in a
    stable, hashable shape.  Lambdas and closures are rejected exactly
    like they are by the pickle gate.
    """
    if value is None or isinstance(value, str):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return [
            f"{cls.__module__}.{cls.__qualname__}",
            dataclasses.asdict(value),
        ]
    raise ConfigError(
        f"cannot derive a cache key for {value!r}: parameterized "
        "algorithms must be frozen-dataclass factories (see "
        "repro.eval.runner.TunedFactory), not lambdas or closures"
    )


@dataclass(frozen=True)
class RunRequest:
    """One independent simulation, specified by value.

    Everything here pickles: the device and algorithm travel as registry
    names (or a picklable zero-arg factory for parameterized algorithms)
    and are re-resolved inside the worker, so a request built in the parent
    process runs identically in a child.
    """

    workload: str
    device: str
    algorithm: Union[str, Callable[[], DelayAlgorithm], None] = None
    label: Optional[str] = None
    scale: float = 1.0
    seed: int = 0xC0FFEE
    config: Optional[SystemConfig] = None
    limit: int = DEFAULT_CYCLE_LIMIT
    validate: bool = True
    verify: bool = False
    #: Open-system arrival process, by picklable spec (None = closed batch).
    arrival: Optional[ArrivalSpec] = None

    @classmethod
    def from_setting(
        cls,
        workload: str,
        setting: Setting,
        *,
        scale: float = 1.0,
        seed: int = 0xC0FFEE,
        config: Optional[SystemConfig] = None,
        limit: int = DEFAULT_CYCLE_LIMIT,
        validate: bool = True,
        verify: bool = False,
        arrival: Optional[ArrivalSpec] = None,
    ) -> "RunRequest":
        """Snapshot a :class:`~repro.eval.runner.Setting` into a request."""
        return cls(
            workload=workload,
            device=setting.device,
            algorithm=setting.algorithm,
            label=setting.label,
            scale=scale,
            seed=seed,
            config=config,
            limit=limit,
            validate=validate,
            verify=verify,
            arrival=arrival,
        )

    def setting(self) -> Setting:
        """Rebuild the :class:`Setting` (in whichever process runs this)."""
        label = self.label
        if label is None:
            algo = self.algorithm if isinstance(self.algorithm, str) else None
            label = f"{self.device}({algo})" if algo else f"{self.device}(baseline)"
        return Setting(label, self.device, self.algorithm)

    # ------------------------------------------------------------ cache identity
    def cache_payload(self) -> dict:
        """The canonical, JSON-able description of everything a run depends on.

        Every field that can change a run's :class:`RunMetrics` — workload,
        device/algorithm identity, scale, seed, full config, cycle limit,
        arrival process, even the reported ``label`` (it is part
        of the metrics document) — appears here in a stable shape: nested
        dicts serialize with sorted keys, tuples normalize to lists, and
        parameterized factories canonicalize via
        :func:`_canonical_component`.

        The payload is *versioned* (:data:`CACHE_KEY_VERSION`) and
        *registry-generation-aware*: any runtime (un)registration of a
        device, algorithm, topology or arrival process bumps
        :func:`~repro.registry.registry_generation` and therefore every
        key, because a re-registered name may resolve to different code.
        That is deliberately conservative — a stale generation can only
        cause a cache miss, never a wrong result.
        """
        from repro.registry import registry_generation

        return {
            "version": CACHE_KEY_VERSION,
            "registry_generation": registry_generation(),
            "workload": self.workload,
            "device": self.device,
            "algorithm": _canonical_component(self.algorithm),
            "label": self.label,
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config.to_dict() if self.config is not None else None,
            "limit": self.limit,
            "validate": self.validate,
            "verify": self.verify,
            "arrival": (
                [self.arrival.name, [list(kv) for kv in self.arrival.params]]
                if self.arrival is not None
                else None
            ),
        }

    def cache_key(self) -> str:
        """Content hash of :meth:`cache_payload` — the result-cache address.

        Bit-wise determinism (pinned since the parallel executor landed)
        means equal keys imply byte-identical :class:`RunMetrics`, which is
        what makes the :class:`ResultCache` provably exact: a repeated
        sweep cell can return the cached pickle verbatim.
        """
        canonical = json.dumps(
            self.cache_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def execute_request(request: RunRequest) -> RunMetrics:
    """Run one request to completion — the worker-process entry point.

    Also the serial path: ``jobs=1`` calls this in-process, which is why
    parallel output cannot drift from serial output.
    """
    return run_workload(
        request.workload,
        request.setting(),
        scale=request.scale,
        config=request.config,
        seed=request.seed,
        limit=request.limit,
        validate=request.validate,
        verify=request.verify,
        arrival=request.arrival,
    )


@dataclass(frozen=True)
class RunOutcome:
    """One request's result: metrics on success, the typed error otherwise."""

    index: int
    request: RunRequest
    metrics: Optional[RunMetrics] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count: None/1 → serial, 0 → all cores, N → N."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _mp_context():
    """Prefer ``fork`` so workers inherit runtime registry registrations.

    Under ``spawn`` (Windows/macOS default) workers still work — requests
    re-resolve component *names* through the registry, which re-imports the
    shipped modules — but custom registrations made at runtime in the
    parent must then be importable from the worker side.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _check_picklable(requests: Sequence[RunRequest]) -> None:
    for request in requests:
        try:
            pickle.dumps(request)
        except Exception as exc:
            raise ConfigError(
                f"request for workload {request.workload!r} "
                f"(setting {request.label!r}) cannot cross the process "
                f"boundary: {exc}.  Parameterized algorithms must be "
                f"picklable zero-arg factories (see repro.eval.runner."
                f"TunedFactory), not lambdas or closures."
            ) from exc


def execute_requests(
    requests: Sequence[RunRequest], jobs: Optional[int] = None
) -> List[RunOutcome]:
    """Run every request; never raises for a failing *run*.

    Outcomes are returned in submission order whatever the completion
    order, one per request: a crashed or deadlocked run yields its typed
    exception in :attr:`RunOutcome.error` while every other run's metrics
    are preserved.
    """
    requests = list(requests)
    workers = min(resolve_jobs(jobs), len(requests)) if requests else 1
    outcomes: List[RunOutcome] = []
    if workers <= 1:
        for index, request in enumerate(requests):
            try:
                outcomes.append(
                    RunOutcome(index, request, metrics=execute_request(request))
                )
            except Exception as exc:  # noqa: BLE001 - captured per-run by design
                outcomes.append(RunOutcome(index, request, error=exc))
        return outcomes
    _check_picklable(requests)
    with ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context()) as pool:
        futures = [pool.submit(execute_request, request) for request in requests]
        for index, (request, future) in enumerate(zip(requests, futures)):
            try:
                outcomes.append(RunOutcome(index, request, metrics=future.result()))
            except Exception as exc:  # noqa: BLE001 - captured per-run by design
                outcomes.append(RunOutcome(index, request, error=exc))
    return outcomes


def metrics_bytes(metrics: RunMetrics) -> bytes:
    """The canonical cached serialization of one run's metrics."""
    return pickle.dumps(metrics, protocol=CACHE_PICKLE_PROTOCOL)


class ResultCache:
    """Content-addressed ``cache_key -> pickled RunMetrics`` store.

    Bit-wise determinism makes the cache exact, not heuristic: equal
    :meth:`RunRequest.cache_key` values mean byte-identical metrics, so a
    hit returns the exact bytes (:func:`metrics_bytes`) a fresh run would
    serialize to.  Entries live in an in-memory dict and, when a
    *directory* is given, one ``<sha256>.pkl`` file per key, written
    atomically (tmp + rename) so an interrupted run never leaves a
    truncated entry and a later process warms from disk.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self._memory: Dict[str, bytes] = {}
        self._dir: Optional[Path] = None
        #: Lifetime hit/miss/store counters.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if directory is not None:
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ lookup
    def get_bytes(self, key: str) -> Optional[bytes]:
        """The cached pickle for *key*, or None; counts the hit/miss."""
        payload = self._memory.get(key)
        if payload is None and self._dir is not None:
            path = self._dir / f"{key}.pkl"
            if path.exists():
                payload = path.read_bytes()
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def get(self, key: str) -> Optional[RunMetrics]:
        """The cached metrics object for *key*, or None."""
        payload = self.get_bytes(key)
        return pickle.loads(payload) if payload is not None else None

    def lookup(self, request: RunRequest) -> Optional[RunMetrics]:
        """One-call convenience: key the request, then :meth:`get`."""
        return self.get(request.cache_key())

    def contains(self, key: str) -> bool:
        """Membership test that does not disturb the hit/miss counters."""
        if key in self._memory:
            return True
        return self._dir is not None and (self._dir / f"{key}.pkl").exists()

    # ------------------------------------------------------------------- store
    def put(self, key: str, metrics: RunMetrics) -> bytes:
        """Store *metrics* under *key*; returns the canonical bytes."""
        payload = metrics_bytes(metrics)
        self._memory[key] = payload
        self.stores += 1
        if self._dir is not None:
            path = self._dir / f"{key}.pkl"
            tmp = self._dir / f".{key}.{os.getpid()}.tmp"
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        return payload

    # ----------------------------------------------------------------- queries
    def __len__(self) -> int:
        if self._dir is not None:
            on_disk = {p.stem for p in self._dir.glob("*.pkl")}
            return len(on_disk | set(self._memory))
        return len(self._memory)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }


def _run_cached(
    requests: List[RunRequest], jobs: Optional[int], cache: ResultCache
) -> List[RunMetrics]:
    """:func:`run_requests` through *cache*: only the misses run."""
    keys = [request.cache_key() for request in requests]
    results: List[Optional[RunMetrics]] = [cache.get(key) for key in keys]
    misses = [index for index, metrics in enumerate(results) if metrics is None]
    outcomes = execute_requests([requests[i] for i in misses], jobs=jobs)
    for index, outcome in zip(misses, outcomes):
        if outcome.ok:
            cache.put(keys[index], outcome.metrics)
            results[index] = outcome.metrics
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return results


def run_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[RunMetrics]:
    """Run every request and return metrics in submission order.

    The raising contract matches a plain serial loop: the first failing
    request (in submission order) has its typed exception re-raised —
    ``SimDeadlockError.tick``/``.blocked`` and ``VerificationError
    .violations`` intact even when the failure happened in a worker.
    Callers that need the surviving results around a failure use
    :func:`execute_requests` instead.

    With a *cache*, every request's key is looked up in this process and
    only the misses run (serially or on a pool, per *jobs*), so a call
    whose requests all hit starts no pool.  Each successful run is
    stored; a failed one stores nothing and its error is re-raised after
    the other misses have been stored.
    """
    requests = list(requests)
    if cache is not None:
        return _run_cached(requests, jobs, cache)
    if min(resolve_jobs(jobs), len(requests) or 1) <= 1:
        # Pure serial fast path: no outcome wrappers, abort at first error
        # exactly like the historical per-figure loops.
        return [execute_request(request) for request in requests]
    outcomes = execute_requests(requests, jobs=jobs)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [outcome.metrics for outcome in outcomes]
