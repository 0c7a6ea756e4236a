"""Content-addressed on-disk cache for experiment results.

Every :class:`~repro.server.experiment.ExperimentConfig` is a frozen,
seed-deterministic description of one evaluation cell, so its result is a
pure function of (config, timing-model constants, repro version).  The
cache keys on a stable SHA-256 digest of exactly that triple: change any
config field, any :class:`~repro.gpu.exec_model.ExecutionModelConfig`
default, the device topology, or the package version, and the key — and
therefore the cache entry — changes with it.  Stale results can never be
served across a model change.

One store implementation, :class:`ResultStore`, serves three kinds of
result: closed-loop cells (:class:`ResultCache`, ``<root>/results/``),
open-loop runs (:class:`RateResultCache`, ``<root>/rate/``) and fleet
runs (:class:`~repro.cluster.experiment.ClusterResultCache`,
``<root>/cluster/``).  A kind chooses only its subdirectory, its key
inputs and its codec.  An entry is the key's input payload plus a
``"result"`` field, so every file names exactly what produced it.

Corrupt or truncated cache files are *misses*, never crashes: they are
counted in :class:`CacheStats` and logged, then recomputed.  All writes
are best-effort (a read-only cache directory degrades to no caching)
and *atomic* — published via a same-directory temp file and
``os.replace`` — so concurrent sweep workers racing on one key can
never leave an interleaved or half-written file behind.

Entries live in 256 two-hex-prefix shard subdirectories (keys are
uniform SHA-256 hex) so big sweeps never degrade into one flat directory
of tens of thousands of files; flat entries written by pre-sharding
versions are found and migrated into their shard on first read, keys
unchanged (see :func:`locate_entry`).

Set ``REPRO_CACHE_DIR`` to relocate the store (shared with the profiling
cache in :mod:`repro.server.profiles`); delete the directory to clear it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Optional

import repro
from repro.gpu.exec_model import ExecutionModelConfig
from repro.gpu.topology import GpuTopology
from repro.server.experiment import (
    SLO_FACTOR,
    ExperimentConfig,
    ExperimentResult,
    WorkerResult,
    run_experiment,
)
from repro.server.metrics import LatencyStats
from repro.server.options import RunOptions
from repro.server.slo import ResilienceStats, SloGuard

__all__ = [
    "CacheStats",
    "JsonStore",
    "RateResultCache",
    "ResultCache",
    "ResultStore",
    "cache_inputs",
    "cache_key",
    "cached_run_experiment",
    "cached_run_rate_experiment",
    "canonical_digest",
    "default_cache",
    "default_rate_cache",
    "fingerprint",
    "locate_entry",
    "rate_cache_key",
    "rate_inputs",
    "rate_result_from_dict",
    "rate_result_hash",
    "rate_result_to_dict",
    "result_hash",
    "sharded_entry_path",
]

logger = logging.getLogger(__name__)

#: Bump when the serialized payload layout changes (invalidates entries).
#: Schema 2: adds ``LatencyStats.p999`` and ``peak_cu_occupancy``.
CACHE_SCHEMA = 2


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp file +
    ``os.replace``).

    Concurrent writers — two pooled sweep workers storing the same key —
    each publish a complete file; readers see either the old entry or a
    new one, never an interleaved or truncated mix, and a writer dying
    mid-write can no longer clobber a previously good entry.  Raises
    ``OSError`` like a plain write would (callers keep their best-effort
    handling); the temp file is cleaned up on failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def cache_root() -> Path:
    """Root of the on-disk cache (``REPRO_CACHE_DIR`` or the default)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return Path(root) if root else Path.home() / ".cache" / "repro-krisp"


def sharded_entry_path(directory: Path, key: str) -> Path:
    """Canonical location of ``key``'s entry: a two-hex-prefix shard.

    Large sweeps accumulate tens of thousands of entries; a flat
    directory makes every miss (and every ``ls``) scan all of them.
    Keys are uniform SHA-256 hex, so the first two characters split the
    store into 256 evenly loaded subdirectories.
    """
    return directory / key[:2] / f"{key}.json"


def locate_entry(directory: Path, key: str) -> Path:
    """Where to *read* ``key``'s entry, migrating flat legacy files.

    Pre-sharding stores kept every entry directly in ``directory``.
    Reads prefer the sharded location; a flat legacy file is moved into
    its shard on first touch (best-effort, atomic ``os.replace``).  The
    migration is idempotent under races: when two readers touch the same
    flat entry, the first ``os.replace`` wins and the loser — whose own
    rename fails because the source vanished — serves the winner's
    sharded file.  A rename that fails with the flat file still in place
    (cross-device store, read-only directory) falls back to an atomic
    copy, and to the flat path itself if even that fails — never a miss,
    never a vanished path.  A key present in neither place resolves to
    the sharded path, so miss handling targets the canonical location.
    """
    sharded = sharded_entry_path(directory, key)
    if sharded.exists():
        return sharded
    legacy = directory / f"{key}.json"
    if legacy.exists():
        try:
            sharded.parent.mkdir(parents=True, exist_ok=True)
            os.replace(legacy, sharded)
            return sharded
        except OSError:
            pass
        if sharded.exists():
            # Lost the migrate race: another reader already moved it.
            return sharded
        try:
            text = legacy.read_text()
        except OSError:
            # The flat file vanished between the rename attempt and the
            # read (racer finished mid-way), or is unreadable.
            return legacy if legacy.exists() else sharded
        # Flat file still present and readable, but not renamable
        # (EXDEV/EACCES): migrate by atomic copy, best-effort unlink.
        try:
            _atomic_write_text(sharded, text)
        except OSError:
            return legacy
        try:
            os.unlink(legacy)
        except OSError:
            pass
        return sharded
    return sharded


def canonical_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON (sorted keys,
    no whitespace) — the one hash behind every cache key and result
    hash."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fingerprint() -> dict[str, Any]:
    """The code-relevant constants folded into every cache key.

    A result is only reusable while the experiment cell *and* the model
    that produced it are unchanged, so the key covers the repro version,
    the payload schema, the evaluation topology, the timing-model
    defaults, and the SLO definition.
    """
    topo = GpuTopology.mi50()
    exec_defaults = ExecutionModelConfig()
    return {
        "version": repro.__version__,
        "schema": CACHE_SCHEMA,
        "topology": dataclasses.asdict(topo),
        "exec_model": dataclasses.asdict(exec_defaults),
        "slo_factor": SLO_FACTOR,
    }


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """JSON-native form of one experiment cell (tuples become lists, so
    the dict compares equal to its own JSON round-trip)."""
    data = dataclasses.asdict(config)
    data["model_names"] = list(data["model_names"])
    # Only-when-non-default folding (same contract as the fault/guard
    # key fields): the allocation-policy knobs postdate most cached
    # results, and dropping them at their defaults keeps every
    # pre-existing cache key and result hash byte-identical.
    if data.get("allocation") == "krisp":
        del data["allocation"]
    if data.get("sizing") == "static":
        del data["sizing"]
    return data


def config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`."""
    data = dict(payload)
    data["model_names"] = tuple(data["model_names"])
    return ExperimentConfig(**data)


# -- key inputs --------------------------------------------------------------

def _fold_given(payload: dict[str, Any], workload=None, faults=None,
                guard: Optional[SloGuard] = None,
                cluster: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """Add each optional key input to ``payload`` **only when given**.

    Absent inputs leave no trace, so every key minted before the
    workload, fault and fleet layers existed is byte-identical today.
    """
    if workload is not None:
        payload["workload"] = workload.to_dict()
    if faults is not None:
        payload["faults"] = faults.to_dict()
    if guard is not None:
        payload["guard"] = guard.to_dict()
    if cluster is not None:
        payload["cluster"] = cluster
    return payload


def cache_inputs(config: ExperimentConfig,
                 constants: Optional[dict[str, Any]] = None,
                 faults=None,
                 guard: Optional[SloGuard] = None) -> dict[str, Any]:
    """The key input payload of one closed-loop cell: config, code
    constants and — only when given — the fault schedule and guard."""
    return _fold_given({
        "config": config_to_dict(config),
        "constants": constants if constants is not None else fingerprint(),
    }, faults=faults, guard=guard)


def cache_key(config: ExperimentConfig,
              constants: Optional[dict[str, Any]] = None,
              faults=None,
              guard: Optional[SloGuard] = None) -> str:
    """Stable content hash of (config, code constants, repro version).

    ``faults`` (a :class:`~repro.faults.FaultSchedule`) and ``guard``
    (a :class:`~repro.server.slo.SloGuard`) are folded in **only when
    given**, so every pre-existing fault-free key — and every cached
    result under it — is untouched by the fault layer.
    """
    return canonical_digest(
        cache_inputs(config, constants, faults=faults, guard=guard))


def rate_inputs(config: ExperimentConfig, offered_rps: float,
                duration: float,
                constants: Optional[dict[str, Any]] = None,
                workload=None, faults=None,
                guard: Optional[SloGuard] = None,
                cluster: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """The key input payload of one open-loop run (see
    :func:`rate_cache_key`)."""
    return _fold_given({
        "kind": "rate",
        "config": config_to_dict(config),
        "constants": constants if constants is not None else fingerprint(),
        "offered_rps": offered_rps,
        "duration": duration,
    }, workload=workload, faults=faults, guard=guard, cluster=cluster)


def rate_cache_key(config: ExperimentConfig, offered_rps: float,
                   duration: float,
                   constants: Optional[dict[str, Any]] = None,
                   workload=None, faults=None,
                   guard: Optional[SloGuard] = None,
                   cluster: Optional[dict[str, Any]] = None) -> str:
    """Stable content hash of one open-loop run's inputs.

    ``workload`` (a :mod:`repro.workload` spec), ``faults``, ``guard``,
    and ``cluster`` (a JSON-native fleet-topology payload) are folded
    in **only when given** — the :func:`cache_key` convention — so
    plain Poisson keys are unaffected by the workload and fleet layers.
    ``duration`` must be the *actual* run length (resolve defaults via
    :func:`~repro.server.rate_experiment.default_rate_duration` before
    keying).
    """
    return canonical_digest(rate_inputs(
        config, offered_rps, duration, constants, workload=workload,
        faults=faults, guard=guard, cluster=cluster))


# -- result (de)serialisation ------------------------------------------------

def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """JSON-friendly form of one experiment result.

    Floats survive a JSON round-trip bit-exactly (``repr`` round-trip),
    so a cache hit reproduces the live result field-for-field.  The
    ``resilience`` block appears only on guarded/fault-injected results,
    keeping every fault-free payload byte-identical to schema 2.
    """
    payload = {
        "config": config_to_dict(result.config),
        "workers": [
            {
                "model_name": w.model_name,
                "requests_completed": w.requests_completed,
                "rps": w.rps,
                "latency": dataclasses.asdict(w.latency),
            }
            for w in result.workers
        ],
        "window": result.window,
        "total_rps": result.total_rps,
        "energy_joules": result.energy_joules,
        "energy_per_request": result.energy_per_request,
        "gpu_utilization": result.gpu_utilization,
        "peak_cu_occupancy": result.peak_cu_occupancy,
    }
    if result.resilience is not None:
        payload["resilience"] = result.resilience.to_dict()
    return payload


def result_hash(result: ExperimentResult) -> str:
    """Content hash of one result's canonical JSON payload.

    Every float in the payload survives JSON bit-exactly, so two runs
    hash equally iff they produced the identical float sequence — the
    identity the incremental rate-recompute path is held to (and what
    the bench harness compares across recompute modes).
    """
    return canonical_digest(result_to_dict(result))


def result_from_dict(payload: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    return ExperimentResult(
        config=config_from_dict(payload["config"]),
        workers=tuple(
            WorkerResult(
                model_name=w["model_name"],
                requests_completed=w["requests_completed"],
                rps=w["rps"],
                latency=LatencyStats(**w["latency"]),
            )
            for w in payload["workers"]
        ),
        window=payload["window"],
        total_rps=payload["total_rps"],
        energy_joules=payload["energy_joules"],
        energy_per_request=payload["energy_per_request"],
        gpu_utilization=payload["gpu_utilization"],
        peak_cu_occupancy=payload.get("peak_cu_occupancy", 0),
        resilience=(ResilienceStats.from_dict(payload["resilience"])
                    if "resilience" in payload else None),
    )


def rate_result_to_dict(result) -> dict[str, Any]:
    """JSON-native form of one :class:`~repro.server.rate_experiment
    .RateResult` (floats survive bit-exactly; the ``resilience`` block
    appears only on guarded/fault-injected runs)."""
    payload: dict[str, Any] = {
        "offered_rps": result.offered_rps,
        "achieved_rps": result.achieved_rps,
        "latency": dataclasses.asdict(result.latency),
        "queue_residue": result.queue_residue,
    }
    if result.resilience is not None:
        payload["resilience"] = result.resilience.to_dict()
    return payload


def rate_result_from_dict(payload: dict[str, Any]):
    """Inverse of :func:`rate_result_to_dict`."""
    from repro.server.rate_experiment import RateResult
    return RateResult(
        offered_rps=payload["offered_rps"],
        achieved_rps=payload["achieved_rps"],
        latency=LatencyStats(**payload["latency"]),
        queue_residue=payload["queue_residue"],
        resilience=(ResilienceStats.from_dict(payload["resilience"])
                    if "resilience" in payload else None),
    )


def rate_result_hash(result) -> str:
    """Content hash of one rate result's canonical JSON payload."""
    return canonical_digest(rate_result_to_dict(result))


# -- stores ------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/store/invalidation accounting for one store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt, truncated, or key-mismatched entries treated as misses.
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class JsonStore:
    """A dict-shaped key/value store persisted as one JSON file.

    Generalises the ad-hoc right-size cache of
    :mod:`repro.server.profiles`: corrupt files are counted misses, not
    crashes, and writes are best-effort.
    """

    path: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def load(self) -> dict[str, Any]:
        """The whole store; ``{}`` on absence or corruption."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return {}
        except OSError:
            self.stats.invalidations += 1
            return {}
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("store root is not an object")
            return data
        except ValueError:
            self.stats.invalidations += 1
            logger.warning("discarding corrupt cache file %s", self.path)
            return {}

    def get(self, key: str, default: Any = None) -> Any:
        """Value for ``key`` or ``default``."""
        data = self.load()
        if key in data:
            self.stats.hits += 1
            return data[key]
        self.stats.misses += 1
        return default

    def put(self, key: str, value: Any) -> None:
        """Best-effort read-modify-write of one entry (atomic publish)."""
        data = self.load()
        data[key] = value
        try:
            _atomic_write_text(
                self.path, json.dumps(data, indent=2, sort_keys=True))
            self.stats.stores += 1
        except OSError:
            pass  # caching is best-effort; computation still works


class ResultStore:
    """Content-addressed results of one kind, one file per key under
    ``<root>/<kind>/``.

    A kind is a subclass that sets :attr:`kind` and the codec
    (:attr:`encode`/:attr:`decode`).  Its entries are addressed by their
    key *inputs*: the key is :func:`canonical_digest` of the inputs, and
    the published entry is the inputs plus ``"result"``.  ``root=None``
    re-reads ``REPRO_CACHE_DIR`` on every access, so one long-lived
    instance follows environment changes.
    """

    #: Subdirectory of the cache root holding this kind's entries.
    kind: ClassVar[str]
    #: Result → JSON-native payload, and its inverse.
    encode: ClassVar[Callable[[Any], dict[str, Any]]]
    decode: ClassVar[Callable[[dict[str, Any]], Any]]
    #: Whether a hit must record the same ``config`` as its key inputs
    #: (closed-loop entries do; open-loop entries need not record one).
    checks_config: ClassVar[bool] = False

    def __init__(self, root: Optional[Path] = None) -> None:
        self._root = root
        self.stats = CacheStats()

    def root(self) -> Path:
        return self._root if self._root is not None else cache_root()

    def path_for(self, inputs: dict[str, Any]) -> Path:
        """Canonical (sharded) location of the entry keyed by ``inputs``."""
        return sharded_entry_path(self.root() / self.kind,
                                  canonical_digest(inputs))

    def get(self, inputs: dict[str, Any]) -> Any:
        """Cached result keyed by ``inputs``, or ``None`` on any miss."""
        return self._read(inputs, self.decode)

    def put(self, inputs: dict[str, Any], result: Any) -> None:
        """Best-effort store of ``result`` keyed by ``inputs``."""
        self._publish(inputs, self.encode(result))

    def get_or_run(self, run: Callable[[], Any], *cell: Any,
                   **extra: Any) -> Any:
        """The result stored for ``cell``, else ``run()``'s, stored.

        ``cell`` and ``extra`` address the entry exactly as they do for
        :meth:`get`; :meth:`put` receives them around the fresh result.
        """
        result = self.get(*cell, **extra)
        if result is None:
            result = run()
            self.put(*cell, result, **extra)
        return result

    def _read(self, inputs: dict[str, Any],
              decode: Callable[[dict[str, Any]], Any]) -> Any:
        path = locate_entry(self.root() / self.kind, canonical_digest(inputs))
        try:
            raw = path.read_text()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict):
                raise ValueError("cache entry is not an object")
            if self.checks_config \
                    and entry.get("config") != inputs["config"]:
                raise ValueError("cache entry config mismatch")
            result = decode(entry["result"])
        except (ValueError, KeyError, TypeError):
            self.stats.misses += 1
            self.stats.invalidations += 1
            logger.warning("discarding corrupt %s cache entry %s",
                           self.kind, path)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def _publish(self, inputs: dict[str, Any],
                 encoded: dict[str, Any]) -> None:
        path = sharded_entry_path(self.root() / self.kind,
                                  canonical_digest(inputs))
        try:
            _atomic_write_text(
                path, json.dumps({**inputs, "result": encoded}, indent=2,
                                 sort_keys=True))
            self.stats.stores += 1
        except OSError:
            pass  # caching is best-effort; computation still works


class ResultCache(ResultStore):
    """Closed-loop cell results under ``<root>/results/``, addressed by
    (config, faults, guard)."""

    kind = "results"
    checks_config = True

    def path_for(self, config: ExperimentConfig, faults=None,
                 guard: Optional[SloGuard] = None) -> Path:
        """Canonical (sharded) location of one cell's cached result."""
        return super().path_for(
            cache_inputs(config, faults=faults, guard=guard))

    def get(self, config: ExperimentConfig, faults=None,
            guard: Optional[SloGuard] = None) -> Optional[ExperimentResult]:
        """Cached result for ``config``, or ``None`` on any kind of miss."""
        # The codec is read from the module globals at call time, so a
        # wrapper installed on ``result_from_dict`` sees every hit.
        return self._read(cache_inputs(config, faults=faults, guard=guard),
                          result_from_dict)

    def put(self, config: ExperimentConfig, result: ExperimentResult,
            faults=None, guard: Optional[SloGuard] = None) -> None:
        """Best-effort store of one cell's result."""
        self._publish(cache_inputs(config, faults=faults, guard=guard),
                      result_to_dict(result))


class RateResultCache(ResultStore):
    """Open-loop results under ``<root>/rate/``, addressed by
    :func:`rate_inputs`."""

    kind = "rate"
    encode = staticmethod(rate_result_to_dict)
    decode = staticmethod(rate_result_from_dict)


_DEFAULT_CACHE = ResultCache()
_DEFAULT_RATE_CACHE = RateResultCache()


def default_cache() -> ResultCache:
    """The process-wide result cache (root follows ``REPRO_CACHE_DIR``)."""
    return _DEFAULT_CACHE


def default_rate_cache() -> RateResultCache:
    """The process-wide rate-result cache (follows ``REPRO_CACHE_DIR``)."""
    return _DEFAULT_RATE_CACHE


def cached_run_experiment(
    config: ExperimentConfig,
    cache: Optional[ResultCache] = None,
    faults=None,
    guard: Optional[SloGuard] = None,
) -> ExperimentResult:
    """:func:`~repro.server.experiment.run_experiment` through the cache.

    ``faults``/``guard`` select the fault-injected variant of the cell;
    its key (and file) is disjoint from the fault-free one.
    """
    store = cache if cache is not None else default_cache()
    return store.get_or_run(
        lambda: run_experiment(config, RunOptions(faults=faults, guard=guard)),
        config, faults=faults, guard=guard)


def cached_run_rate_experiment(
    config: ExperimentConfig,
    offered_rps: Optional[float] = None,
    duration: Optional[float] = None,
    *,
    workload=None,
    faults=None,
    guard: Optional[SloGuard] = None,
    cache: Optional[RateResultCache] = None,
):
    """:func:`~repro.server.rate_experiment.run_rate_experiment`
    through the rate-result cache.

    The key pins the resolved offered rate and duration plus — only
    when given — the workload spec, fault schedule, and guard, so two
    distinct specs can never alias one cache entry.
    """
    from repro.server.rate_experiment import (
        default_rate_duration, run_rate_experiment)

    if workload is not None and offered_rps is None:
        offered_rps = workload.offered_rps()
    if offered_rps is None or offered_rps <= 0:
        raise ValueError("offered_rps must be > 0")
    if duration is None:
        duration = default_rate_duration(config)
    store = cache if cache is not None else default_rate_cache()
    return store.get_or_run(
        lambda: run_rate_experiment(
            config, offered_rps, duration,
            RunOptions(workload=workload, faults=faults, guard=guard)),
        rate_inputs(config, offered_rps, duration, workload=workload,
                    faults=faults, guard=guard))
