"""The one result store behind the closed-loop, open-loop and fleet caches.

Every kind shares one contract (round trip, corruption is a miss that
is counted and evicted, two-hex shards, flat entries migrate on read,
an entry is its key inputs plus ``"result"``), pinned keys, and hits on
entries written in the layouts earlier versions used.
"""

import json
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterResult,
    ClusterResultCache,
    NodeStats,
    cluster_cache_key,
    cluster_inputs,
)
from repro.cluster.autoscaler import ScaleEvent
from repro.exp.cache import (
    RateResultCache,
    ResultCache,
    cache_inputs,
    cache_key,
    canonical_digest,
    config_to_dict,
    fingerprint,
    rate_cache_key,
    rate_inputs,
    rate_result_to_dict,
    result_to_dict,
)
from repro.server.experiment import (
    ExperimentConfig,
    ExperimentResult,
    WorkerResult,
)
from repro.server.metrics import LatencyStats
from repro.server.rate_experiment import RateResult
from repro.workload.arrivals import PoissonArrivals
from repro.workload.spec import HomogeneousWorkloadSpec

STATS = LatencyStats(count=7, mean=0.010, p50=0.009, p95=0.013,
                     p99=0.014, p999=0.0142, maximum=0.0145)
CLOSED = ExperimentConfig(("squeezenet", "shufflenet"), policy="krisp-i",
                          batch_size=8, seed=3, requests_scale=0.5)
OPEN = ExperimentConfig(("squeezenet",), batch_size=4)
SPEC = HomogeneousWorkloadSpec(
    model="squeezenet", arrivals=PoissonArrivals(50.0), batch_size=4)
FLEET = ClusterConfig(devices=2, model_names=("squeezenet",), batch_size=4,
                      pool_size=2, pool_min=1)

#: Keys minted before the store was unified; entries under them on disk
#: must keep hitting.
RATE_KEY = "bcaa2ab97e0cccd5602fa58d71402cd44a570efc34bc60ebd49412a39d43c862"
RATE_SPEC_KEY = \
    "8160ef453961b0b190e4ba01911282ab79cb78bc19fcf4e7dfab5eb41f0b53f4"
CLUSTER_KEY = \
    "ee64b2f8827bf61f104d93487d1824c2757c266c73ebc49922bb162f75363c96"


def _closed_result() -> ExperimentResult:
    workers = tuple(
        WorkerResult(model_name=name, requests_completed=7, rps=100.0 + i,
                     latency=STATS)
        for i, name in enumerate(CLOSED.model_names))
    return ExperimentResult(
        config=CLOSED, workers=workers, window=0.5,
        total_rps=sum(w.rps for w in workers), energy_joules=12.5,
        energy_per_request=0.893, gpu_utilization=0.61,
        peak_cu_occupancy=42)


def _rate_result() -> RateResult:
    return RateResult(offered_rps=50.0, achieved_rps=48.0, latency=STATS,
                      queue_residue=1)


def _cluster_result() -> ClusterResult:
    return ClusterResult(
        devices=2, router="least-loaded", offered_rps=50.0,
        achieved_rps=48.0, goodput_rps=47.0, latency=STATS, issued=13,
        completed=12, shed_admission=0, shed_deadline=1, shed_retries=0,
        shed_unroutable=0, retried=0, queue_residue=0, in_flight=0,
        in_reroute=0, crashes=0, restarts=0,
        scale_events=(ScaleEvent(time=0.1, action="up", model="squeezenet",
                                 node=1, slot=1, active_after=3, load=2.5),),
        nodes=tuple(NodeStats(node=i, routed=6, completed=6,
                              gpu_utilization=0.4, peak_cu_occupancy=30,
                              crashes=0, restarts=0) for i in range(2)),
        conservation_ok=True)


@dataclass(frozen=True)
class Kind:
    """How a test addresses one store kind."""

    name: str
    store: Callable[[Any], Any]
    #: Positional arguments of ``get``/``path_for`` (``put`` takes the
    #: result after them).
    cell: tuple
    inputs: dict
    key: str
    result: Any
    encoded: dict


KINDS = [
    Kind("results", lambda root: ResultCache(root=root), (CLOSED,),
         cache_inputs(CLOSED), cache_key(CLOSED), _closed_result(),
         result_to_dict(_closed_result())),
    Kind("rate", lambda root: RateResultCache(root=root),
         (rate_inputs(OPEN, 50.0, 0.5, workload=SPEC),),
         rate_inputs(OPEN, 50.0, 0.5, workload=SPEC),
         rate_cache_key(OPEN, 50.0, 0.5, workload=SPEC), _rate_result(),
         rate_result_to_dict(_rate_result())),
    Kind("cluster", lambda root: ClusterResultCache(root=root),
         (cluster_inputs(FLEET, 50.0, 0.5, workload=SPEC,
                         autoscaler=AutoscalerConfig()),),
         cluster_inputs(FLEET, 50.0, 0.5, workload=SPEC,
                        autoscaler=AutoscalerConfig()),
         cluster_cache_key(FLEET, 50.0, 0.5, workload=SPEC,
                           autoscaler=AutoscalerConfig()),
         _cluster_result(), _cluster_result().to_dict()),
]
BY_NAME = {kind.name: kind for kind in KINDS}


@pytest.fixture(params=KINDS, ids=[kind.name for kind in KINDS])
def kind(request):
    return request.param


# -- pins ---------------------------------------------------------------------

def test_open_loop_and_fleet_keys_are_pinned():
    assert rate_cache_key(
        ExperimentConfig(("squeezenet",), requests_scale=0.25),
        100.0, 0.5) == RATE_KEY
    assert rate_cache_key(OPEN, 50.0, 0.5, workload=SPEC) == RATE_SPEC_KEY
    assert cluster_cache_key(FLEET, 50.0, 0.5, workload=SPEC,
                             autoscaler=AutoscalerConfig()) == CLUSTER_KEY


def test_every_key_is_the_digest_of_its_inputs(kind):
    assert canonical_digest(kind.inputs) == kind.key


# -- the store contract, once per kind ---------------------------------------

def test_round_trip_hits(kind, tmp_path):
    store = kind.store(tmp_path)
    assert store.get(*kind.cell) is None
    assert store.stats.misses == 1
    store.put(*kind.cell, kind.result)
    assert store.stats.stores == 1
    assert store.get(*kind.cell) == kind.result
    assert store.stats.hits == 1


def test_an_entry_is_its_key_inputs_plus_the_result(kind, tmp_path):
    store = kind.store(tmp_path)
    store.put(*kind.cell, kind.result)
    entry = json.loads(store.path_for(*kind.cell).read_text())
    assert entry == {**kind.inputs, "result": kind.encoded}


def test_entries_land_in_two_hex_shards(kind, tmp_path):
    store = kind.store(tmp_path)
    store.put(*kind.cell, kind.result)
    path = tmp_path / kind.name / kind.key[:2] / f"{kind.key}.json"
    assert store.path_for(*kind.cell) == path
    assert path.exists()


@pytest.mark.parametrize("corruption", [
    "",                          # truncated to nothing
    "{not json",                 # invalid syntax
    "[1, 2, 3]",                 # wrong root type
    '{"config": {}}',            # no result
    '{"config": {}, "result": {}}',  # result of the wrong shape
])
def test_corrupt_entries_are_counted_evicted_misses(kind, tmp_path,
                                                    corruption):
    store = kind.store(tmp_path)
    store.put(*kind.cell, kind.result)
    path = store.path_for(*kind.cell)
    path.write_text(corruption)
    assert store.get(*kind.cell) is None
    assert store.stats.misses == 1
    assert store.stats.invalidations == 1
    assert not path.exists()
    store.put(*kind.cell, kind.result)
    assert store.get(*kind.cell) == kind.result


def test_flat_legacy_entries_hit_and_migrate_on_read(kind, tmp_path):
    store = kind.store(tmp_path)
    store.put(*kind.cell, kind.result)
    sharded = store.path_for(*kind.cell)
    legacy = tmp_path / kind.name / f"{kind.key}.json"
    sharded.rename(legacy)
    sharded.parent.rmdir()
    assert store.get(*kind.cell) == kind.result
    assert sharded.exists() and not legacy.exists()
    assert store.get(*kind.cell) == kind.result
    assert store.stats.hits == 2


def test_get_or_run_runs_once_then_hits(kind, tmp_path):
    store = kind.store(tmp_path)
    runs = []

    def run():
        runs.append(1)
        return kind.result

    assert store.get_or_run(run, *kind.cell) == kind.result
    assert store.get_or_run(run, *kind.cell) == kind.result
    assert len(runs) == 1
    assert store.stats.as_dict() == {
        "hits": 1, "misses": 1, "stores": 1, "invalidations": 0}


def test_closed_loop_hits_must_record_their_config(tmp_path):
    kind = BY_NAME["results"]
    store = kind.store(tmp_path)
    store.put(*kind.cell, kind.result)
    path = store.path_for(*kind.cell)
    entry = json.loads(path.read_text())
    entry["config"]["seed"] = 99
    path.write_text(json.dumps(entry))
    assert store.get(*kind.cell) is None
    assert store.stats.invalidations == 1


# -- entries in the layouts earlier versions wrote ----------------------------

def _write_entry(directory, key, payload, flat=False):
    path = directory / (f"{key}.json" if flat else f"{key[:2]}/{key}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


@pytest.mark.parametrize("flat", [False, True], ids=["sharded", "flat"])
def test_entries_in_earlier_layouts_still_hit(tmp_path, flat):
    constants = fingerprint()
    autoscaler = AutoscalerConfig()
    # Closed loop: constants, config, result.
    _write_entry(tmp_path / "results", cache_key(CLOSED), {
        "constants": constants, "config": config_to_dict(CLOSED),
        "result": result_to_dict(_closed_result())}, flat)
    # Open loop through cached_run_rate_experiment: the run's context.
    _write_entry(tmp_path / "rate", RATE_SPEC_KEY, {
        "constants": constants, "config": config_to_dict(OPEN),
        "offered_rps": 50.0, "duration": 0.5,
        "workload": SPEC.to_dict(),
        "result": rate_result_to_dict(_rate_result())}, flat)
    # Open loop through run_load_curve: no config in the context.
    plain = ExperimentConfig(("squeezenet",), requests_scale=0.25)
    _write_entry(tmp_path / "rate", RATE_KEY, {
        "constants": constants, "offered_rps": 100.0, "duration": 0.5,
        "result": rate_result_to_dict(_rate_result())}, flat)
    # Fleet: the cluster config flat, the autoscaler beside it.
    _write_entry(tmp_path / "cluster", CLUSTER_KEY, {
        "constants": constants, "cluster": FLEET.to_dict(),
        "offered_rps": 50.0, "duration": 0.5, "workload": SPEC.to_dict(),
        "autoscaler": autoscaler.to_dict(),
        "result": _cluster_result().to_dict()}, flat)

    closed = ResultCache(root=tmp_path)
    assert closed.get(CLOSED) == _closed_result()
    rate = RateResultCache(root=tmp_path)
    assert rate.get(rate_inputs(OPEN, 50.0, 0.5, workload=SPEC)) \
        == _rate_result()
    assert rate.get(rate_inputs(plain, 100.0, 0.5)) == _rate_result()
    fleet = ClusterResultCache(root=tmp_path)
    assert fleet.get(cluster_inputs(
        FLEET, 50.0, 0.5, workload=SPEC, autoscaler=autoscaler)) \
        == _cluster_result()
    assert (closed.stats.hits, rate.stats.hits, fleet.stats.hits) \
        == (1, 2, 1)
