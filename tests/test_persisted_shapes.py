"""Every persisted shape is declared once and read at one door.

* Every writer's output, JSON round-tripped, reads back through its
  declaration — nested parts through theirs.
* The fuzzer generated from the declarations (``tests/persisted_fuzz.py``)
  makes every mutation a declaration forbids, at every node of a session
  checkpoint, a fleet bundle, a service bundle and a saved repository's
  manifest and metadata, and loads each through its door: the load raises a
  :mod:`repro.errors` error naming the JSON path — never a builtin, never a
  different answer.
* A torn or bit-flipped ``manifest.json`` ends in a taxonomy error too.
* One named regression per loader defect found by reading before the
  declarations existed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionStats, StatsRecord
from repro.core.dynamics import ManagerState
from repro.core.optimizer import OptimizerState
from repro.core.query import CompoundQuery, Query
from repro.core.ratebook import RateBookState
from repro.core.scheduler import FleetCheckpoint, FleetRun, QuerySpec, SpecState, spec_to_dict
from repro.core.sequences import AssemblerState
from repro.core.session import SessionCheckpoint, StreamSession
from repro.detectors.cache import CacheState
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError, ReproError, StorageError
from repro.scanstats.kernel import EstimatorState
from repro.service import AdmissionController, QueryService, ServiceState, TenantQuota
from repro.service.admission import AdmissionState, TenantUnits
from repro.storage.repository import Manifest, VideoMeta, VideoRepository
from repro.storage.synth import synthetic_repository
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video
from tests.persisted_fuzz import apply, cases, read_all, where
from tests.reference.kernel_scalar import ScalarKernelRateEstimator

VIDEO = make_kitchen_video(seed=83, duration_s=120.0, video_id="refusalvid")
QUERY = Query(objects=["faucet"], action="washing dishes")
CNF = CompoundQuery.disjunction(
    [QUERY, Query(objects=["person"], action="washing dishes")]
)
SPECS = [
    QuerySpec("a", QUERY),
    QuerySpec("b", QUERY, algorithm="svaq", k_crit_overrides={"faucet": 2}),
    QuerySpec("c", CNF, algorithm="svaq"),
]


def wire(payload):
    return json.loads(json.dumps(payload))


def session_state():
    session = StreamSession.for_query(
        default_zoo(seed=3), QUERY, VIDEO, record_trace=True
    )
    session.advance(ClipStream(VIDEO.meta, stop_clip=9))
    return wire(session.state_dict())


def fleet_state(stop_clip=40):
    fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=SPECS)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=stop_clip)))
    return wire(fleet.state_dict())


def service_bundle():
    service = QueryService(
        default_zoo(seed=3), clip_batch=4,
        admission=AdmissionController(TenantQuota(max_concurrent=3)),
    )
    service.add_stream("cam", VIDEO)
    service.register("cam", SPECS[0], tenant="acme")
    service.register("cam", SPECS[1], tenant="acme")
    service.step("cam")
    service.cancel("cam", "b")
    return wire(service.snapshot().to_dict())


def load_session(state):
    StreamSession.for_query(default_zoo(seed=3), QUERY, VIDEO).load_state_dict(state)


def load_fleet(state):
    FleetRun(default_zoo(seed=3), VIDEO).load_state_dict(state)


def resume_service(bundle):
    QueryService.resume(
        bundle, {"cam": VIDEO}, default_zoo(seed=3), clip_batch=4,
        admission=AdmissionController(TenantQuota(max_concurrent=3)),
    )


# -- writers read back through their declarations ----------------------------------


def _repository(tmp_path):
    synthetic_repository(n_videos=2, n_clips=20, seed=1).save(tmp_path / "repo")
    return tmp_path / "repo"


def test_every_writer_reads_back_through_its_declaration(tmp_path):
    session = StreamSession.for_query(
        default_zoo(seed=3), QUERY, VIDEO, OnlineConfig(), dynamic=False
    )
    session.advance(ClipStream(VIDEO.meta, stop_clip=9))
    fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=SPECS)
    fleet.advance(list(ClipStream(VIDEO.meta, stop_clip=40)))
    admission = AdmissionController()
    admission.admit("acme", "q0")
    admission.charge("acme", detector_units=3)
    repo = _repository(tmp_path)
    written = [
        (SessionCheckpoint, session_state()),
        (SessionCheckpoint, session.state_dict()),
        (FleetCheckpoint, fleet.state_dict()),
        (ServiceState, service_bundle()),
        (SpecState, spec_to_dict(SPECS[2])),
        (StatsRecord, ExecutionStats().as_dict()),
        (EstimatorState, ScalarKernelRateEstimator(bandwidth=50.0).state_dict()),
        (ManagerState, fleet.session("a").policy.manager.state_dict()),
        (OptimizerState, fleet.session("a")._optimizer.state_dict()),
        (AssemblerState, fleet.session("a")._assembler.state_dict()),
        (CacheState, fleet.session("a")._evaluator.cache.state_dict()),
        (RateBookState, fleet.state_dict()["rate_book"]),
        (AdmissionState, admission.state_dict()),
        (TenantUnits, admission.state_dict()["units"]["acme"]),
        (Manifest, json.loads((repo / "manifest.json").read_text())),
        (VideoMeta, json.loads(next(repo.glob("v*.json")).read_text())),
    ]
    for declaration, payload in written:
        read_all(declaration, wire(payload))


# -- the fuzzer, through every door ------------------------------------------------


def refused(load, payload, root, declaration):
    """Run every case; return how many were refused (all must be, by a
    taxonomy error that names the path)."""
    count = 0
    for case in cases(declaration, payload):
        mutated = apply(payload, case)
        try:
            load(mutated)
        except ReproError as error:
            message = str(error)
        else:
            pytest.fail(f"{where(root, case.path)}: {case.what} loaded")
        assert where(root, case.path) in message, (case.what, message)
        count += 1
    return count


def test_the_session_door_refuses_every_forbidden_mutation():
    assert refused(load_session, session_state(), "session checkpoint", SessionCheckpoint) > 200


def test_the_fleet_door_refuses_every_forbidden_mutation():
    assert refused(load_fleet, fleet_state(), "fleet checkpoint", FleetCheckpoint) > 500


def test_the_service_door_refuses_every_forbidden_mutation():
    assert refused(resume_service, service_bundle(), "service bundle", ServiceState) > 500


def test_the_repository_door_refuses_every_forbidden_mutation(tmp_path):
    root = _repository(tmp_path)
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert refused(
        lambda m: (manifest_path.write_text(json.dumps(m)), VideoRepository.load(root)),
        manifest, str(manifest_path), Manifest,
    ) > 50
    manifest_path.write_text(json.dumps(manifest))
    meta_name = manifest["videos"][0]["meta"]
    meta_path = root / meta_name

    def load_meta(meta):
        meta_path.write_text(json.dumps(meta))
        digest = hashlib.sha256(meta_path.read_bytes()).hexdigest()
        manifest["videos"][0]["sha256"][meta_name] = digest
        manifest_path.write_text(json.dumps(manifest))
        VideoRepository.load(root)

    assert refused(load_meta, json.loads(meta_path.read_text()), str(meta_path), VideoMeta) > 100


def test_a_torn_or_bit_flipped_manifest_never_raises_a_builtin(tmp_path):
    root = _repository(tmp_path)
    path = root / "manifest.json"
    clean = path.read_bytes()
    damaged = [clean[:cut] for cut in range(0, len(clean), max(1, len(clean) // 40))]
    for at in range(0, len(clean), max(1, len(clean) // 60)):
        for bit in (0, 5, 7):
            flipped = bytearray(clean)
            flipped[at] ^= 1 << bit
            damaged.append(bytes(flipped))
    for data in damaged:
        path.write_bytes(data)
        try:
            VideoRepository.load(root)
        except ReproError:
            pass
    path.write_bytes(clean)
    VideoRepository.load(root)


# -- one named regression per defect found by reading ------------------------------


def _rewrite_meta(root: Path, change) -> None:
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["videos"][0]
    meta_path = root / entry["meta"]
    meta = json.loads(meta_path.read_text())
    change(meta)
    meta_path.write_text(json.dumps(meta))
    entry["sha256"][entry["meta"]] = hashlib.sha256(meta_path.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def test_malformed_sequence_json_is_refused(tmp_path):
    """A ragged sequence list used to raise ``ValueError`` from NumPy."""
    root = _repository(tmp_path)
    _rewrite_meta(root, lambda meta: meta["object_sequences"].update(
        {next(iter(meta["object_sequences"])): [[0, 2], [4]]}
    ))
    with pytest.raises(StorageError, match="object_sequences"):
        VideoRepository.load(root)


def test_a_charged_run_past_the_video_is_refused():
    """``[[5, 100000]]`` used to mark every clip from 5 on as charged."""
    state = fleet_state(stop_clip=9)
    state["sessions"]["a"]["cache"]["charged"]["object:faucet"] = [[5, 100000]]
    with pytest.raises(ConfigurationError, match="object:faucet"):
        load_fleet(state)


def test_a_fractional_counter_in_a_bundle_is_refused():
    """A bundle's ``contexts`` entry ``3.7`` used to load as 3."""
    state = fleet_state(stop_clip=9)
    state["contexts"]["a"]["probe_clips"] = 3.7
    with pytest.raises(ConfigurationError, match=r"contexts\.a\.probe_clips"):
        load_fleet(state)


def test_a_spec_naming_its_objects_as_a_string_is_refused():
    """``"objects": "car"`` used to load as the objects c, a and r."""
    state = fleet_state(stop_clip=9)
    state["specs"][0]["query"]["objects"] = "car"
    with pytest.raises(ConfigurationError, match=r"specs\[0\]\.query\.objects"):
        load_fleet(state)


def test_a_pending_clip_positive_as_a_string_is_refused():
    """``"positive": "no"`` used to load as a positive clip and change the
    resumed answer."""
    state = session_state()
    state["pending"]["positive"] = "no"
    with pytest.raises(ConfigurationError, match=r"pending\.positive"):
        load_session(state)


def test_a_fractional_stream_position_is_refused():
    """``position: 37.9`` used to load as 37."""
    state = fleet_state(stop_clip=37)
    state["position"] = 37.9
    with pytest.raises(ConfigurationError, match=r"fleet checkpoint\.position"):
        load_fleet(state)


@pytest.mark.parametrize("payload", [[], "x", None, 7], ids=["list", "string", "null", "int"])
@pytest.mark.parametrize(
    "load, root, error",
    [
        (load_session, "session checkpoint", ConfigurationError),
        (load_fleet, "fleet checkpoint", ConfigurationError),
        (ServiceState.from_dict, "service bundle", ConfigurationError),
    ],
    ids=["session", "fleet", "service"],
)
def test_a_door_handed_a_non_object_names_the_root(load, root, error, payload):
    """Each of these doors read the version with ``.get`` before the shape:
    ``[]`` raised ``AttributeError: 'list' object has no attribute 'get'``."""
    with pytest.raises(error, match=f"^{root} must be a JSON object; got"):
        load(payload)


def test_a_bool_inside_a_sequence_pair_is_refused(tmp_path):
    """``[[true, 5]]`` used to read as ``[1, 5]``: NumPy converts a bool
    inside an int list to 1."""
    root = _repository(tmp_path)
    _rewrite_meta(root, lambda meta: meta["object_sequences"].update(
        {next(iter(meta["object_sequences"])): [[True, 5]]}
    ))
    with pytest.raises(StorageError, match=r"object_sequences\.\S+ must be \[start, end\] pairs"):
        VideoRepository.load(root)


# -- the manifest cannot point outside its directory -------------------------------


@pytest.mark.parametrize(
    "change",
    [
        lambda m, out: m.update(columns=str(out / "columns.bin")),
        lambda m, out: m["videos"][0].update(
            meta="../outside/v0.json",
            sha256={"../outside/v0.json": m["videos"][0]["sha256"].popitem()[1]},
        ),
        lambda m, out: m.update(columns_size=str(m["columns_size"])),
        lambda m, out: m.update(columns_size=m["columns_size"] + 0.5),
        lambda m, out: m["videos"][0]["sha256"].update(other=""),
    ],
    ids=["absolute arena", "meta outside", "size as a string", "fractional size", "two checksums"],
)
def test_a_manifest_names_only_files_inside_its_directory(tmp_path, change):
    root = _repository(tmp_path)
    outside = tmp_path / "outside"
    outside.mkdir()
    manifest = json.loads((root / "manifest.json").read_text())
    meta = manifest["videos"][0]["meta"]
    (outside / "columns.bin").write_bytes((root / "columns.bin").read_bytes())
    (outside / "v0.json").write_bytes((root / meta).read_bytes())
    change(manifest, outside)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StorageError):
        VideoRepository.load(root)
