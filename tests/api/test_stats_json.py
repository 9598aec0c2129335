"""JSON round-trips: RunStats/RunResult/RunConfig and the array codec.

The serving front ships results over the wire as JSON; these tests pin
that the round trip is lossless — numpy scalars coerce, the typed
counter blocks come back as their real types, and arrays survive the
base64 + SHA-256 codec bit-exactly.
"""

import json

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.api.stats import (
    RunStats,
    decode_array,
    encode_array,
    json_safe,
)
from repro.distributed.exec import CommStats
from repro.engine.cache import CacheStats
from repro.runtime.tracing import RuntimeEvent

pytestmark = pytest.mark.api


def _dumps(payload):
    # the real contract: the default encoder, no custom hooks
    return json.dumps(payload)


def test_json_safe_coerces_numpy_scalars():
    out = json_safe({
        "i": np.int64(3),
        "f": np.float32(0.5),
        "b": np.bool_(True),
        "a": np.arange(3),
        "t": (np.int32(1), 2),
        np.int64(7): "npkey",
    })
    _dumps(out)
    assert out["i"] == 3 and isinstance(out["i"], int)
    assert out["b"] is True
    assert out["a"] == [0, 1, 2]
    assert out["t"] == [1, 2]
    assert out["7"] == "npkey"


def test_array_codec_bit_exact_roundtrip():
    arr = np.random.default_rng(0).random((5, 7))
    clone = decode_array(json.loads(_dumps(encode_array(arr))))
    assert clone.dtype == arr.dtype and clone.shape == arr.shape
    assert clone.tobytes() == arr.tobytes()


def test_array_codec_detects_tampering():
    payload = encode_array(np.ones(4))
    payload["sha256"] = "0" * 64
    with pytest.raises(ValueError, match="SHA-256"):
        decode_array(payload)


def test_runstats_roundtrip_with_all_blocks():
    stats = RunStats(
        backend="distributed", scheme="tess", engine="naive",
        shape=(np.int64(32), 32), steps=np.int64(8),
        phases={"execute": np.float64(0.25)},
        schedule={"tasks": np.int64(12), "groups": 3},
        events=[RuntimeEvent(kind="group", group=1, label="g1",
                             seconds=0.01, detail="d")],
        comm=CommStats(messages=4, bytes_sent=1024,
                       stage_bytes={0: 512, 1: 512}, drops=1),
        cache=CacheStats(hits=5, misses=1, compile_seconds=0.02),
        plan_compiles=1, cache_hits=2,
        degradations=[{"from": "elastic", "to": "serial",
                       "error": "RankLostError", "detail": "x"}],
        verified=np.bool_(True),
    )
    clone = RunStats.from_json(json.loads(_dumps(stats.to_json())))
    assert clone.backend == "distributed"
    assert clone.shape == (32, 32) and clone.steps == 8
    assert clone.phases == {"execute": 0.25}
    # events come back as real RuntimeEvent objects
    assert clone.events[0].kind == "group"
    assert clone.event_counts() == {"group": 1}
    # typed blocks come back as their real types, int keys restored
    assert isinstance(clone.comm, CommStats)
    assert clone.comm.stage_bytes == {0: 512, 1: 512}
    assert clone.comm.describe_resilience()  # live accessor works
    assert isinstance(clone.cache, CacheStats)
    assert clone.cache.hits == 5
    assert clone.degradations[0]["to"] == "serial"
    assert clone.verified is True
    assert clone.describe()


def test_runstats_roundtrip_minimal():
    clone = RunStats.from_json(json.loads(_dumps(RunStats().to_json())))
    assert clone.comm is None
    assert clone.cache is None and clone.verified is None


def test_live_run_result_roundtrips(tmp_path):
    spec = get_stencil("heat1d")
    cfg = RunConfig(shape=(40,), steps=12, backend="serial",
                    verify=True)
    result = Session(spec).run(cfg)
    payload = json.loads(_dumps(result.to_json()))
    interior = decode_array(payload["interior"])
    np.testing.assert_array_equal(interior, result.interior)
    stats = RunStats.from_json(payload["stats"])
    assert stats.steps == 12 and stats.verified is True
    cfg2 = RunConfig.from_json(payload["config"])
    assert cfg2.normalized().shape == (40,)


def test_runconfig_roundtrip_including_qos():
    from repro.runtime.qos import QoSPolicy

    cfg = RunConfig(shape=(16, 16), steps=5, scheme="diamond", b=4,
                    backend="threadpool", threads=2,
                    qos=QoSPolicy(deadline_s=1.5,
                                  fallback=("threaded", "serial")))
    clone = RunConfig.from_json(json.loads(_dumps(cfg.to_json())))
    # aliases resolve identically on both sides
    assert clone.normalized().backend == "threaded"
    assert clone.shape == (16, 16) and clone.b == 4
    assert clone.qos.deadline_s == 1.5
    assert clone.qos.fallback == ("threaded", "serial")
    # canonical JSON identity: serialize -> parse -> serialize is fixed
    once = cfg.normalized().to_json()
    twice = RunConfig.from_json(once).normalized().to_json()
    assert once == twice


def test_runconfig_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown RunConfig field"):
        RunConfig.from_json({"not_a_knob": 1})


def test_runconfig_from_json_drops_retired_max_phase_restarts():
    """Journals and clients written before the simulator's phase replay
    was removed carry ``max_phase_restarts``; they must still load."""
    old = dict(RunConfig(shape=(40,), steps=12).to_json(),
               max_phase_restarts=2)
    cfg = RunConfig.from_json(old)
    assert cfg.shape == (40,) and cfg.steps == 12
    assert "max_phase_restarts" not in cfg.to_json()
    with pytest.raises(TypeError):
        RunConfig(max_phase_restarts=2)  # gone as a field
    with pytest.raises(ValueError, match="unknown RunConfig field"):
        RunConfig.from_json({"resilience": None})  # not a wire key


def test_runstats_from_json_drops_retired_comm_counters():
    """Stats sealed before the elastic runtime's in-run rank respawn and
    phase replay were removed carry ``comm.respawns`` and
    ``comm.phase_restarts``; they must still load."""
    from repro.distributed.exec import CommStats

    data = RunStats(backend="elastic", steps=4,
                    comm=CommStats(messages=3, heartbeats=7)).to_json()
    data["comm"].update(respawns=1, phase_restarts=2)
    clone = RunStats.from_json(json.loads(_dumps(data)))
    assert clone.comm.messages == 3 and clone.comm.heartbeats == 7
    assert not hasattr(clone.comm, "respawns")
    assert not hasattr(clone.comm, "phase_restarts")


def test_runstats_from_json_ignores_old_resilience_block():
    """Results sealed by the removed ``resilient`` backend carry a
    ``resilience`` block; the stats still load."""
    data = RunStats(backend="serial", steps=4).to_json()
    for block in (None, {"scheme": "tess", "task_retries": 2}):
        clone = RunStats.from_json(dict(data, resilience=block))
        assert clone.backend == "serial" and clone.steps == 4
        assert not hasattr(clone, "resilience")
