"""ABFT through the serving stack: attested storage, verified wire.

The end-to-end guarantee is only as strong as its weakest hop, so
this exercises the two hops past the factorization itself: silently
drifted *stored* results fail their attestation and are recomputed,
and the wire protocol carries a ``verified`` flag for protected jobs
(and stays byte-compatible with v2 for unprotected ones).
"""

import json

from repro.observability.metrics import METRICS
from repro.serving.api import (
    SCHEMA_VERSION,
    chol_request,
    response_from_wire,
)
from repro.serving.service import FactorizationService
from repro.serving.store import (
    ShardStoreView,
    TIER_MISS,
    measurement_attestation,
)
from repro.serving.workloads import repeated_spec_workload
from tests.store_entries import read_entry, write_entry

MEASUREMENT = {"words": 123.0, "messages": 4.0, "flops": 7.0}


def _point():
    return repeated_spec_workload(1, seed=0, unique=1)[0].point


class TestStoreAttestation:
    def test_drifted_payload_is_a_counted_miss_and_put_heals(self, tmp_path):
        store = str(tmp_path / "store")
        point = _point()
        path = ShardStoreView(store, "shard-0", version="test").put(
            point, MEASUREMENT, wall_time=0.5
        )

        # flip one stored value but re-stamp the *entry* digest, the
        # attack the envelope check cannot see; only the measurement
        # attestation catches it
        _, measurement, meta = read_entry(path)
        measurement["words"] = 9999.0
        write_entry(path, measurement, meta)

        before = (
            METRICS.value(
                "repro_cluster_store_attestation_failures_total",
                shard="shard-9",
            )
            or 0
        )
        corrupt = (
            METRICS.value("repro_cache_lookups_total", result="corrupt") or 0
        )
        reader = ShardStoreView(store, "shard-9", version="test")
        assert reader.get(point) is None
        assert reader.stats()[TIER_MISS] == 1
        after = METRICS.value(
            "repro_cluster_store_attestation_failures_total", shard="shard-9"
        )
        assert after == before + 1
        assert METRICS.value(
            "repro_cache_lookups_total", result="corrupt"
        ) == corrupt + 1

        # the recompute's write-back heals the entry
        reader.put(point, MEASUREMENT, wall_time=0.5)
        fresh = ShardStoreView(store, "shard-2", version="test")
        entry = fresh.get(point)
        assert entry is not None
        assert entry["measurement"] == MEASUREMENT

    def test_attestation_survives_the_json_round_trip(self):
        # tuples serialize as lists; the digest is taken over the
        # canonical JSON form so both spellings agree
        m = {"params": (1, 2), "words": 5.0}
        blob = json.loads(json.dumps(m))
        assert measurement_attestation(m) == measurement_attestation(blob)

    def test_legacy_entries_without_attestation_still_serve(self, tmp_path):
        store = str(tmp_path / "store")
        point = _point()
        path = ShardStoreView(store, "shard-0", version="test").put(
            point, MEASUREMENT, wall_time=0.5
        )
        _, measurement, meta = read_entry(path)
        del meta["attestation"]
        write_entry(path, measurement, meta)
        reader = ShardStoreView(store, "shard-3", version="test")
        assert reader.get(point) is not None


class TestVerifiedWire:
    def _serve(self, job):
        service = FactorizationService(workers=0, queue_capacity=4)
        try:
            ticket = service.submit(job)
            service.run_pending()
            return ticket.result(timeout=0)
        finally:
            service.stop()

    def test_protected_job_reports_verified_true(self):
        response = self._serve(
            chol_request(algorithm="lapack", n=32, M=96, abft=True)
        )
        assert response.status == "done"
        assert response.verified is True
        doc = response.to_dict()
        assert doc["verified"] is True
        assert doc["measurement"]["abft"]["stats"]["verified"] is True
        # and the wire form round-trips
        assert doc.get("schema_version", SCHEMA_VERSION) == SCHEMA_VERSION
        again = response_from_wire(json.loads(json.dumps(doc)))
        assert again.verified is True

    def test_unprotected_job_omits_verified(self):
        response = self._serve(chol_request(algorithm="lapack", n=32, M=96))
        assert response.status == "done"
        assert response.verified is None
        doc = response.to_dict()
        assert "verified" not in doc
        assert "abft" not in doc["measurement"]
        again = response_from_wire(json.loads(json.dumps(doc)))
        assert again.verified is None
