"""Tests for repro.experiment.store (corpus persistence)."""

import hashlib
import json

import pytest

from repro.analysis.context import CorpusAnalysis
from repro.analysis.tables import table2, table7
from repro.errors import StoreError
from repro.experiment.store import (CHUNK_COLUMNS, chunk_file, chunk_paths,
                                    load_corpus, save_corpus)


@pytest.fixture(scope="module")
def roundtripped(tmp_path_factory, tiny_corpus):
    path = tmp_path_factory.mktemp("corpus") / "run1"
    save_corpus(tiny_corpus, path)
    return load_corpus(path)


class TestRoundtrip:
    def test_packet_counts_preserved(self, tiny_corpus, roundtripped):
        for telescope in tiny_corpus.telescopes():
            assert len(roundtripped.packets(telescope)) \
                == len(tiny_corpus.packets(telescope))

    def test_packet_fields_preserved(self, tiny_corpus, roundtripped):
        original = tiny_corpus.packets("T1")[:100]
        loaded = roundtripped.packets("T1")[:100]
        for a, b in zip(original, loaded):
            assert a.time == b.time
            assert a.src == b.src
            assert a.dst == b.dst
            assert a.protocol == b.protocol
            assert a.dst_port == b.dst_port
            assert a.src_asn == b.src_asn
            assert a.scanner_id == b.scanner_id

    def test_payloads_preserved(self, tiny_corpus, roundtripped):
        original = [p.payload for p in tiny_corpus.packets("T1")
                    if p.payload]
        loaded = [p.payload for p in roundtripped.packets("T1")
                  if p.payload]
        assert original[:50] == loaded[:50]
        assert len(original) == len(loaded)

    def test_schedule_preserved(self, tiny_corpus, roundtripped):
        assert roundtripped.schedule == tiny_corpus.schedule

    def test_registry_preserved(self, tiny_corpus, roundtripped):
        for packet in tiny_corpus.packets("T1")[:50]:
            original = tiny_corpus.registry.lookup_source(packet.src)
            loaded = roundtripped.registry.lookup_source(packet.src)
            assert original is not None and loaded is not None
            assert original.asn == loaded.asn
            assert original.network_type == loaded.network_type

    def test_rdns_preserved(self, tiny_corpus, roundtripped):
        named = [p.src for p in tiny_corpus.packets("T1")
                 if tiny_corpus.rdns(p.src)]
        assert named, "tiny corpus should contain RDNS-named sources"
        for src in named[:10]:
            assert roundtripped.rdns(src) == tiny_corpus.rdns(src)

    def test_analyses_agree(self, tiny_corpus, roundtripped):
        original = table2(CorpusAnalysis(tiny_corpus))
        loaded = table2(CorpusAnalysis(roundtripped))
        assert original.packets == loaded.packets
        assert original.sessions == loaded.sessions

    def test_tool_identification_survives(self, tiny_corpus,
                                          roundtripped):
        original = table7(CorpusAnalysis(tiny_corpus))
        loaded = table7(CorpusAnalysis(roundtripped))
        assert set(original.per_tool) == set(loaded.per_tool)


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError):
            load_corpus(tmp_path / "nothing-here")

    def test_bad_format_version(self, tmp_path, tiny_corpus):
        path = tmp_path / "run"
        save_corpus(tiny_corpus, path)
        meta = path / "meta.json"
        meta.write_text(meta.read_text().replace(
            '"format_version": 2', '"format_version": 99'))
        with pytest.raises(StoreError):
            load_corpus(path)

    def test_old_format_names_config_to_rebuild(self, tmp_path,
                                                tiny_corpus):
        path = tmp_path / "run"
        save_corpus(tiny_corpus, path)
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreError) as exc_info:
            load_corpus(path)
        assert exc_info.value.check == "format_version"
        message = str(exc_info.value)
        assert f"seed {tiny_corpus.config.seed}" in message
        assert f"scale {tiny_corpus.config.scale}" in message
        assert "rebuild" in message

    def test_bad_verify_mode(self, tmp_path, tiny_corpus):
        path = tmp_path / "run"
        save_corpus(tiny_corpus, path)
        with pytest.raises(StoreError):
            load_corpus(path, verify="sometimes")


class TestStoreIntegrity:
    """Damaged chunk files surface as StoreError, not a traceback.

    These use the default chunk size; quarantine of one chunk among
    many siblings is covered in ``tests/test_store_v2.py``
    (``TestChunkQuarantine``).
    """

    @pytest.fixture()
    def saved(self, tmp_path, tiny_corpus):
        path = tmp_path / "run"
        save_corpus(tiny_corpus, path)
        return path

    @staticmethod
    def _truncate(path, keep):
        blob = path.read_bytes()
        path.write_bytes(blob[:int(len(blob) * keep)])

    def test_truncated_segment(self, saved):
        # one sha256 covers all of a chunk's column files; a failed
        # check names the chunk's time file
        victim = chunk_paths(saved, "T3", "time")[0]
        self._truncate(victim, 1 / 2)
        corpus = load_corpus(saved)
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T3").materialize()
        assert exc_info.value.check == "sha256"
        assert exc_info.value.path == victim

    def test_bit_flipped_segment(self, saved):
        victim = chunk_paths(saved, "T1", "time")[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        corpus = load_corpus(saved)
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T1").materialize()
        assert exc_info.value.check == "sha256"

    def test_missing_segment(self, saved):
        victim = chunk_paths(saved, "T4", "time")[0]
        victim.unlink()
        corpus = load_corpus(saved)
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T4").materialize()
        assert exc_info.value.check == "exists"
        assert exc_info.value.path == victim

    def test_lenient_load_quarantines(self, saved, tiny_corpus):
        import warnings
        from repro.analysis.degrade import DegradationWarning
        for victim in chunk_paths(saved, "T3", "time"):
            self._truncate(victim, 1 / 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(saved, strict=False)
            table = corpus.table("T3").materialize()
        warned = [w for w in caught
                  if issubclass(w.category, DegradationWarning)]
        assert warned and warned[0].message.telescope == "T3"
        assert len(table) == 0
        gaps = corpus.coverage_gaps["T3"]
        assert gaps[0][0] == 0.0
        assert gaps[-1][1] == corpus.config.duration
        assert corpus.covered_fraction("T3") == 0.0
        assert "T1" not in corpus.coverage_gaps
        assert len(corpus.table("T1")) == len(tiny_corpus.table("T1"))

    def test_unreadable_chunk_wrapped(self, saved):
        """A numpy read failure under a matching checksum still
        surfaces as StoreError(check="read")."""
        victim = chunk_paths(saved, "T2", "time")[0]
        self._truncate(victim, 1 / 3)
        meta_path = saved / "meta.json"
        meta = json.loads(meta_path.read_text())
        entry = meta["store"]["chunks"]["T2"][0]
        hasher = hashlib.sha256()
        for column in CHUNK_COLUMNS:
            hasher.update(chunk_file(victim.parent, entry["name"],
                                     column).read_bytes())
        entry["sha256"] = hasher.hexdigest()
        meta_path.write_text(json.dumps(meta))
        corpus = load_corpus(saved)
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T2").materialize()
        assert exc_info.value.check == "read"
        assert exc_info.value.path == victim

    def test_coverage_gaps_round_trip(self, tmp_path, tiny_corpus):
        import dataclasses
        gapped = dataclasses.replace(
            tiny_corpus, coverage_gaps={"T2": ((10.0, 20.0),)},
            packets_by_telescope=dict(tiny_corpus.packets_by_telescope),
            tables_by_telescope=dict(tiny_corpus.tables_by_telescope))
        path = tmp_path / "gapped"
        save_corpus(gapped, path)
        loaded = load_corpus(path)
        assert loaded.coverage_gaps == {"T2": ((10.0, 20.0),)}
