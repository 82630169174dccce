"""Tests for the out-of-core chunked columnar store (DESIGN §9).

Differential coverage: a saved store must load back equal to the
in-memory corpus, ``corpus_digest`` must be invariant across chunk sizes
and shard counts, and chunk-granularity quarantine must leave sibling
chunks readable.
"""

import json
import math
import warnings

import numpy as np
import pytest

from repro import obs
from repro.analysis.context import CorpusAnalysis
from repro.analysis.degrade import DegradationWarning
from repro.analysis.tables import table2
from repro.core.columnar import ChunkedPacketTable
from repro.errors import StoreError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.phases import Phase
from repro.experiment.store import corpus_digest, load_corpus, save_corpus

COLUMNS = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo", "protocol",
           "dst_port", "src_asn", "scanner_id")


def _rows_for_chunks(corpus, num_chunks: int) -> int:
    """A chunk_rows value giving every non-empty telescope about
    ``num_chunks`` chunks (at least one)."""
    largest = max(len(corpus.table(t)) for t in corpus.telescopes())
    return max(1, math.ceil(largest / num_chunks))


@pytest.fixture(scope="module")
def store(tmp_path_factory, tiny_corpus):
    """An 8-chunk save of the tiny corpus."""
    path = tmp_path_factory.mktemp("stores") / "chunked"
    save_corpus(tiny_corpus, path,
                chunk_rows=_rows_for_chunks(tiny_corpus, 8))
    return path


class TestDifferential:
    def test_loads_equal_to_saved_corpus(self, store, tiny_corpus):
        loaded = load_corpus(store)
        for telescope in tiny_corpus.telescopes():
            a = tiny_corpus.table(telescope).time_sorted()
            b = loaded.table(telescope).materialize()
            assert len(a) == len(b)
            for column in COLUMNS:
                assert np.array_equal(getattr(a, column),
                                      getattr(b, column)), \
                    (telescope, column)
            off_a, blob_a = a.payload_blob()
            off_b, blob_b = b.payload_blob()
            assert np.array_equal(off_a, off_b)
            assert np.array_equal(blob_a, blob_b)

    def test_digest_invariant_across_formats(self, store, tiny_corpus,
                                             tmp_path):
        """In-memory tables, the lazy chunk store and a store re-saved
        from that lazy corpus all share one digest."""
        expected = corpus_digest(tiny_corpus)
        lazy = load_corpus(store)
        assert isinstance(lazy.table("T1"), ChunkedPacketTable)
        assert corpus_digest(lazy) == expected
        save_corpus(lazy, tmp_path / "resaved",
                    chunk_rows=_rows_for_chunks(tiny_corpus, 3))
        assert corpus_digest(load_corpus(tmp_path / "resaved")) == expected

    @pytest.mark.parametrize("num_chunks", [1, 4, 16])
    def test_digest_invariant_across_chunk_sizes(self, tmp_path,
                                                 tiny_corpus, num_chunks):
        path = tmp_path / f"chunks{num_chunks}"
        save_corpus(tiny_corpus, path,
                    chunk_rows=_rows_for_chunks(tiny_corpus, num_chunks))
        loaded = load_corpus(path)
        meta = json.loads((path / "meta.json").read_text())
        largest = max(len(meta["store"]["chunks"][t])
                      for t in tiny_corpus.telescopes())
        assert largest == num_chunks
        assert corpus_digest(loaded) == corpus_digest(tiny_corpus)

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_digest_invariant_across_shard_counts(self, tmp_path,
                                                  tiny_corpus, num_shards):
        result = run_experiment(ExperimentConfig.tiny(), shards=num_shards)
        assert corpus_digest(result.corpus) == corpus_digest(tiny_corpus)
        # and a sharded corpus saves/loads through the v2 store unchanged
        path = tmp_path / f"shards{num_shards}"
        save_corpus(result.corpus, path,
                    chunk_rows=_rows_for_chunks(result.corpus, 4))
        assert corpus_digest(load_corpus(path)) == corpus_digest(tiny_corpus)


class TestPushdown:
    def test_phase_slice_opens_subset_of_chunks(self, store):
        corpus = load_corpus(store)
        table = corpus.table("T1")
        assert isinstance(table, ChunkedPacketTable)
        assert table.bytes_opened() == 0
        sliced = corpus.phase_table("T1", Phase.INITIAL)
        assert len(sliced)
        assert 0 < table.bytes_opened() < table.bytes_total
        # the slice equals the materialized table's slice
        start, end = (0.0, corpus.config.baseline_weeks * 7 * 86400.0)
        full = corpus.table("T2").materialize()  # untouched telescope
        assert np.array_equal(
            sliced.time, table.materialize().slice_time(start, end).time)
        assert len(full) == len(corpus.table("T2"))

    def test_phase_packets_pushdown_matches_filter(self, store,
                                                   tiny_corpus):
        corpus = load_corpus(store)
        packets = corpus.phase_packets("T3", Phase.INITIAL)
        start, end = (0.0, corpus.config.baseline_weeks * 7 * 86400.0)
        expected = [p for p in tiny_corpus.packets("T3")
                    if start <= p.time < end]
        assert [(p.time, p.src, p.dst) for p in packets] \
            == [(p.time, p.src, p.dst) for p in expected]

    def test_len_needs_no_io(self, store, tiny_corpus):
        corpus = load_corpus(store)
        for telescope in corpus.telescopes():
            table = corpus.table(telescope)
            assert len(table) == len(tiny_corpus.table(telescope))
            assert table.bytes_opened() == 0


class TestChunkQuarantine:
    @pytest.fixture()
    def saved(self, tmp_path, tiny_corpus):
        path = tmp_path / "run"
        save_corpus(tiny_corpus, path,
                    chunk_rows=_rows_for_chunks(tiny_corpus, 8))
        return path

    def _corrupt_one_chunk(self, path, telescope="T1", index=1):
        manifest = json.loads((path / "meta.json").read_text())[
            "store"]["chunks"][telescope]
        entry = manifest[index]
        victim = path / telescope / f"{entry['name']}.time.npy"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        return entry

    def test_strict_raises_on_first_touch(self, saved):
        self._corrupt_one_chunk(saved)
        corpus = load_corpus(saved)  # lazy: no error yet
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T1").materialize()
        assert exc_info.value.check == "sha256"

    def test_eager_verify_raises_at_load(self, saved):
        self._corrupt_one_chunk(saved)
        with pytest.raises(StoreError):
            load_corpus(saved, verify="eager")

    def test_lenient_quarantines_only_the_bad_chunk(self, saved,
                                                    tiny_corpus):
        entry = self._corrupt_one_chunk(saved, telescope="T1", index=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(saved, strict=False)
            table = corpus.table("T1").materialize()
        warned = [w for w in caught
                  if issubclass(w.category, DegradationWarning)]
        assert warned and warned[0].message.telescope == "T1"
        # exactly the bad chunk's rows are gone; siblings stay readable
        assert len(table) == len(tiny_corpus.table("T1")) - entry["rows"]
        # its time window is now a coverage gap
        gaps = corpus.coverage_gaps["T1"]
        assert len(gaps) == 1
        gap_start, gap_end = gaps[0]
        assert gap_start <= entry["t_min"] <= entry["t_max"] <= gap_end
        assert 0.0 < corpus.covered_fraction("T1") < 1.0
        # untouched telescopes stay pristine
        assert "T2" not in corpus.coverage_gaps
        assert len(corpus.table("T2")) == len(tiny_corpus.table("T2"))

    def test_all_chunks_quarantined_covers_whole_run(self, saved):
        manifest = json.loads((saved / "meta.json").read_text())[
            "store"]["chunks"]["T4"]
        for index in range(len(manifest)):
            self._corrupt_one_chunk(saved, telescope="T4", index=index)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            corpus = load_corpus(saved, strict=False)
            corpus.table("T4").materialize()
        assert len(corpus.table("T4")) == 0
        assert corpus.covered_fraction("T4") == 0.0

    def test_missing_chunk_file(self, saved):
        manifest = json.loads((saved / "meta.json").read_text())[
            "store"]["chunks"]["T2"]
        (saved / "T2" / f"{manifest[0]['name']}.port.npy").unlink()
        corpus = load_corpus(saved)
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T2").materialize()
        assert exc_info.value.check == "exists"


class TestObservability:
    def test_chunk_counters_and_bytes_gauge(self, store):
        with obs.FlightRecorder() as recorder:
            corpus = load_corpus(store)
            corpus.phase_table("T1", Phase.INITIAL)
        snapshot = recorder.metrics.snapshot()
        opened = [key for key in snapshot["counters"]
                  if key.startswith("store.chunks_opened_total")]
        verified = [key for key in snapshot["counters"]
                    if key.startswith("store.chunks_verified_total")]
        mapped = [key for key in snapshot["gauges"]
                  if key.startswith("store.bytes_mapped")]
        assert opened and verified and mapped


class TestColdAnalysis:
    def test_cold_table2_opens_and_verifies_each_chunk_once(self, store):
        """The load reads only the manifest; a cold analysis then opens
        and verifies every chunk exactly once. (perfbench ``reproduce``
        times the cold load: its ``store.load_corpus.wall_s`` row.)"""
        manifest = json.loads((store / "meta.json").read_text())[
            "store"]["chunks"]

        def counts(recorder, name):
            return {telescope: recorder.metrics.counter(
                        name, telescope=telescope).value
                    for telescope in manifest}

        with obs.FlightRecorder() as recorder:
            corpus = load_corpus(store)
            for name in ("store.chunks_opened_total",
                         "store.chunks_verified_total"):
                assert counts(recorder, name) \
                    == dict.fromkeys(manifest, 0.0)
            table2(CorpusAnalysis(corpus))
            for name in ("store.chunks_opened_total",
                         "store.chunks_verified_total"):
                assert counts(recorder, name) == {
                    telescope: float(len(chunks))
                    for telescope, chunks in manifest.items()}
