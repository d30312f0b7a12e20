"""Tests for the compressed binary artifact store (pack file + LRU)."""

import json

import pytest

from repro.core import BenchmarkDatabase, Selection
from repro.core.bench import BenchmarkFile
from repro.core.selection import AbstractionLevel
from repro.core.store import (
    PACK_INDEX_NAME,
    PACK_MAGIC,
    PACK_NAME,
    ArtifactNotFoundError,
    ArtifactStore,
)
from repro.io import layout_to_fgl
from repro.networks.library import full_adder, mux21, xor2
from repro.physical_design import orthogonal_layout


def fgl_texts(count=3):
    """Distinct canonical .fgl payloads (one per factory, cycled)."""
    factories = (mux21, xor2, full_adder)
    texts = []
    for i in range(count):
        layout = orthogonal_layout(factories[i % len(factories)]()).layout
        layout.name = f"{layout.name}_{i}"
        texts.append(layout_to_fgl(layout))
    return texts


class TestPackRoundTrip:
    def test_byte_identical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        text = fgl_texts(1)[0]
        store.add_text("s/a.fgl", text)
        assert store.is_packed("s/a.fgl")
        assert store.read_text("s/a.fgl") == text

    def test_many_entries_random_payloads(self, tmp_path, rng):
        store = ArtifactStore(tmp_path)
        payloads = {}
        for i in range(20):
            text = "".join(
                rng.choice('abc<>&"é☃ \n') for _ in range(rng.randrange(1, 200))
            )
            payloads[f"s/p{i}.fgl"] = text
            store.add_text(f"s/p{i}.fgl", text)
        store.save()
        reloaded = ArtifactStore(tmp_path)
        for relpath, text in payloads.items():
            assert reloaded.read_text(relpath) == text
        reloaded.close()

    def test_persists_across_instances(self, tmp_path):
        text = fgl_texts(1)[0]
        store = ArtifactStore(tmp_path)
        store.add_text("s/a.fgl", text)
        store.save()
        assert (tmp_path / PACK_NAME).exists()
        assert (tmp_path / PACK_INDEX_NAME).exists()
        reloaded = ArtifactStore(tmp_path)
        assert reloaded.is_packed("s/a.fgl")
        assert reloaded.read_text("s/a.fgl") == text
        reloaded.close()

    def test_compresses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i, text in enumerate(fgl_texts(3)):
            store.add_text(f"s/{i}.fgl", text)
        stats = store.stats()
        assert stats["packed_entries"] == 3
        assert stats["pack_bytes"] < stats["uncompressed_bytes"]


class TestLooseFallback:
    def test_unpacked_path_reads_loose_file(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "legacy.fgl").write_text("<fgl/>", encoding="utf-8")
        store = ArtifactStore(tmp_path)
        assert not store.is_packed("s/legacy.fgl")
        assert store.read_text("s/legacy.fgl") == "<fgl/>"

    def test_missing_everywhere_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.read_text("s/nope.fgl")


class TestCorruptionRecovery:
    @staticmethod
    def _packed_with_loose(tmp_path, text):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "a.fgl").write_text(text, encoding="utf-8")
        store = ArtifactStore(tmp_path)
        store.add_text("s/a.fgl", text)
        store.save()
        store.close()
        return tmp_path / PACK_NAME

    def test_corrupted_slice_recovers_from_loose_file(self, tmp_path):
        text = fgl_texts(1)[0]
        pack = self._packed_with_loose(tmp_path, text)
        blob = bytearray(pack.read_bytes())
        blob[len(PACK_MAGIC) + 4] ^= 0xFF  # flip a payload byte
        pack.write_bytes(bytes(blob))
        store = ArtifactStore(tmp_path)
        assert store.read_text("s/a.fgl") == text
        # The damaged entry was dropped; the path now serves loose-only.
        assert not store.is_packed("s/a.fgl")
        store.close()

    def test_truncated_pack_skips_stale_tail(self, tmp_path):
        first, second = fgl_texts(2)
        store = ArtifactStore(tmp_path)
        store.add_text("s/first.fgl", first)
        boundary = (tmp_path / PACK_NAME).stat().st_size
        store.add_text("s/second.fgl", second)
        store.save()
        store.close()
        with open(tmp_path / PACK_NAME, "rb+") as handle:
            handle.truncate(boundary)
        reloaded = ArtifactStore(tmp_path)
        assert reloaded.is_packed("s/first.fgl")
        assert not reloaded.is_packed("s/second.fgl")
        assert reloaded.read_text("s/first.fgl") == first
        reloaded.close()

    def test_bad_magic_disables_pack(self, tmp_path):
        text = fgl_texts(1)[0]
        pack = self._packed_with_loose(tmp_path, text)
        blob = bytearray(pack.read_bytes())
        blob[0] ^= 0xFF
        pack.write_bytes(bytes(blob))
        store = ArtifactStore(tmp_path)
        assert not store.is_packed("s/a.fgl")
        assert store.read_text("s/a.fgl") == text

    def test_garbage_sidecar_degrades_to_loose(self, tmp_path):
        text = fgl_texts(1)[0]
        self._packed_with_loose(tmp_path, text)
        (tmp_path / PACK_INDEX_NAME).write_text("{not json", encoding="utf-8")
        store = ArtifactStore(tmp_path)
        assert not store.is_packed("s/a.fgl")
        assert store.read_text("s/a.fgl") == text


class TestLayoutCache:
    def test_lru_bounded(self, tmp_path):
        store = ArtifactStore(tmp_path, layout_cache_size=2)
        for i, text in enumerate(fgl_texts(3)):
            store.add_text(f"s/{i}.fgl", text)
            store.load_layout(f"s/{i}.fgl")
        assert store.stats()["cache_entries"] <= 2

    def test_repeat_load_hits_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.add_text("s/a.fgl", fgl_texts(1)[0])
        store.load_layout("s/a.fgl")
        before = store.stats()["cache_hits"]
        store.load_layout("s/a.fgl")
        assert store.stats()["cache_hits"] == before + 1

    def test_served_clone_is_isolated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.add_text("s/a.fgl", fgl_texts(1)[0])
        first = store.load_layout("s/a.fgl")
        second = store.load_layout("s/a.fgl")
        assert first is not second
        first.name = "mutated"
        assert store.load_layout("s/a.fgl").name != "mutated"

    def test_corrupt_slice_fallback_is_cached_under_the_loose_digest(self, tmp_path):
        """A corrupt slice's loose fallback may not match its entry: it is
        cached under its own digest, so a path whose slice does carry the
        entry's content never gets the fallback's layout."""
        packed, loose = fgl_texts(2)
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "a.fgl").write_text(loose, encoding="utf-8")
        store = ArtifactStore(tmp_path)
        store.add_text("s/a.fgl", packed)
        store.add_text("s/b.fgl", packed)
        store.save()
        offset = store.entry("s/a.fgl")["offset"]
        store.close()
        pack = tmp_path / PACK_NAME
        blob = bytearray(pack.read_bytes())
        blob[offset + 4] ^= 0xFF  # flip a payload byte of a's slice only
        pack.write_bytes(bytes(blob))
        store = ArtifactStore(tmp_path)
        entries, _ = ArtifactStore.load_entries(tmp_path)  # a snapshot's table
        assert layout_to_fgl(store.load_layout("s/a.fgl", entries=entries)) == loose
        assert layout_to_fgl(store.load_layout("s/b.fgl", entries=entries)) == packed
        assert store.stats()["cache_entries"] == 2
        store.close()

    def test_zero_cache_size_still_serves(self, tmp_path):
        store = ArtifactStore(tmp_path, layout_cache_size=0)
        text = fgl_texts(1)[0]
        store.add_text("s/a.fgl", text)
        assert layout_to_fgl(store.load_layout("s/a.fgl")) == text
        assert store.stats()["cache_entries"] == 0


def make_legacy_db(root, count=3):
    """A pre-pack database: index.json + loose .fgl files only."""
    texts = {}
    records = []
    for i, text in enumerate(fgl_texts(count)):
        relpath = f"legacy/f{i}_ONE_2DDWave_ortho.fgl"
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        texts[relpath] = text
        records.append(
            {
                "suite": "legacy",
                "name": f"f{i}",
                "abstraction_level": "gate-level",
                "path": relpath,
                "gate_library": "QCA ONE",
                "clocking_scheme": "2DDWave",
                "algorithm": "ortho",
                "optimizations": [],
                "width": 3 + i,
                "height": 3,
                "area": (3 + i) * 3,
            }
        )
    (root / "index.json").write_text(json.dumps({"files": records}), encoding="utf-8")
    return texts


class TestDatabasePack:
    def test_pack_migrates_legacy_database(self, tmp_path):
        texts = make_legacy_db(tmp_path)
        db = BenchmarkDatabase(tmp_path)
        stats = db.pack()
        assert stats["packed"] == len(texts)
        assert stats["already_packed"] == 0
        for record in db.files():
            assert db.store.is_packed(record.path)
            assert db.artifact_text(record) == texts[record.path]

    def test_pack_is_idempotent(self, tmp_path):
        texts = make_legacy_db(tmp_path)
        db = BenchmarkDatabase(tmp_path)
        db.pack()
        stats = db.pack()
        assert stats["packed"] == 0
        assert stats["already_packed"] == len(texts)

    def test_legacy_database_serves_without_pack(self, tmp_path):
        texts = make_legacy_db(tmp_path)
        db = BenchmarkDatabase(tmp_path)
        for record in db.files():
            assert db.artifact_text(record) == texts[record.path]
            assert layout_to_fgl(db.load_layout(record)) == texts[record.path]

    def test_corrupted_pack_database_recovery(self, tmp_path):
        texts = make_legacy_db(tmp_path)
        db = BenchmarkDatabase(tmp_path)
        db.pack()
        db.store.close()
        pack = tmp_path / PACK_NAME
        blob = bytearray(pack.read_bytes())
        for i in range(len(PACK_MAGIC), len(blob)):
            blob[i] ^= 0xFF  # destroy every payload byte
        pack.write_bytes(bytes(blob))
        recovered = BenchmarkDatabase(tmp_path)
        for record in recovered.files():
            assert recovered.artifact_text(record) == texts[record.path]

    def test_pack_reports_missing_loose_files(self, tmp_path):
        make_legacy_db(tmp_path, count=2)
        (tmp_path / "legacy" / "f0_ONE_2DDWave_ortho.fgl").unlink()
        db = BenchmarkDatabase(tmp_path)
        stats = db.pack()
        assert stats["missing"] == 1
        assert stats["packed"] == 1

    def test_best_only_query_unaffected_by_pack(self, tmp_path):
        make_legacy_db(tmp_path)
        db = BenchmarkDatabase(tmp_path)
        before = db.query(Selection.make(best_only=True))
        db.pack()
        after = db.query(Selection.make(best_only=True))
        assert before == after

    def test_network_records_stay_loose(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        (tmp_path / "legacy").mkdir(exist_ok=True)
        (tmp_path / "legacy" / "f0.v").write_text("module f0; endmodule\n")
        db._records.append(
            BenchmarkFile(
                suite="legacy",
                name="f0",
                abstraction_level=AbstractionLevel.NETWORK,
                path="legacy/f0.v",
            )
        )
        stats = db.pack()
        assert stats["packed_entries"] == 0
        assert db.artifact_text(db.files()[0]) == "module f0; endmodule\n"


class TestArtifactNotFoundError:
    """The typed 404: store/database misses name the artifact and stay
    catchable under the historical exception types."""

    def test_store_miss_raises_typed_error(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactNotFoundError) as excinfo:
            store.read_text("s/nope.fgl")
        assert excinfo.value.artifact_id == "s/nope.fgl"
        assert "s/nope.fgl" in str(excinfo.value)

    def test_typed_error_is_keyerror_and_filenotfounderror(self):
        error = ArtifactNotFoundError("s/x.fgl")
        assert isinstance(error, KeyError)
        assert isinstance(error, FileNotFoundError)
        # str() must read like a message, not KeyError's repr-quoting.
        assert str(error).startswith("artifact 's/x.fgl' not found")

    def test_database_gate_level_miss(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        record = BenchmarkFile(
            suite="s",
            name="ghost",
            abstraction_level=AbstractionLevel.GATE_LEVEL,
            path="s/ghost.fgl",
        )
        with pytest.raises(ArtifactNotFoundError, match="s/ghost.fgl"):
            db.artifact_text(record)

    def test_database_network_miss(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        record = BenchmarkFile(
            suite="s",
            name="ghost",
            abstraction_level=AbstractionLevel.NETWORK,
            path="s/ghost.v",
        )
        with pytest.raises(ArtifactNotFoundError, match="s/ghost.v"):
            db.artifact_text(record)

    def test_load_layout_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactNotFoundError):
            store.load_layout("s/nope.fgl")
