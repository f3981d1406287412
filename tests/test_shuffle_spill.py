"""The out-of-core shuffle: segment files, external merge, spill store.

Three layers of guarantees:

* the segment wire format round-trips and *fails loudly* — truncated,
  concatenated and corrupted files raise ``ValueError``s naming the path and
  the expected-vs-actual lengths;
* the spill-merge path is a drop-in replacement for the in-memory dict
  shuffle: a hypothesis property drives mixed-type keys (str/int/tuple/numpy
  scalars) through ``SpillMapWriter`` + ``merged_segment_groups`` and checks
  the groups — order included — against the exact dict + ``sorted(...,
  key=shuffle_sort_key)`` oracle the in-memory backend runs;
* whole jobs produce bit-identical fingerprints on both backends, spills
  included, with combiners, retries, early-exiting reducers and zero-row
  blocks.
"""

from __future__ import annotations

import pickle
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    SEGMENT_CODECS,
    ChaosPlan,
    ChaosRule,
    Context,
    HashPartitioner,
    LocalRuntime,
    Mapper,
    MapReduceJob,
    RecordBlock,
    Reducer,
    SpillShuffleStore,
    available_shuffle_backends,
    estimate_bytes,
    get_shuffle_store,
    iter_segment,
    merged_segment_groups,
    record_count,
    resolve_segment_codec,
    shuffle_sort_key,
    split_records,
    write_segment,
)
from repro.mapreduce.shuffle import (
    _ENTRY_HEADER,
    _SEGMENT_HEADER,
    _SEGMENT_MAGIC,
    _SEGMENT_VERSION,
    SpillMapWriter,
    SpillSpec,
    read_segment_codec,
    read_segment_header,
)
from repro.mapreduce.serialization import encode_record_block
from tests.test_shuffle_accounting import rows_block

# -- helpers -------------------------------------------------------------------


def sample_block(rows: int = 3, dims: int = 2) -> RecordBlock:
    rng = np.random.default_rng(5)
    return RecordBlock(
        is_r=np.array([True, False, True][:rows]),
        object_ids=np.arange(rows, dtype=np.int64),
        points=rng.random((rows, dims)),
        payloads=np.zeros(rows, dtype=np.int64),
        partition_ids=np.arange(rows, dtype=np.int64),
        pivot_distances=rng.random(rows),
    )


def entry_rows(pairs, task=0):
    """Writer-format rows for :func:`write_segment` (accounting zeroed)."""
    return [(task, seq, key, value, 1, 0) for seq, (key, value) in enumerate(pairs)]


def sorted_rows(pairs, task=0):
    rows = entry_rows(pairs, task)
    rows.sort(key=lambda row: (shuffle_sort_key(row[2]), row[1]))
    return rows


# -- segment wire format -------------------------------------------------------


class TestSegmentFormat:
    def test_roundtrip_mixed_values(self, tmp_path):
        pairs = [("a", 1), ("a", (2.5, "x")), (3, [1, 2]), (3, None)]
        segment = write_segment(tmp_path / "s.seg", 0, sorted_rows(pairs, task=7))
        assert segment.entries == 4
        entries = list(iter_segment(segment.path))
        assert all(task == 7 for task, _, _, _ in entries)
        decoded = [(key, value) for _, _, key, value in entries]
        assert decoded == [(3, [1, 2]), (3, None), ("a", 1), ("a", (2.5, "x"))]

    def test_roundtrip_record_block(self, tmp_path):
        block = sample_block()
        segment = write_segment(
            tmp_path / "b.seg", 0, [(0, 0, 5, block, len(block), 123)]
        )
        assert segment.records == len(block)
        assert segment.accounted_bytes == 123
        ((_, _, key, decoded),) = list(iter_segment(segment.path))
        assert key == 5
        assert isinstance(decoded, RecordBlock)
        assert np.array_equal(decoded.points, block.points)
        assert np.array_equal(decoded.is_r, block.is_r)

    def test_header_carries_accounting(self, tmp_path):
        from repro.mapreduce.shuffle import read_segment_header

        rows = [(3, 0, "k", 1, 4, 100), (3, 1, "k", 2, 1, 50)]
        write_segment(tmp_path / "h.seg", 0, rows)
        entries, records, accounted = read_segment_header(tmp_path / "h.seg")
        assert (entries, records, accounted) == (2, 5, 150)

    def test_streaming_writer_accepts_generators(self, tmp_path):
        # write_segment never buffers the whole run: a generator works and
        # the patched-in header still carries the exact totals
        rows = ((0, seq, seq, float(seq), 1, 10) for seq in range(100))
        segment = write_segment(tmp_path / "g.seg", 0, rows)
        assert (segment.entries, segment.records, segment.accounted_bytes) == (
            100, 100, 1000,
        )
        assert [key for _, _, key, _ in iter_segment(segment.path)] == list(range(100))

    def test_truncated_file_names_path_and_lengths(self, tmp_path):
        path = tmp_path / "t.seg"
        write_segment(path, 0, sorted_rows([("a", 1), ("b", 2)]))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match=r"truncated segment file .*t\.seg"):
            list(iter_segment(path))
        # the error reports what was expected vs what was found
        with pytest.raises(ValueError, match=r"expected \d+ more bytes"):
            list(iter_segment(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.seg"
        path.write_bytes(b"SSEG\x01")
        with pytest.raises(ValueError, match="truncated segment file"):
            list(iter_segment(path))

    def test_concatenated_files_rejected(self, tmp_path):
        path = tmp_path / "c.seg"
        write_segment(path, 0, sorted_rows([("a", 1)]))
        data = path.read_bytes()
        path.write_bytes(data + data)  # two segments cat'ed together
        with pytest.raises(ValueError, match=r"trailing bytes .* concatenated"):
            list(iter_segment(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.seg"
        write_segment(path, 0, sorted_rows([("a", 1)]))
        data = path.read_bytes()
        path.write_bytes(b"XSEG" + data[4:])
        with pytest.raises(ValueError, match="bad magic"):
            list(iter_segment(path))

    def test_corrupt_block_payload_names_segment(self, tmp_path):
        # framing is intact but the RecordBlock payload is short: the decode
        # error must surface the segment path and the length mismatch
        block = sample_block()
        key_blob = pickle.dumps(0)
        bad_payload = encode_record_block(block)[:-8]
        blob = _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, _SEGMENT_VERSION, 0, 1, 3, 0)
        crc = zlib.crc32(bad_payload, zlib.crc32(key_blob))  # honest CRC:
        # the corruption must be caught by the *decode*, not the checksum
        blob += _ENTRY_HEADER.pack(
            0, 0, len(key_blob), len(bad_payload), RecordBlock.wire_tag, crc
        )
        blob += key_blob + bad_payload
        path = tmp_path / "bad-block.seg"
        path.write_bytes(blob)
        with pytest.raises(
            ValueError, match=r"segment file .*bad-block\.seg.*truncated RecordBlock"
        ):
            list(iter_segment(path))

    def test_iter_segment_reads_header_and_entries_from_one_handle(
        self, tmp_path, monkeypatch
    ):
        import builtins

        from repro.mapreduce import shuffle

        path = tmp_path / "one.seg"
        write_segment(path, 0, sorted_rows([("a", 1), ("b", 2)]))
        opened = []
        monkeypatch.setattr(
            shuffle, "open",
            lambda *args, **kwargs: opened.append(args) or builtins.open(*args, **kwargs),
            raising=False,
        )
        assert [(key, value) for _, _, key, value in iter_segment(path)] == [
            ("a", 1), ("b", 2),
        ]
        assert len(opened) == 1

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v.seg"
        blob = struct.pack("<4sHBIQQ", _SEGMENT_MAGIC, 99, 0, 0, 0, 0)
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="version 99"):
            list(iter_segment(path))


# -- segment compression codecs ------------------------------------------------


class TestSegmentCodecs:
    PAIRS = [("a", list(range(64))), ("a", "x" * 256), (3, None), (7, 1.5)]

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_roundtrip_every_available_codec(self, tmp_path, codec):
        segment = write_segment(
            tmp_path / f"{codec}.seg", 0, sorted_rows(self.PAIRS), codec=codec
        )
        assert segment.codec == codec
        assert read_segment_codec(segment.path) == codec
        decoded = [(key, value) for _, _, key, value in iter_segment(segment.path)]
        expected = [(row[2], row[3]) for row in sorted_rows(self.PAIRS)]
        assert decoded == expected

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_record_block_roundtrip(self, tmp_path, codec):
        block = sample_block()
        segment = write_segment(
            tmp_path / "b.seg", 0, [(0, 0, 5, block, len(block), 77)], codec=codec
        )
        ((_, _, key, decoded),) = list(iter_segment(segment.path))
        assert key == 5
        assert np.array_equal(decoded.points, block.points)
        assert np.array_equal(decoded.object_ids, block.object_ids)

    def test_accounting_is_codec_invariant(self, tmp_path):
        # accounted bytes are measured on the UNCOMPRESSED records, so the
        # shuffle-cost exhibits cannot move when compression is switched on
        rows = [(0, 0, "k", "v" * 400, 3, 123), (0, 1, "k", "w" * 400, 2, 456)]
        headers = set()
        for codec in SEGMENT_CODECS:
            write_segment(tmp_path / f"{codec}.seg", 0, list(rows), codec=codec)
            headers.add(read_segment_header(tmp_path / f"{codec}.seg"))
        assert headers == {(2, 5, 579)}

    def test_zlib_shrinks_compressible_payloads(self, tmp_path):
        rows = [(0, seq, seq, "abc" * 500, 1, 0) for seq in range(8)]
        plain = write_segment(tmp_path / "n.seg", 0, list(rows), codec="none")
        packed = write_segment(tmp_path / "z.seg", 0, list(rows), codec="zlib")
        assert packed.file_bytes < plain.file_bytes

    def test_corrupt_payload_raises_descriptive_error(self, tmp_path):
        # framing intact, payload bytes are not valid zlib: the decode error
        # must name the path, the entry and the codec
        path = tmp_path / "c.seg"
        write_segment(path, 0, sorted_rows([("a", 1)]), codec="none")
        data = bytearray(path.read_bytes())
        data[6] = SEGMENT_CODECS["zlib"].wire_id  # lie about the codec
        path.write_bytes(bytes(data))
        with pytest.raises(
            ValueError, match=r"segment file .*c\.seg.*zlib decompression failed"
        ):
            list(iter_segment(path))

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_truncated_compressed_file_still_fails_loudly(self, tmp_path, codec):
        path = tmp_path / "t.seg"
        write_segment(path, 0, sorted_rows(self.PAIRS), codec=codec)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated segment file"):
            list(iter_segment(path))

    def test_unknown_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown segment codec"):
            write_segment(tmp_path / "x.seg", 0, sorted_rows([("a", 1)]), codec="gzip9")
        with pytest.raises(ValueError, match="unknown segment codec"):
            resolve_segment_codec("brotli")

    def test_retired_codec_names_the_two_that_run(self):
        # a config that validates is a config that runs: every entry point
        # reads the same two-entry table
        from repro.joins import PgbjConfig

        assert tuple(SEGMENT_CODECS) == ("none", "zlib")
        for build in (
            lambda: resolve_segment_codec("zstd"),
            lambda: PgbjConfig(spill_codec="zstd"),
            lambda: LocalRuntime(spill_codec="zstd"),
        ):
            with pytest.raises(ValueError, match="available: none, zlib"):
                build()

    @pytest.mark.parametrize("wire_id", (2, 3, 250))  # 2 and 3 are retired
    def test_unknown_codec_byte_rejected_on_read(self, tmp_path, wire_id):
        path = tmp_path / "w.seg"
        write_segment(path, 0, sorted_rows([("a", 1)]))
        data = bytearray(path.read_bytes())
        data[6] = wire_id  # no codec owns this wire id
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"codec id {wire_id}; known: none, zlib"):
            list(iter_segment(path))

    def test_stores_validate_codec_early(self):
        with pytest.raises(ValueError, match="unknown segment codec"):
            SpillShuffleStore(codec="nope")
        with pytest.raises(ValueError, match="unknown segment codec"):
            get_shuffle_store("memory", codec="nope")


class TestCodecJobEquivalence:
    def test_fingerprint_identical_across_codecs(self):
        reference = job_fingerprint(LocalRuntime().run(make_job(), make_splits()))
        for codec in SEGMENT_CODECS:
            with LocalRuntime(memory_budget=0, spill_codec=codec) as runtime:
                result = runtime.run(make_job(), make_splits())
            assert job_fingerprint(result) == reference, codec
            assert result.stats.spill_segments > 0

    def test_spill_codec_alone_selects_spill_backend(self):
        with LocalRuntime(spill_codec="zlib") as runtime:
            assert runtime.shuffle_backend == "spill"
            assert runtime.shuffle_store.codec == "zlib"
        assert LocalRuntime().shuffle_backend == "memory"

    def test_merge_cascade_preserves_codec(self, tmp_path):
        # budget 0 + tiny fan-in forces intermediate merge runs; they must be
        # written with the same codec as the inputs and still read back right
        tasks = [[(i % 5, f"v{t}-{i}" * 20) for i in range(20)] for t in range(3)]
        expected = oracle_groups(tasks, 2)

        partitioner = HashPartitioner()
        segments = [[] for _ in range(2)]
        for task_index, pairs in enumerate(tasks):
            spec = SpillSpec(
                directory=str(tmp_path), budget=0, task_index=task_index,
                task_id=f"t-{task_index:03d}", codec="zlib",
            )
            writer = SpillMapWriter(spec, attempt=1, partitioner=partitioner,
                                    num_reducers=2)
            for key, value in pairs:
                writer.add(key, value)
            for segment in writer.finish().segments:
                assert segment.codec == "zlib"
                segments[segment.reducer].append(segment)
        for reducer, segs in enumerate(segments):
            merged = [
                (key, list(values))
                for key, values in merged_segment_groups(
                    segs, fan_in=2, scratch_prefix=f"r{reducer:03d}"
                )
            ]
            assert merged == expected[reducer]
        for run in Path(tmp_path).glob("*-merge*.seg"):
            assert read_segment_codec(run) == "zlib"


# -- the external merge vs the in-memory oracle --------------------------------

_KEYS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from(["", "a", "b", "cc"]),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
    st.sampled_from(
        [np.int64(1), np.int64(-2), np.float64(0.5), np.float64(2.0), np.bool_(True)]
    ),
)
_VALUES = st.one_of(
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
)
_TASKS = st.lists(
    st.lists(st.tuples(_KEYS, _VALUES), max_size=30), min_size=1, max_size=3
)


def oracle_groups(tasks, num_reducers):
    """Exactly what the in-memory backend does: dict buckets + sorted keys."""
    partitioner = HashPartitioner()
    buckets = [{} for _ in range(num_reducers)]
    for pairs in tasks:
        for key, value in pairs:
            buckets[partitioner.assign(key, num_reducers)].setdefault(
                key, []
            ).append(value)
    return [
        sorted(bucket.items(), key=lambda item: shuffle_sort_key(item[0]))
        for bucket in buckets
    ]


def spill_groups(tasks, num_reducers, budget, directory, fan_in=None):
    """The spill path: per-task writers, then a per-reducer streaming merge."""
    from repro.mapreduce import DEFAULT_MERGE_FAN_IN

    partitioner = HashPartitioner()
    segments = [[] for _ in range(num_reducers)]
    for task_index, pairs in enumerate(tasks):
        spec = SpillSpec(
            directory=str(directory),
            budget=budget,
            task_index=task_index,
            task_id=f"t-{task_index:03d}",
        )
        writer = SpillMapWriter(spec, attempt=1, partitioner=partitioner,
                                num_reducers=num_reducers)
        for key, value in pairs:
            writer.add(key, value)
        for segment in writer.finish().segments:
            segments[segment.reducer].append(segment)
    return [
        [
            (key, list(values))
            for key, values in merged_segment_groups(
                segs,
                fan_in=fan_in or DEFAULT_MERGE_FAN_IN,
                scratch_prefix=f"r{reducer:03d}",
            )
        ]
        for reducer, segs in enumerate(segments)
    ]


class TestMergeMatchesInMemoryOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        tasks=_TASKS,
        num_reducers=st.integers(1, 3),
        budget=st.sampled_from([None, 0, 8, 64, 1024]),
    )
    def test_spill_merge_equals_dict_sorted_oracle(self, tasks, num_reducers, budget):
        expected = oracle_groups(tasks, num_reducers)
        with tempfile.TemporaryDirectory() as directory:
            actual = spill_groups(tasks, num_reducers, budget, directory)
        for reducer in range(num_reducers):
            exp = expected[reducer]
            act = actual[reducer]
            assert len(act) == len(exp)
            for (exp_key, exp_values), (act_key, act_values) in zip(exp, act):
                # same group key (dict equality), same values, same ORDER
                assert act_key == exp_key
                assert type(act_key) is type(exp_key)
                assert act_values == exp_values
            # and the group sequence is the shuffle_sort_key order
            keys = [key for key, _ in act]
            assert sorted(keys, key=shuffle_sort_key) == keys

    def test_mixed_numeric_keys_share_one_group(self, tmp_path):
        # 1, 1.0, True and np.int64(1) are one dict slot in memory; the merge
        # must fold them into one group too, first arrival as representative
        tasks = [[(1, "a"), (True, "b")], [(np.int64(1), "c"), (1.0, "d")]]
        expected = oracle_groups(tasks, 1)
        actual = spill_groups(tasks, 1, None, tmp_path)
        assert actual[0] == expected[0]
        assert actual[0][0][1] == ["a", "b", "c", "d"]  # arrival order

    def test_values_keep_arrival_order_across_runs(self, tmp_path):
        # budget 0 forces one run per emission: inter-run order within one
        # task must still follow emission sequence, not file order accidents
        tasks = [[("k", i) for i in range(12)]]
        actual = spill_groups(tasks, 1, 0, tmp_path)
        assert actual[0] == [("k", list(range(12)))]

    def test_record_blocks_survive_the_merge(self, tmp_path):
        block = sample_block()
        tasks = [[(0, block), (0, 99)]]
        ((key, values),) = spill_groups(tasks, 1, None, tmp_path)[0:1][0]
        assert key == 0
        decoded, plain = values
        assert isinstance(decoded, RecordBlock) and plain == 99
        assert np.array_equal(decoded.object_ids, block.object_ids)

    def test_bounded_fan_in_matches_unbounded(self, tmp_path):
        # budget 0 → one run per emission; fan_in 2 forces a cascade of
        # intermediate merges, which must not change groups, order or types
        tasks = [[(i % 5, f"v{t}-{i}") for i in range(20)] for t in range(3)]
        expected = oracle_groups(tasks, 2)
        actual = spill_groups(tasks, 2, 0, tmp_path, fan_in=2)
        for reducer in range(2):
            assert actual[reducer] == expected[reducer]
        # the cascade left its intermediate runs on disk (store-close cleans)
        assert list(Path(tmp_path).glob("*-merge*.seg"))

    def test_planned_merge_passes_mirrors_merge(self):
        from repro.mapreduce import planned_merge_passes

        assert planned_merge_passes(0, 4) == 0
        assert planned_merge_passes(1, 4) == 1  # single run: just the final
        assert planned_merge_passes(4, 4) == 1
        assert planned_merge_passes(5, 4) == 2  # one intermediate + final
        # 10 runs at fan-in 4: 10 -> 7 -> 4, then the final = 2 + 1
        assert planned_merge_passes(10, 4) == 2 + 1

    def test_fan_in_validated(self):
        with pytest.raises(ValueError, match="fan_in"):
            list(merged_segment_groups((), fan_in=1))
        with pytest.raises(ValueError, match="merge_fan_in"):
            SpillShuffleStore(merge_fan_in=1)

    def test_job_with_tiny_fan_in_equivalent(self):
        reference = job_fingerprint(LocalRuntime().run(make_job(), make_splits()))
        store = SpillShuffleStore(memory_budget=0, merge_fan_in=2)
        with LocalRuntime(shuffle=store) as runtime:
            result = runtime.run(make_job(), make_splits())
        store.close()
        assert job_fingerprint(result) == reference
        # cascaded merges are accounted: more passes than busy reducers
        busy = sum(1 for t in result.stats.reduce_tasks if t.input_records)
        assert result.stats.merge_passes > busy

    def test_partitioner_range_validated_in_writer(self, tmp_path):
        class BadPartitioner:
            def assign(self, key, num_reducers):
                return num_reducers  # off by one

        spec = SpillSpec(directory=str(tmp_path), budget=None, task_index=0,
                         task_id="t")
        writer = SpillMapWriter(spec, 1, BadPartitioner(), 2)
        with pytest.raises(ValueError, match="outside"):
            writer.add("k", 1)


# -- whole jobs: spill backend == memory backend -------------------------------


class EvenOddMapper(Mapper):
    def map(self, key, value, ctx: Context):
        ctx.counters.incr("t", "rows")
        yield int(value) % 2, float(value)
        yield f"tag-{int(value) % 3}", 1


class SumReducer(Reducer):
    def reduce(self, key, values, ctx: Context):
        yield key, round(sum(float(v) for v in values), 9)


class FirstValueReducer(Reducer):
    """Consumes only the first value — the runtime must drain the rest."""

    def reduce(self, key, values, ctx: Context):
        for value in values:
            yield key, value
            return


class EmptyBlockMapper(Mapper):
    """Emits a zero-row block: no records, but the reducer group must exist."""

    def map(self, key, value, ctx: Context):
        yield 0, RecordBlock.from_records([])
        yield 0, int(value)


class GatherReducer(Reducer):
    def reduce(self, key, values, ctx: Context):
        total = 0
        blocks = 0
        for value in values:
            if isinstance(value, RecordBlock):
                blocks += 1
            else:
                total += value
        yield key, (blocks, total)


def job_fingerprint(result):
    return {
        "outputs": result.outputs,
        "outputs_by_reducer": result.outputs_by_reducer,
        "side_outputs": result.side_outputs,
        "counters": result.counters.as_dict(),
        "shuffle_records": result.stats.shuffle_records,
        "shuffle_bytes": result.stats.shuffle_bytes,
        "output_bytes": result.stats.output_bytes,
        "map_io": [(t.input_records, t.output_records) for t in result.stats.map_tasks],
        "reduce_io": [
            (t.input_records, t.output_records) for t in result.stats.reduce_tasks
        ],
    }


def make_job(mapper=EvenOddMapper, reducer=SumReducer, combiner=None, reducers=3):
    return MapReduceJob(
        name="spilljob",
        mapper_factory=mapper,
        reducer_factory=reducer,
        combiner_factory=combiner,
        partitioner=HashPartitioner(),
        num_reducers=reducers,
    )


def make_splits(rows=24, size=5):
    return split_records([(i, i) for i in range(rows)], size)


class TestJobEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return job_fingerprint(LocalRuntime().run(make_job(), make_splits()))

    @pytest.mark.parametrize("budget", [None, 0, 16, 100_000])
    def test_fingerprint_identical(self, budget, reference):
        with LocalRuntime(shuffle="spill", memory_budget=budget) as runtime:
            result = runtime.run(make_job(), make_splits())
        assert job_fingerprint(result) == reference
        assert result.stats.spill_segments > 0
        assert result.stats.spill_bytes > 0
        assert result.stats.merge_passes > 0

    def test_memory_backend_reports_zero_spill(self):
        result = LocalRuntime().run(make_job(), make_splits())
        assert result.stats.spill_segments == 0
        assert result.stats.spill_bytes == 0
        assert result.stats.merge_passes == 0

    def test_combiner_equivalence(self):
        reference = LocalRuntime().run(
            make_job(combiner=SumReducer), make_splits()
        )
        with LocalRuntime(memory_budget=8) as runtime:
            result = runtime.run(make_job(combiner=SumReducer), make_splits())
        assert job_fingerprint(result) == job_fingerprint(reference)

    def test_early_exit_reducer_equivalence(self):
        reference = LocalRuntime().run(
            make_job(reducer=FirstValueReducer), make_splits()
        )
        with LocalRuntime(memory_budget=0) as runtime:
            result = runtime.run(make_job(reducer=FirstValueReducer), make_splits())
        assert job_fingerprint(result) == job_fingerprint(reference)

    def test_zero_row_blocks_keep_reduce_task_parity(self):
        # an emission with 0 logical records still creates its reducer group
        job = make_job(mapper=EmptyBlockMapper, reducer=GatherReducer, reducers=2)
        reference = LocalRuntime().run(job, make_splits(rows=6, size=2))
        with LocalRuntime(memory_budget=0) as runtime:
            job = make_job(mapper=EmptyBlockMapper, reducer=GatherReducer, reducers=2)
            result = runtime.run(job, make_splits(rows=6, size=2))
        assert job_fingerprint(result) == job_fingerprint(reference)
        busy = [t for t in result.stats.reduce_tasks if t.output_records]
        assert busy  # the group materialized despite 0-record emissions

    def test_retries_with_spill(self):
        chaos = ChaosPlan(rules=(ChaosRule("crash", kind="map", attempt=1),))
        reference = LocalRuntime(fault_injector=chaos).run(make_job(), make_splits())
        with LocalRuntime(fault_injector=chaos, memory_budget=16) as runtime:
            result = runtime.run(make_job(), make_splits())
        assert job_fingerprint(result) == job_fingerprint(reference)
        assert all(t.attempts == 2 for t in result.stats.map_tasks)

    def test_map_only_job_never_spills(self):
        job = MapReduceJob(name="maponly", mapper_factory=EvenOddMapper)
        reference = LocalRuntime().run(job, make_splits())
        with LocalRuntime(memory_budget=0) as runtime:
            result = runtime.run(
                MapReduceJob(name="maponly", mapper_factory=EvenOddMapper),
                make_splits(),
            )
        assert result.outputs == reference.outputs
        assert result.stats.spill_segments == 0

    def test_two_jobs_share_one_store(self):
        # per-job spill directories: the second run must not collide with
        # (or re-read) the first job's segments
        with LocalRuntime(memory_budget=0) as runtime:
            first = runtime.run(make_job(), make_splits())
            second = runtime.run(make_job(), make_splits())
        assert job_fingerprint(first) == job_fingerprint(second)


# -- per-key block coalescing inside a flush ------------------------------------


def id_block(first: int, rows: int) -> RecordBlock:
    return rows_block(range(first, first + rows))


class KeyedBlocksMapper(Mapper):
    """Per input record, one 3-row block under each of two of five keys."""

    def map(self, key, value, ctx: Context):
        yield int(value) % 5, id_block(100 * int(value), 3)
        yield (int(value) + 1) % 5, id_block(100 * int(value) + 50, 3)


class BlockIdsReducer(Reducer):
    def reduce(self, key, values, ctx: Context):
        yield key, RecordBlock.gather(values).object_ids.tolist()


class GatherCombiner(Reducer):
    """A combiner over blocks: folds a task's blocks of one key into one."""

    def reduce(self, key, values, ctx: Context):
        yield key, RecordBlock.gather(values)


def uncoalesced(pairs, key=None):
    """``block_runs`` as if coalescing did not exist (the parent's layout)."""
    return [[position] for position, _ in enumerate(pairs)]


class TestFlushCoalescing:
    @pytest.mark.parametrize("budget", [None, 400, 2000])
    def test_one_entry_per_key_per_flush(self, tmp_path, budget):
        pairs = [(i % 4, id_block(10 * i, 2)) for i in range(40)]
        spec = SpillSpec(str(tmp_path), budget, task_index=0, task_id="t-000")
        writer = SpillMapWriter(spec, 1, HashPartitioner(), num_reducers=2)
        for key, value in pairs:
            writer.add(key, value)
        manifest = writer.finish()
        assert manifest.entries == 40 and manifest.output_records == 80
        for segment in manifest.segments:
            keys = [key for _, _, key, _ in iter_segment(segment.path)]
            assert len(keys) == len(set(keys)) == segment.entries
        assert sum(s.records for s in manifest.segments) == 80
        # the reducers still see every key's rows in arrival order
        oracle = oracle_groups([pairs], 2)
        for reducer in range(2):
            segments = [s for s in manifest.segments if s.reducer == reducer]
            merged = [
                (key, RecordBlock.gather(values).object_ids.tolist())
                for key, values in merged_segment_groups(segments)
            ]
            assert merged == [
                (key, RecordBlock.gather(values).object_ids.tolist())
                for key, values in oracle[reducer]
            ]

    def test_merged_entry_keeps_first_seq_and_summed_accounting(self, tmp_path):
        pairs = [(7, id_block(0, 2)), (7, "x"), (7, id_block(10, 1)), (7, id_block(20, 3))]
        spec = SpillSpec(str(tmp_path), None, task_index=3, task_id="t-003")
        writer = SpillMapWriter(spec, 1, HashPartitioner(), num_reducers=1)
        for key, value in pairs:
            writer.add(key, value)
        (segment,) = writer.finish().segments
        entries = list(iter_segment(segment.path))
        assert [(task, seq) for task, seq, _, _ in entries] == [(3, 0), (3, 1), (3, 2)]
        assert entries[1][3] == "x"
        assert entries[2][3].object_ids.tolist() == [10, 20, 21, 22]
        assert segment.records == 7
        assert segment.accounted_bytes == sum(
            estimate_bytes(k) * record_count(v) + estimate_bytes(v) for k, v in pairs
        )

    @pytest.mark.parametrize("combiner", [None, GatherCombiner])
    def test_flush_boundaries_and_merge_passes_do_not_move(self, monkeypatch, combiner):
        from repro.mapreduce import shuffle

        def run():
            job = make_job(
                mapper=KeyedBlocksMapper, reducer=BlockIdsReducer, combiner=combiner
            )
            store = SpillShuffleStore(memory_budget=600, merge_fan_in=2)
            with LocalRuntime(shuffle=store) as runtime:
                result = runtime.run(job, make_splits(rows=30, size=10))
            store.close()
            return result

        coalesced = run()
        monkeypatch.setattr(shuffle, "block_runs", uncoalesced)
        parent = run()
        assert job_fingerprint(coalesced) == job_fingerprint(parent)
        assert coalesced.stats.spill_segments == parent.stats.spill_segments > 3
        assert coalesced.stats.merge_passes == parent.stats.merge_passes
        assert coalesced.stats.spill_bytes <= parent.stats.spill_bytes
        if combiner is None:  # several blocks per key per flush: headers saved
            assert coalesced.stats.spill_bytes < parent.stats.spill_bytes
        memory = LocalRuntime().run(
            make_job(mapper=KeyedBlocksMapper, reducer=BlockIdsReducer, combiner=combiner),
            make_splits(rows=30, size=10),
        )
        assert job_fingerprint(memory) == job_fingerprint(coalesced)


# -- store lifecycle -----------------------------------------------------------


class TestStoreLifecycle:
    def test_backend_registry(self):
        assert available_shuffle_backends() == ("memory", "spill")
        with pytest.raises(ValueError, match="unknown shuffle backend"):
            get_shuffle_store("s3")

    def test_budget_validated(self):
        with pytest.raises(ValueError, match="memory_budget"):
            SpillShuffleStore(memory_budget=-1)

    def test_runtime_selects_spill_for_budget(self):
        with LocalRuntime(memory_budget=64) as runtime:
            assert runtime.shuffle_backend == "spill"
        assert LocalRuntime().shuffle_backend == "memory"

    def test_close_removes_spill_directory(self, tmp_path):
        with LocalRuntime(memory_budget=0, spill_dir=str(tmp_path)) as runtime:
            runtime.run(make_job(), make_splits())
            assert any(tmp_path.iterdir())  # segments live under spill_dir
        assert not any(tmp_path.iterdir())  # close() cleaned its mkdtemp

    def test_injected_store_left_open(self):
        store = SpillShuffleStore(memory_budget=0)
        reference = job_fingerprint(LocalRuntime().run(make_job(), make_splits()))
        for _ in range(2):
            with LocalRuntime(shuffle=store) as runtime:
                result = runtime.run(make_job(), make_splits())
            assert job_fingerprint(result) == reference
            assert not store.closed
        store.close()
        assert store.closed
        store.close()  # idempotent

    def test_closed_store_rejects_jobs(self):
        store = SpillShuffleStore()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.begin_job(make_job())
