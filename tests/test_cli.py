"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import ALL_ORDER, EXHIBITS, main


class TestInfo:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "bench scale" in out


class TestJoin:
    @pytest.mark.parametrize("algorithm", ["pgbj", "pbj", "hbrj", "broadcast"])
    def test_join_each_algorithm(self, capsys, algorithm):
        code = main(
            [
                "join",
                "--algorithm", algorithm,
                "--dataset", "forest",
                "--objects", "300",
                "--k", "3",
                "--num-reducers", "4",
                "--num-pivots", "12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"algorithm            : {algorithm}" in out
        assert "selectivity" in out

    def test_join_osm(self, capsys):
        code = main(
            ["join", "--dataset", "osm", "--objects", "300", "--k", "3",
             "--num-reducers", "4", "--num-pivots", "8"]
        )
        assert code == 0
        assert "osm" in capsys.readouterr().out

    def test_join_output_pairs_count(self, capsys):
        main(["join", "--objects", "200", "--k", "2", "--num-reducers", "2",
              "--num-pivots", "6"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "join output pairs" in l)
        assert int(line.split(":")[1]) == 2 * 200

    def test_join_kernel_provider_and_spill_codec_flags(self, capsys):
        code = main(
            ["join", "--objects", "200", "--k", "2", "--num-reducers", "2",
             "--num-pivots", "6", "--kernel-provider", "numpy",
             "--spill-codec", "zlib"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel provider      : numpy" in out
        assert "spill codec          : zlib" in out
        assert "spill activity" in out  # the codec implied the spill backend

    def test_spill_codec_hidden_when_off(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SPILL_CODEC", raising=False)
        main(["join", "--objects", "200", "--k", "2", "--num-reducers", "2",
              "--num-pivots", "6"])
        assert "spill codec" not in capsys.readouterr().out


class TestListKernelProviders:
    def test_lists_every_provider_with_availability(self, capsys):
        assert main(["--list-kernel-providers"]) == 0
        out = capsys.readouterr().out
        for name in ("numpy", "numba", "auto"):
            assert name in out
        assert "[available]" in out  # numpy at minimum


class TestBench:
    def test_bench_table2_writes_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        code = main(["bench", "table2", "--results-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "table2.json").read_text())
        assert payload["exhibit"] == "table2"
        assert "farthest" in payload["data"]
        assert "TABLE2" in capsys.readouterr().out

    def test_bench_fig6_writes_both_exhibits(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        code = main(["bench", "fig6", "--results-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig6.json").exists()
        assert (tmp_path / "fig7.json").exists()

    def test_all_order_covers_every_exhibit(self):
        # fig7 is produced by the fig6 sweep; everything else is direct
        assert set(ALL_ORDER) | {"fig7"} == set(EXHIBITS)

    def test_invalid_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    def test_invalid_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBenchScale:
    def test_invalid_scale_rejected(self, monkeypatch):
        from repro.bench.harness import bench_scale

        monkeypatch.setenv("REPRO_BENCH_SCALE", "zero")
        with pytest.raises(ValueError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale()
