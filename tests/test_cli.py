import argparse
import csv
import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tablerank import cli
from tablerank.cli import main
from tablerank.coarse import coarse_retrieve
from tablerank.corpus import Query, Table, TableCorpus, TaskType, save_corpus
from tablerank.features import EmbedderHandle
from tablerank.index import load_index

from conftest import make_topic_corpus


@pytest.fixture
def corpus_file(tmp_path):
    corpus = make_topic_corpus(30, 3, seed=1)
    p = tmp_path / "corpus.jsonl"
    save_corpus(corpus, p)
    return p


@pytest.fixture
def index_file(tmp_path, corpus_file):
    out = tmp_path / "toy.idx"
    code = main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                 "--K", "3", "--k", "10", "--seed", "7"])
    assert code == 0
    return out


def _sources_dir(tmp_path):
    rng = np.random.default_rng(3)
    tables, queries = [], []
    for r in range(10):
        caption = f"ent{r}a ent{r}b topics"
        tables.append(Table(
            id=f"root{r:02d}", caption=caption,
            headers=[f"h{r}x{j}" for j in range(5)],
            entries=[[f"v{r}r{i}c{j}" for j in range(5)] for i in range(5)],
            metadata={},
        ))
        for qn in range(2):
            queries.append({
                "id": f"root{r:02d}-q{qn}", "root_table_id": f"root{r:02d}",
                "text": f"what is the stored value of h{r}x{qn} for ent{r}a in {caption}?",
                "task_type": "SingleHopTQA", "answer": f"v{r}r0c{qn}",
            })
    src = tmp_path / "sources"
    src.mkdir()
    save_corpus(TableCorpus(tables), src / "tables.jsonl")
    with (src / "queries.jsonl").open("w") as f:
        for q in queries:
            f.write(json.dumps(q) + "\n")
    return src


_QUERY_SETTINGS = {"--alpha", "--tau", "--config", "--embedder"}

# Each subcommand's flags, --help aside: only the settings its handler reads.
FLAGS = {
    "ingest": {"--input", "--format", "--out"},
    "build-index": {"--corpus", "--out", "--K", "--k", "--seed",
                    "--config", "--embedder", "--dimension", "--batch-limit"},
    "retrieve": {"--index", "--query", "--top-n", *_QUERY_SETTINGS},
    "build-benchmark": {"--sources", "--out", "--seed", "--config"},
    "eval-retrieval": {"--index", "--dataset", "--ks", *_QUERY_SETTINGS},
    "eval-e2e": {"--index", "--dataset", "--generator", "--top-n", *_QUERY_SETTINGS},
    "inspect": {"--index"},
}

# The required flags of the commands that lost flags, with placeholder values.
REQUIRED = {
    "ingest": ["--input", "x", "--out", "y"],
    "retrieve": ["--index", "x", "--query", "q"],
    "build-benchmark": ["--sources", "x", "--out", "y"],
    "eval-retrieval": ["--index", "x", "--dataset", "d"],
    "eval-e2e": ["--index", "x", "--dataset", "d"],
    "inspect": ["--index", "x"],
}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert declared == FLAGS
        assert sum(map(len, declared.values())) == 39

    def test_run_config_holds_ten_keys(self):
        assert [f.name for f in dataclasses.fields(cli.RunConfig)] == [
            "K", "k", "alpha", "tau", "top_n", "seed", "embedder", "dimension", "batch_limit", "generator"]

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command in ("ingest", "inspect")
        for flag in ("--config", "--seed", "--embedder", "--dimension", "--batch-limit")
    ] + [("build-benchmark", flag) for flag in ("--embedder", "--dimension", "--batch-limit")]
      + [(command, flag)
         for command in ("retrieve", "eval-retrieval", "eval-e2e")
         for flag in ("--seed", "--epsilon", "--max-iter", "--dimension", "--batch-limit")]
      + [("retrieve", "--task-type"), ("retrieve", "--stage"),
         ("eval-retrieval", "--top-n"), ("eval-retrieval", "--acc-mode")])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, *REQUIRED[command], flag, "1"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "inspect"])
    def test_commands_without_settings_log_no_config(self, tmp_path, corpus_file, index_file, caplog, command):
        argv = {"ingest": ["ingest", "--input", str(corpus_file), "--out", str(tmp_path / "o.jsonl")],
                "inspect": ["inspect", "--index", str(index_file)]}[command]
        with caplog.at_level(logging.INFO, logger="tablerank"):
            assert main(argv) == 0
        assert not [r for r in caplog.records if r.getMessage().startswith("resolved config: ")]


class TestIngest:
    def test_jsonl_round_trip(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "canonical.jsonl"
        assert main(["ingest", "--input", str(corpus_file), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tables"] == 30
        assert out.read_bytes() == corpus_file.read_bytes()

    def test_csv_dir(self, tmp_path, capsys):
        d = tmp_path / "csvs"
        d.mkdir()
        (d / "one.csv").write_text("A,B\n1,2\n")
        out = tmp_path / "from_csv.jsonl"
        assert main(["ingest", "--input", str(d), "--format", "csv_dir",
                     "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["tables"] == 1

    def test_schema_violation_exit_code_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "x", "caption": "", "headers": ["a"],
                                   "entries": [["1", "2"]], "metadata": {}}) + "\n")
        assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 1
        assert "SchemaViolation" in capsys.readouterr().err

    def test_oversized_csv_cell_is_violation(self, tmp_path, capsys):
        # Past the csv module's 131,072-character field limit, which stays as it is.
        limit = csv.field_size_limit()
        d = tmp_path / "csvs"
        d.mkdir()
        (d / "one.csv").write_text("A,B\n1,2\n")
        (d / "wide.csv").write_text("A,B\n" + "x" * 200_000 + ",2\n")
        assert main(["ingest", "--input", str(d), "--format", "csv_dir", "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert ("error: SchemaViolation: 1 schema violation(s): wide: malformed CSV: "
                "field larger than field limit (131072)") in err
        assert csv.field_size_limit() == limit

    def test_non_object_record_is_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[1,2]\n")
        assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "SchemaViolation" in err and "<line 1>: record is not an object" in err


class TestRetrieve:
    def test_build_then_retrieve_prints_ranked_ids(self, index_file, capsys):
        code = main(["retrieve", "--index", str(index_file), "--query", "tp1c00 tp1c01 tp1c02",
                     "--top-n", "5"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        summary, ranked = lines[0], lines[1:]
        assert 0.0 < summary["retained_fraction"] <= 1.0
        assert len(ranked) == 5
        assert [l["rank"] for l in ranked] == [1, 2, 3, 4, 5]
        assert all(l["table_id"].startswith("t") for l in ranked)

    def test_identical_invocations_identical_output(self, index_file, capsys):
        argv = ["retrieve", "--index", str(index_file), "--query", "tp0c03 tp0c04", "--top-n", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_first_line_carries_the_coarse_choice(self, index_file, capsys):
        code = main(["retrieve", "--index", str(index_file), "--query", "tp2c00 tp2h03", "--top-n", "3"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        coarse = coarse_retrieve(Query(id="q", text="tp2c00 tp2h03", task_type=TaskType.TFV),
                                 load_index(index_file), EmbedderHandle())
        assert lines[0] == {"chosen_clusters": coarse.per_family_choice, "union_size": len(coarse.union_ids),
                            "retained_fraction": round(coarse.retained_fraction, 4)}
        assert [l["rank"] for l in lines[1:]] == [1, 2, 3]

    @pytest.mark.parametrize("flags", [
        ["--query", "   "],
        ["--query", "tp1c00", "--top-n", "0"],
        ["--query", "tp1c00", "--alpha", "1.5"],
        ["--query", "tp1c00", "--tau", "2"],
    ])
    def test_out_of_range_input_exits_2(self, index_file, capsys, flags):
        assert main(["retrieve", "--index", str(index_file), *flags]) == 2
        assert "error: usage:" in capsys.readouterr().err

    def test_malformed_embedder_reply_exits_1_without_traceback(self, index_file, http_server):
        def respond(path, payload):
            return 200, {"vectors": 5}

        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        with http_server(respond) as url:
            proc = subprocess.run([sys.executable, "-m", "tablerank.cli", "retrieve", "--index", str(index_file),
                                   "--query", "tp1c00", "--embedder", url],
                                  env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert ("error: EmbedderUnavailable: embedding endpoint " + repr(url)
                + " unavailable (batch starting at item 0): response missing vectors or wrong count") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unknown_flag_exits_2(self, index_file):
        with pytest.raises(SystemExit) as err:
            main(["retrieve", "--index", str(index_file), "--query", "x", "--bogus"])
        assert err.value.code == 2


class TestBuildIndex:
    def test_reports_extract_and_cluster_seconds(self, tmp_path, corpus_file, capsys):
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(tmp_path / "x.idx"),
                     "--K", "3", "--k", "10"]) == 0
        line = json.loads(capsys.readouterr().out)
        parts = (line["extract_seconds"], line["cluster_seconds"])
        assert all(p >= 0.0 for p in parts)
        # 1e-9 absorbs the float addition of two 3-decimal values.
        assert sum(parts) <= line["build_seconds"] + 1e-9

    def test_reports_peak_rss(self, tmp_path, corpus_file, capsys):
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(tmp_path / "x.idx"),
                     "--K", "3", "--k", "10"]) == 0
        line = json.loads(capsys.readouterr().out)
        # This process has imported numpy and scipy, so its peak is megabytes,
        # far from a count of KiB or bytes read as MiB.
        assert 10.0 < line["peak_rss_mb"] < 100_000.0

    def test_peak_rss_is_omitted_without_resource(self, tmp_path, corpus_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(tmp_path / "x.idx"),
                     "--K", "3", "--k", "10"]) == 0
        assert "peak_rss_mb" not in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("flag", ["--K", "--k", "--dimension", "--batch-limit"])
    def test_count_below_one_exits_2(self, tmp_path, corpus_file, capsys, flag):
        assert main(["build-index", "--corpus", str(corpus_file),
                     "--out", str(tmp_path / "x.idx"), flag, "0"]) == 2
        assert "error: usage:" in capsys.readouterr().err
        assert not (tmp_path / "x.idx").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, corpus_file, capsys, via):
        if via == "flag":
            extra = ["--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            extra = ["--config", str(cfg)]
        assert main(["build-index", "--corpus", str(corpus_file),
                     "--out", str(tmp_path / "x.idx"), *extra]) == 2
        assert "error: usage:" in capsys.readouterr().err
        assert not (tmp_path / "x.idx").exists()


class TestInspect:
    def test_params_and_histogram(self, index_file, capsys):
        assert main(["inspect", "--index", str(index_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tables"] == 30
        assert out["params"]["typical_k"] == 10
        for phi in ("sem", "struct", "heur"):
            assert sum(out["cluster_sizes"][phi]) == 30
            report = out["kmeans"][phi]
            assert report["n_iter"] >= 1 and isinstance(report["converged"], bool)
            assert report["objective"] >= 0.0

    def test_distinct_sem_rows(self, index_file, capsys):
        # Two of the fixture's 30 tables repeat an earlier table's embedding.
        assert main(["inspect", "--index", str(index_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["distinct_sem_rows"] == 28
        assert len({row.tobytes() for row in load_index(index_file).sem}) == 28

    @pytest.mark.parametrize("corrupt, error", [
        (lambda b: b[: len(b) // 2], "IOFailure"),
        (lambda b: b[:-1] + bytes([b[-1] ^ 4]), "IOFailure"),
        (lambda b: b[:8] + np.uint32(1).tobytes() + b[12:], "VersionMismatch"),
    ], ids=["truncated", "bit-flip", "format-1"])
    def test_corrupt_index_exits_1_without_traceback(self, index_file, tmp_path, corrupt, error):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(corrupt(index_file.read_bytes()))
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "tablerank.cli", "inspect", "--index", str(bad)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert f"error: {error}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestConfigPrecedence:
    def test_config_file_applies(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 2, "k": 5, "seed": 9}))
        out = tmp_path / "via_cfg.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                     "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--index", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["params"]["K"] == 2
        assert info["params"]["seed"] == 9

    def test_flag_beats_config_file(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 2, "k": 5}))
        out = tmp_path / "flag_wins.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                     "--config", str(cfg), "--K", "4"]) == 0
        capsys.readouterr()
        main(["inspect", "--index", str(out)])
        info = json.loads(capsys.readouterr().out)
        assert info["params"]["K"] == 4

    def test_one_config_file_serves_every_command(self, tmp_path, corpus_file, capsys):
        # Each command reads its own keys from the file and ignores the rest.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 2, "k": 5, "seed": 4, "top_n": 3, "generator": "stub:na"}))
        src = _sources_dir(tmp_path)
        for out, extra in (("via_cfg", ["--config", str(cfg)]), ("via_flag", ["--seed", "4"])):
            assert main(["build-benchmark", "--sources", str(src), "--out", str(tmp_path / out), *extra]) == 0
        assert (tmp_path / "via_cfg" / "examples.jsonl").read_bytes() == (
            tmp_path / "via_flag" / "examples.jsonl").read_bytes()
        idx = tmp_path / "cfg.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(idx), "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["retrieve", "--index", str(idx), "--query", "tp1c00 tp1c01", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3  # the summary, then top_n ranks
        assert load_index(idx).params["K"] == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coolness": 11}))
        assert main(["build-index", "--corpus", str(corpus_file),
                     "--out", str(tmp_path / "x.idx"), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("values", [
        {"alpha": "x"},
        {"top_n": 2.5},
        {"k": True},
        {"tau": None},
        {"embedder": 5},
        {"K": "3"},
        {"seed": -1},
        5,  # not an object at all
    ])
    def test_mistyped_config_value_is_usage_error(self, index_file, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main(["retrieve", "--index", str(index_file), "--query", "tp1c00",
                     "--config", str(cfg)]) == 2
        assert "error: usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["epsilon", "max_iter"])
    def test_removed_key_is_unknown(self, index_file, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 100}))
        assert main(["retrieve", "--index", str(index_file), "--query", "tp1c00", "--config", str(cfg)]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_retrieve_adopts_index_dimension(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "dim32.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                     "--K", "2", "--k", "5", "--dimension", "32"]) == 0
        capsys.readouterr()
        # No --dimension here: the index's recorded dimension is inherited.
        assert main(["retrieve", "--index", str(out), "--query", "tp0c00 tp0c01",
                     "--top-n", "2"]) == 0
        assert capsys.readouterr().out.strip()

    def test_logged_config_has_the_index_dimension(self, tmp_path, corpus_file, caplog):
        out = tmp_path / "dim32.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                     "--K", "2", "--k", "5", "--dimension", "32"]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="tablerank"):
            assert main(["retrieve", "--index", str(out), "--query", "tp0c00 tp0c01", "--top-n", "2"]) == 0
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("resolved config: ")]
        assert len(logged) == 1
        assert json.loads(logged[0].removeprefix("resolved config: "))["dimension"] == 32

    def test_config_file_dimension_gives_way_to_the_index(self, tmp_path, corpus_file, capsys, caplog):
        # The file's dimension, 16, gives way to the 32 the index records.
        out = tmp_path / "dim32.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                     "--K", "2", "--k", "5", "--dimension", "32"]) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dimension": 16, "batch_limit": 1}))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="tablerank"):
            assert main(["retrieve", "--index", str(out), "--query", "tp0c00 tp0c01", "--top-n", "2",
                         "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 2
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("resolved config: ")]
        assert json.loads(logged[0].removeprefix("resolved config: "))["dimension"] == 32

    @pytest.mark.parametrize("key", ["dimension", "batch_limit"])
    def test_config_file_count_below_one_exits_2_on_query(self, index_file, tmp_path, capsys, key):
        # Checked before the index's dimension takes its place.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        assert main(["retrieve", "--index", str(index_file), "--query", "tp1c00", "--config", str(cfg)]) == 2
        assert "error: usage:" in capsys.readouterr().err

    def test_env_var_overrides_default_embedder(self, index_file, capsys, monkeypatch):
        monkeypatch.setenv("TABLERANK_EMBEDDER", "http://127.0.0.1:9")
        code = main(["retrieve", "--index", str(index_file), "--query", "tp0c00 tp0c01"])
        assert code == 1  # endpoint is unreachable, proving the override took
        assert "EmbedderUnavailable" in capsys.readouterr().err


class TestBenchmarkAndEval:
    def test_full_cli_pipeline(self, tmp_path, capsys):
        src = _sources_dir(tmp_path)
        ds_dir = tmp_path / "dataset"
        assert main(["build-benchmark", "--sources", str(src), "--out", str(ds_dir),
                     "--seed", "11"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["examples"] > 0

        idx = tmp_path / "bench.idx"
        assert main(["build-index", "--corpus", str(ds_dir / "tables.jsonl"),
                     "--out", str(idx), "--K", "3", "--k", "20", "--seed", "1"]) == 0
        capsys.readouterr()

        assert main(["eval-retrieval", "--index", str(idx), "--dataset", str(ds_dir),
                     "--ks", "5,10", "--tau", "0.2"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert set(report["per_k"]) == {"5", "10"}

        assert main(["eval-e2e", "--index", str(idx), "--dataset", str(ds_dir),
                     "--generator", "stub:na", "--tau", "0.2"]) == 0
        e2e = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert e2e["na"] == e2e["n"]
        assert e2e["em"] == 0.0

    def test_each_cutoff_reports_both_acc_modes(self, tmp_path, capsys):
        src = _sources_dir(tmp_path)
        ds_dir, idx = tmp_path / "dataset", tmp_path / "bench.idx"
        assert main(["build-benchmark", "--sources", str(src), "--out", str(ds_dir), "--seed", "11"]) == 0
        assert main(["build-index", "--corpus", str(ds_dir / "tables.jsonl"),
                     "--out", str(idx), "--K", "3", "--k", "20", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["eval-retrieval", "--index", str(idx), "--dataset", str(ds_dir),
                     "--ks", "1,2,5", "--tau", "0.2"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert set(report) == {"per_k", "mean_coarse_retained"}
        per_k = report["per_k"]
        assert set(per_k) == {"1", "2", "5"}
        for row in per_k.values():
            assert set(row) == {"acc", "acc_any", "recall"}
            assert row["acc_any"] >= row["acc"]
        assert any(row["acc_any"] > row["acc"] for row in per_k.values())  # fixture precondition

    @pytest.mark.parametrize("ks", ["0", "-3", "abc", "10,x"])
    def test_bad_ks_exits_2_before_loading(self, tmp_path, capsys, ks):
        # Neither file exists: --ks is checked before either is read.
        code = main(["eval-retrieval", "--index", str(tmp_path / "none.idx"),
                     "--dataset", str(tmp_path / "none"), "--ks", ks])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: usage: --ks " in err and repr(ks) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, reason", [
        ('{"id": "x", "root_table_id": "root00", "text": "t", "task_type": "Nope"}',
         "'Nope' is not a valid TaskType"),
        ('{"id": "x", "root_table_id": "root00", "text": "t", "task_ty', "invalid JSON"),
        ('{"id": "x", "root_table_id": "root00", "task_type": "TFV"}', "missing key 'text'"),
    ], ids=["unknown-task-type", "truncated", "missing-key"])
    def test_bad_source_query_line_is_violation(self, tmp_path, capsys, line, reason):
        src = _sources_dir(tmp_path)
        with (src / "queries.jsonl").open("a") as f:
            f.write(line + "\n")
        assert main(["build-benchmark", "--sources", str(src), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "SchemaViolation" in err and f"<queries.jsonl line 21>: " in err and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("answer, shown", [("yes", "'yes'"), (None, "None")],
                             ids=["word-label", "missing-label"])
    def test_bad_tfv_label_is_violation(self, tmp_path, capsys, answer, shown):
        # root09's queries become two TFV claims, so combine_queries would
        # conjoin the bad label with the good one.
        src = _sources_dir(tmp_path)
        path = src / "queries.jsonl"
        lines = [ln for ln in path.read_text().splitlines() if '"root09"' not in ln]
        good = {"id": "root09-c0", "root_table_id": "root09", "task_type": "TFV", "answer": 1,
                "text": "the stored value of h9x0 for ent9a is v9r0c0"}
        bad = {"id": "root09-c1", "root_table_id": "root09", "task_type": "TFV",
               "text": "ent9b topics list more than four rows of values"}
        if answer is not None:
            bad["answer"] = answer
        path.write_text("\n".join(lines + [json.dumps(good), json.dumps(bad)]) + "\n")
        assert main(["build-benchmark", "--sources", str(src), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "SchemaViolation: 1 schema violation(s): <queries.jsonl line 20>: " in err
        assert f"TFV answer must be 0 or 1, got {shown}" in err
        assert "Traceback" not in err

    def test_blank_example_text_exits_1(self, tmp_path, capsys):
        src = _sources_dir(tmp_path)
        ds_dir, idx = tmp_path / "dataset", tmp_path / "bench.idx"
        assert main(["build-benchmark", "--sources", str(src), "--out", str(ds_dir)]) == 0
        assert main(["build-index", "--corpus", str(ds_dir / "tables.jsonl"), "--out", str(idx),
                     "--K", "3", "--k", "20"]) == 0
        path = ds_dir / "examples.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "text": "   "})
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval-retrieval", "--index", str(idx), "--dataset", str(ds_dir), "--ks", "1"]) == 1
        err = capsys.readouterr().err
        assert "SchemaViolation" in err and "<examples.jsonl line 1>: " in err
        assert "query text is empty after trimming" in err
        assert "Traceback" not in err

    def test_benchmark_determinism_via_cli(self, tmp_path, capsys):
        src = _sources_dir(tmp_path)
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["build-benchmark", "--sources", str(src), "--out", str(d1), "--seed", "4"]) == 0
        assert main(["build-benchmark", "--sources", str(src), "--out", str(d2), "--seed", "4"]) == 0
        for name in ("tables.jsonl", "examples.jsonl", "stats.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("command", [["eval-retrieval", "--ks", "5"], ["eval-e2e", "--generator", "stub:na"]],
                             ids=["eval-retrieval", "eval-e2e"])
    def test_index_of_another_corpus_exits_2(self, tmp_path, index_file, capsys, command):
        # index_file holds a 30-table topic corpus, not the dataset's tables.
        ds_dir = tmp_path / "dataset"
        assert main(["build-benchmark", "--sources", str(_sources_dir(tmp_path)), "--out", str(ds_dir)]) == 0
        capsys.readouterr()
        code = main([command[0], "--index", str(index_file), "--dataset", str(ds_dir), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: usage: the index was built from another corpus than the dataset's tables" in captured.err
        assert captured.out == ""


def _reader_target(reader: str, tmp_path, index_file) -> tuple[list[str], Path]:
    """The command that reads ``reader``'s file, and that file."""
    if reader == "corpus-jsonl":
        bad = tmp_path / "corpus.jsonl"
        return ["ingest", "--input", str(bad), "--out", str(tmp_path / "out.jsonl")], bad
    if reader == "corpus-csv":
        (tmp_path / "csv").mkdir()
        bad = tmp_path / "csv" / "t1.csv"
        return ["ingest", "--format", "csv_dir", "--input", str(bad.parent), "--out", str(tmp_path / "o")], bad
    if reader == "config":
        bad = tmp_path / "config.json"
        return ["retrieve", "--index", str(index_file), "--query", "tp1c00", "--config", str(bad)], bad
    src = _sources_dir(tmp_path)
    if reader == "source-queries":
        return ["build-benchmark", "--sources", str(src), "--out", str(tmp_path / "d")], src / "queries.jsonl"
    ds_dir = tmp_path / "dataset"
    assert main(["build-benchmark", "--sources", str(src), "--out", str(ds_dir)]) == 0
    bad = ds_dir / "examples.jsonl"
    return ["eval-retrieval", "--index", str(index_file), "--dataset", str(ds_dir)], bad


@pytest.mark.parametrize("reader", ["corpus-jsonl", "corpus-csv", "examples", "source-queries", "config"])
def test_non_utf8_input_is_a_typed_error(tmp_path, index_file, capsys, reader):
    argv, bad = _reader_target(reader, tmp_path, index_file)
    bad.write_bytes(b"id,caption\n\xff\xfe,x\n")  # 0xff never occurs in UTF-8
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if reader == "config":
        assert code == 2
        assert f"error: usage: cannot read config file {bad}: 'utf-8' codec can't decode" in err
    else:
        assert code == 1
        assert f"error: IOFailure: cannot read {bad}: 'utf-8' codec can't decode" in err


# JSON that json.loads refuses with other errors than JSONDecodeError.
_NESTED = "[" * 100_000, "maximum recursion depth exceeded"  # past the parser's recursion limit
_LONG_INT = "1" + "0" * 5_000, "Exceeds the limit (4300 digits) for integer string conversion"


@pytest.mark.parametrize("text, cause", [_NESTED, _LONG_INT], ids=["nested", "long-int"])
@pytest.mark.parametrize("reader", ["corpus-jsonl", "examples", "source-queries", "config"])
def test_unparsable_json_line_is_a_typed_error(tmp_path, index_file, capsys, reader, text, cause):
    argv, bad = _reader_target(reader, tmp_path, index_file)
    bad.write_text(text + "\n")
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if reader == "config":
        assert code == 2
        assert f"error: usage: cannot read config file {bad}: {cause}" in err
    else:
        assert code == 1
        assert "error: SchemaViolation: 1 schema violation(s): <" in err
        assert f"line 1>: invalid JSON: {cause}" in err


@pytest.mark.parametrize("body, cause", [
    (_NESTED[0].encode(), _NESTED[1]),
    (_LONG_INT[0].encode(), _LONG_INT[1]),
    (b'{"text": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
], ids=["nested", "long-int", "non-utf8"])
@pytest.mark.parametrize("endpoint", ["embed", "generate"])
def test_unparsable_reply_is_a_typed_error(tmp_path, index_file, http_server, capsys, endpoint, body, cause):
    if endpoint == "embed":
        argv = ["retrieve", "--index", str(index_file), "--query", "tp1c00"]
        flag, error = "--embedder", "EmbedderUnavailable"
    else:
        ds_dir, idx = tmp_path / "dataset", tmp_path / "bench.idx"
        assert main(["build-benchmark", "--sources", str(_sources_dir(tmp_path)), "--out", str(ds_dir)]) == 0
        assert main(["build-index", "--corpus", str(ds_dir / "tables.jsonl"), "--out", str(idx),
                     "--K", "3", "--k", "20"]) == 0
        argv = ["eval-e2e", "--index", str(idx), "--dataset", str(ds_dir)]
        flag, error = "--generator", "GeneratorUnavailable"
    capsys.readouterr()
    with http_server(lambda path, payload: (200, body)) as url:
        code = main([*argv, flag, url])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: {error}: " in err and f"invalid JSON response: {cause}" in err
