import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tablerank.cli import main
from tablerank.corpus import Table, TableCorpus, save_corpus

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
    save_corpus(TableCorpus(tables, source_tag="cli-src"), src / "tables.jsonl")
    with (src / "queries.jsonl").open("w") as f:
        for q in queries:
            f.write(json.dumps(q) + "\n")
    return src


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

    def test_fine_stage_prints_only_ranked(self, index_file, capsys):
        code = main(["retrieve", "--index", str(index_file), "--query", "tp1c00 tp1c01",
                     "--stage", "fine", "--top-n", "3"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 3
        assert all("rank" in l for l in lines)

    def test_identical_invocations_identical_output(self, index_file, capsys):
        argv = ["retrieve", "--index", str(index_file), "--query", "tp0c03 tp0c04", "--top-n", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_coarse_stage_reports_fraction(self, index_file, capsys):
        code = main(["retrieve", "--index", str(index_file), "--query", "tp2c00 tp2h03",
                     "--stage", "coarse"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"chosen_clusters", "union_size", "retained_fraction"}
        assert 0.0 < out["retained_fraction"] <= 1.0

    @pytest.mark.parametrize("flags", [
        ["--query", "   "],
        ["--query", "tp1c00", "--top-n", "0"],
        ["--query", "tp1c00", "--alpha", "1.5"],
        ["--query", "tp1c00", "--tau", "2"],
        ["--query", "tp1c00", "--max-iter", "0"],
        ["--query", "tp1c00", "--epsilon", "nan"],
        ["--query", "tp1c00", "--epsilon", "inf"],
        ["--query", "tp1c00", "--seed", "-1"],
    ])
    def test_out_of_range_input_exits_2(self, index_file, capsys, flags):
        assert main(["retrieve", "--index", str(index_file), *flags]) == 2
        assert "error: usage:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--K", "--k", "--dimension", "--batch-limit",
                                      "--K-sem", "--K-struct", "--K-heur"])
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
        assert info["params"]["k_per_family"]["sem"] == 2
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
        assert info["params"]["k_per_family"]["sem"] == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coolness": 11}))
        assert main(["build-index", "--corpus", str(corpus_file),
                     "--out", str(tmp_path / "x.idx"), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("values", [
        {"alpha": "x"},
        {"top_n": 2.5},
        {"max_iter": True},
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

    def test_retrieve_adopts_index_dimension(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "dim32.idx"
        assert main(["build-index", "--corpus", str(corpus_file), "--out", str(out),
                     "--K", "2", "--k", "5", "--dimension", "32"]) == 0
        capsys.readouterr()
        # No --dimension here: the index's recorded dimension is inherited.
        assert main(["retrieve", "--index", str(out), "--query", "tp0c00 tp0c01",
                     "--top-n", "2"]) == 0
        assert capsys.readouterr().out.strip()

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

    def test_benchmark_determinism_via_cli(self, tmp_path, capsys):
        src = _sources_dir(tmp_path)
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["build-benchmark", "--sources", str(src), "--out", str(d1), "--seed", "4"]) == 0
        assert main(["build-benchmark", "--sources", str(src), "--out", str(d2), "--seed", "4"]) == 0
        for name in ("tables.jsonl", "examples.jsonl", "stats.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
