"""Command-line interface."""

import pytest

from repro.__main__ import _parse_params, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "health" in out and "treeadd" in out and "spmv" in out
    # All four registries appear in the combined listing.
    for title in ("Machines", "Schemes", "Prefetch engines", "Workloads"):
        assert title in out


def test_run_small(capsys):
    assert main(["run", "power", "--small", "--scheme", "hardware"]) == 0
    out = capsys.readouterr().out
    assert "hardware" in out and "cycles" in out


def test_run_with_params_and_idiom(capsys):
    assert main([
        "run", "health", "--small", "--scheme", "software", "--idiom", "root",
        "--param", "iterations=2",
    ]) == 0
    out = capsys.readouterr().out
    assert "sw:root" in out


def test_machine_overrides(capsys):
    assert main([
        "--memory-latency", "140", "--interval", "4",
        "run", "treeadd", "--small",
    ]) == 0


def test_parse_params_types():
    assert _parse_params(["a=1", "b=1.5", "c=x"]) == {"a": 1, "b": 1.5, "c": "x"}
    with pytest.raises(SystemExit):
        _parse_params(["oops"])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_figure_commands_parse():
    parser = build_parser()
    for fig in ("table1", "figure4", "figure5", "figure6", "figure7"):
        args = parser.parse_args([fig])
        assert args.command == fig


def test_list_single_registry(capsys):
    assert main(["list", "machines"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out and "bench" in out and "small" in out
    assert "health" not in out  # workloads not printed for one registry

    assert main(["list", "schemes"]) == 0
    out = capsys.readouterr().out
    for scheme in ("base", "software", "cooperative", "hardware", "dbp"):
        assert scheme in out

    assert main(["list", "engines"]) == 0
    assert "engine" in capsys.readouterr().out


def _write_spec(tmp_path, spec):
    import json

    path = tmp_path / f"{spec.name}.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


def test_run_spec_end_to_end(tmp_path, capsys):
    from tests.conftest import shipped_spec

    spec = shipped_spec("figure5", ("treeadd",))
    path = _write_spec(tmp_path, spec)
    assert main(["run-spec", str(path), "--machine", "small", "--small",
                 "--no-cache", "--journal", str(tmp_path / "j.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "treeadd" in out
    for scheme in ("base", "software", "cooperative", "hardware", "dbp"):
        assert scheme in out


def test_run_spec_artifact_and_set(tmp_path, capsys):
    import json

    from repro.harness import ExperimentSpec, WorkloadSel
    from repro.workloads import workload_class

    spec = ExperimentSpec(
        name="tiny", title="Tiny",
        workloads=(WorkloadSel(
            "treeadd", params=workload_class("treeadd").test_params()),),
        schemes=("base", "hardware"),
        columns=("benchmark", "scheme", "total", "normalized"),
    )
    out_file = tmp_path / "result.json"
    assert main(["run-spec", str(_write_spec(tmp_path, spec)),
                 "--machine", "small", "--set", "memory_latency=140",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--journal", str(tmp_path / "j.jsonl"),
                 "-o", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == "repro.experiment/1"
    assert doc["spec"]["overrides"] == {"memory_latency": 140}
    assert doc["meta"]["machine"] == "small"  # --machine lands in the spec
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["scheme"] == "base"
    assert doc["rows"][0]["normalized"] == 1.0


def _tiny_treeadd_spec(tmp_path):
    from repro.harness import ExperimentSpec, WorkloadSel
    from repro.workloads import workload_class

    return _write_spec(tmp_path, ExperimentSpec(
        name="tiny", title="Tiny",
        workloads=(WorkloadSel(
            "treeadd", params=workload_class("treeadd").test_params()),),
        schemes=("base",),
        columns=("benchmark", "scheme", "total"),
    ))


def _run_spec_doc(tmp_path, *flags, sub=()):
    """Run the tiny spec with global ``flags`` (before the subcommand)
    and run-spec options ``sub``; returns the written artifact."""
    import json

    out_file = tmp_path / "result.json"
    assert main([*flags, "run-spec", str(_tiny_treeadd_spec(tmp_path)),
                 *sub, "--no-cache", "--journal", str(tmp_path / "j.jsonl"),
                 "-o", str(out_file)]) == 0
    return json.loads(out_file.read_text())


def test_run_spec_honours_global_machine_flags(tmp_path, capsys):
    plain = _run_spec_doc(tmp_path)
    slow = _run_spec_doc(tmp_path, "--memory-latency", "400")
    assert slow["spec"]["overrides"] == {"memory_latency": 400}
    assert slow["rows"][0]["total"] > plain["rows"][0]["total"]

    tuned = _run_spec_doc(tmp_path, "--table2", "--interval", "4")
    assert tuned["meta"]["machine"] == "table2"
    assert tuned["spec"]["overrides"] == {"prefetch.jump_interval": 4}


def test_run_spec_explicit_options_win_over_global_flags(tmp_path, capsys):
    doc = _run_spec_doc(tmp_path, "--table2", "--memory-latency", "400",
                        sub=("--machine", "small",
                             "--set", "memory_latency=140"))
    assert doc["meta"]["machine"] == "small"
    assert doc["spec"]["overrides"] == {"memory_latency": 140}


def test_figure5_alias_matches_run_spec(tmp_path, capsys):
    common = ["--machine", "small", "--small", "--no-cache",
              "--journal", str(tmp_path / "j.jsonl")]
    assert main(["run-spec", "examples/specs/figure5.toml", *common]) == 0
    via_spec = capsys.readouterr().out
    assert main(["figure5", *common]) == 0
    via_alias = capsys.readouterr().out
    table, sep, summary = via_alias.partition("\nMemory-bound averages\n")
    assert sep, via_alias
    assert table == via_spec
    for scheme in ("software", "cooperative", "hardware", "dbp"):
        assert scheme in summary


def test_run_spec_bad_file_is_clean_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(SystemExit, match="error:"):
        main(["run-spec", str(bad), "--no-cache",
              "--journal", str(tmp_path / "j.jsonl")])


def test_stats_text(capsys):
    assert main(["stats", "health", "--small", "--scheme", "hardware"]) == 0
    out = capsys.readouterr().out
    assert "Prefetch outcomes" in out
    assert "Demand miss latency" in out
    assert "timely" in out and "dropped" in out


def test_stats_json_artifact(capsys):
    import json

    assert main(["stats", "health", "--small", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.stats/1"
    from repro.harness import SCHEMES

    # Default stats matrix is the paper five; zoo engines opt in by name.
    assert set(doc["engines"]) == set(SCHEMES)
    hw = doc["engines"]["hardware"]
    assert set(hw["prefetch_outcomes"]) == {
        "timely", "late", "early-evicted", "useless", "dropped",
    }
    assert hw["miss_latency"]["type"] == "histogram"
    assert doc["runs"]["hardware"]["result"]["cycles"] > 0


def test_stats_json_to_file(tmp_path, capsys):
    import json

    out = tmp_path / "stats.json"
    assert main(["stats", "health", "--small", "--scheme", "base",
                 "--json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.stats/1"
    assert list(doc["engines"]) == ["base"]


def test_trace_writes_chrome_file(tmp_path, capsys):
    import json

    out = tmp_path / "t.trace.json"
    assert main(["trace", "health", "--small", "--scheme", "hardware",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert any(e["name"] == "load-issue" for e in events)
    assert any(e["name"] == "demand-miss" for e in events)
    assert "wrote" in capsys.readouterr().out
