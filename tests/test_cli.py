import json
from dataclasses import replace
from pathlib import Path

import pytest

from reference import derive_top_profile, write_log_ndjson_reference, write_truth_ndjson_reference
from topicsim.cli import (
    CONFIG_DEFAULTS,
    _build_order,
    _resolve_classification,
    _resolve_taxonomy,
    file_header,
    load_config,
    main,
    scenario_hash,
)
from topicsim.population import read_population
from topicsim.simulator import SimConfig, run_scenario
from topicsim.taxonomy import bundled_taxonomy
from topicsim.worlds import aggressive_skew_config, build_world, wide_pool_config


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "n_users": 60,
        "n_domains": 2000,
        "sites": ["wa.example", "wb.example"],
        "epochs": 4,
        "seed": 5,
        "out": str(tmp_path / "run"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["out"])


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_full_pipeline(tiny_config, capsys):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg) == 0
    stdout = capsys.readouterr().out
    for label in ("Number of users", "Unique observed domains",
                  "Unique observed topics", "Unique top profiles"):
        assert label in stdout
    assert (out / "population.ndjson").exists()

    assert run_cli("simulate", "--config", cfg) == 0
    assert (out / "log.ndjson").exists() and (out / "truth.ndjson").exists()

    assert run_cli("denoise", "--config", cfg) == 0
    metrics = (out / "denoise_metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("# topicsim=")
    assert metrics[1].startswith("epoch,accuracy,precision,tpr,fpr")
    assert len(metrics) == 2 + 4

    assert run_cli("reidentify", "--config", cfg) == 0
    report = (out / "reid_report.csv").read_text().splitlines()
    assert report[1] == "epoch,unique_rate,better_than_random_rate"
    assert (out / "reid_kcdf_epoch_01.csv").exists()

    assert run_cli("report", "--config", cfg) == 0
    hist = (out / "prevalence_hist.csv").read_text().splitlines()
    assert len(hist) == 2 + 349


def test_generate_single_user(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_users": 1, "n_domains": 500, "out": str(tmp_path / "o")}))
    assert run_cli("generate", "--config", cfg) == 0
    lines = (tmp_path / "o" / "population.ndjson").read_text().splitlines()
    assert len(lines) == 2  # header + one user


WRITTEN_BY = {"generate": "population.ndjson", "simulate": "log.ndjson",
              "denoise": "denoise_metrics.csv", "reidentify": "reid_report.csv",
              "report": "prevalence_hist.csv"}


@pytest.mark.parametrize("stage, overrides, message", [
    ("generate", {"T": 400}, "T = 400 exceeds the taxonomy's 349 topics"),
    ("generate", {"T": 0}, "T must be >= 1, got 0"),
    ("generate", {"T": -1}, "T must be >= 1, got -1"),
    ("generate", {"n_domains": 10}, "median target exceeds the top topic's count"),
    ("simulate", {"p": 2.0}, "p must be in [0, 1], got 2.0"),
    # The analysis stages refuse these before they read any artifact, so
    # no upstream stage runs first.
    ("denoise", {"sites": []}, "denoise needs 1 site(s) in `sites`, got 0"),
    ("denoise", {"epochs": 0}, "denoise needs `epochs` >= 1, got 0"),
    ("reidentify", {"sites": ["wa.example"]}, "reidentify needs 2 site(s) in `sites`, got 1"),
    ("denoise", {"classification": "synthetic:nope"}, "unknown synthetic classification preset 'nope'"),
    ("reidentify", {"classification": "synthetic:nope"}, "unknown synthetic classification preset 'nope'"),
    ("report", {"classification": "synthetic:nope"}, "unknown synthetic classification preset 'nope'"),
], ids=["T-400", "T-0", "T-minus-1", "n_domains-10", "p-2", "denoise-no-sites", "denoise-epochs-0",
        "reidentify-one-site", "denoise-unknown-preset", "reidentify-unknown-preset",
        "report-unknown-preset"])
def test_config_value_refusals_exit_2(tmp_path, capsys, stage, overrides, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_users": 5, "n_domains": 500, "out": str(tmp_path / "o"), **overrides}))
    if stage == "simulate":
        assert run_cli("generate", "--config", cfg) == 0
    assert run_cli(stage, "--config", cfg) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / WRITTEN_BY[stage]).exists()


@pytest.mark.parametrize("key, value, kind", [
    ("aggressive_gap_rule", "false", "true or false"),
    ("sites", "ab", "a list of strings"),
    ("sites", None, "a list of strings"),
    ("sites", ["wa.example", 7], "a list of strings"),
    ("taxonomy", None, "a string"),
    ("classification", 5, "a string"),
    ("crux", 5, "a string or null"),
    ("n_users", [3], "an integer"),
    ("n_users", True, "an integer"),
    ("epochs", 2.5, "an integer"),
    ("p", True, "a number"),
], ids=["gap-rule-string", "sites-string", "sites-null", "sites-mixed", "taxonomy-null",
        "classification-int", "crux-int", "n_users-list", "n_users-bool", "epochs-float", "p-bool"])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, key, value, kind):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_users": 5, "n_domains": 500, "out": str(tmp_path / "o"), key: value}))
    for stage in ("generate", "simulate", "denoise"):
        assert run_cli(stage, "--config", cfg) == 2
        assert f"config key {key!r} must be {kind}, got {json.dumps(value)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["null", "3", '"out"'])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert run_cli("analytics", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"must hold a JSON object, got {text}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rerun_is_byte_identical(tiny_config):
    cfg, out = tiny_config
    run_cli("generate", "--config", cfg)
    run_cli("simulate", "--config", cfg)
    first = {name: (out / name).read_bytes() for name in
             ("population.ndjson", "log.ndjson", "truth.ndjson")}
    run_cli("generate", "--config", cfg)
    run_cli("simulate", "--config", cfg)
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_simulate_writes_reference_bytes(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "n_users": 40, "n_domains": 2000, "sites": ["wa.example", "wb.example"],
        "epochs": 6, "seed": 8, "out": str(tmp_path / "o"),
    }))
    assert run_cli("generate", "--config", cfg_path) == 0
    assert run_cli("simulate", "--config", cfg_path) == 0
    cfg = load_config(str(cfg_path), {})
    out = Path(cfg["out"])
    sim = SimConfig(tau=cfg["tau"], p=cfg["p"], epochs=cfg["epochs"], sites=tuple(cfg["sites"]), seed=cfg["seed"])
    log = run_scenario(read_population(out / "population.ndjson"), sim, _resolve_taxonomy(cfg))
    write_log_ndjson_reference(log, tmp_path / "log_ref.ndjson",
                               dict(file_header(cfg), scenario_hash=scenario_hash(cfg)))
    write_truth_ndjson_reference(log, tmp_path / "truth_ref.ndjson", file_header(cfg))
    assert (out / "log.ndjson").read_bytes() == (tmp_path / "log_ref.ndjson").read_bytes()
    assert (out / "truth.ndjson").read_bytes() == (tmp_path / "truth_ref.ndjson").read_bytes()


def test_integer_and_float_p_name_one_scenario(tmp_path):
    """`"p": 1` and `"p": 1.0` load as the same float, hash alike and give the same artifacts."""
    outs = {}
    for name, p in (("int", 1), ("float", 1.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n_users": 30, "n_domains": 2000, "epochs": 3, "seed": 4, "p": p,
                                    "out": str(tmp_path / name)}))
        cfg = load_config(str(path), {})
        assert type(cfg["p"]) is float and cfg["p"] == 1.0
        outs[name] = (scenario_hash(cfg), tmp_path / name)
        for stage in ("generate", "simulate", "denoise"):
            assert run_cli(stage, "--config", path) == 0
    (hash_int, dir_int), (hash_float, dir_float) = outs["int"], outs["float"]
    assert hash_int == hash_float
    names = sorted(f.name for f in dir_int.iterdir())
    assert names == sorted(f.name for f in dir_float.iterdir()) and "denoise_metrics.csv" in names
    for name in names:
        assert (dir_int / name).read_bytes() == (dir_float / name).read_bytes(), name


def test_workers_flag_does_not_change_outputs(tiny_config):
    cfg, out = tiny_config
    run_cli("generate", "--config", cfg, "--workers", 1)
    one = (out / "population.ndjson").read_bytes()
    run_cli("generate", "--config", cfg, "--workers", 2)
    assert (out / "population.ndjson").read_bytes() == one


def test_profile_candidates_match_oracle(tmp_path):
    base = {"n_users": 40, "n_domains": 2000, "T": 5, "seed": 3, "profile_candidates": 3}
    records = {}
    for index in (0, 2):
        cfg = tmp_path / f"c{index}.json"
        cfg.write_text(json.dumps(dict(base, profile_index=index, out=str(tmp_path / f"o{index}"))))
        assert run_cli("generate", "--config", cfg) == 0
        lines = (tmp_path / f"o{index}" / "population.ndjson").read_text().splitlines()
        records[index] = [json.loads(line) for line in lines[1:]]
    taxonomy = bundled_taxonomy()
    for record, user in zip(records[0], read_population(tmp_path / "o0" / "population.ndjson")):
        assert record["top_profile_candidates"] == [
            list(derive_top_profile(user, taxonomy, 5, 3, candidate=c).top_profile) for c in range(3)
        ]
    for zero, two in zip(records[0], records[2]):
        assert two["top_profile_candidates"] == zero["top_profile_candidates"]
        assert zero["top_profile"] == zero["top_profile_candidates"][0]
        assert two["top_profile"] == zero["top_profile_candidates"][2]
    assert any(z["top_profile"] != t["top_profile"] for z, t in zip(records[0], records[2]))


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert run_cli("analytics", "--config", cfg) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_workers_key_is_unknown(tmp_path, capsys):
    # No stage forks; `--workers` is still parsed but stays out of the config.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"workers": 2, "out": str(tmp_path / "o")}))
    assert run_cli("analytics", "--config", cfg) == 2
    assert "unknown config keys: ['workers']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_upstream_artifact_names_subcommand(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "empty")}))
    assert run_cli("simulate", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "generate" in err and "population.ndjson" in err


def test_analytics_prints_expected_tail_probability(tmp_path, capsys):
    assert run_cli("analytics", "--out", tmp_path / "a") == 0
    out = capsys.readouterr().out
    assert "0.99275" in out
    payload = json.loads((tmp_path / "a" / "analytics.json").read_text())
    assert payload["prob_at_least_2_genuine"] == pytest.approx(0.99275)
    assert payload["expected_collection_epochs_ceiled"] == 13
    assert payload["consecutive_api_calls"] == 11


def test_analytics_at_tau_1_reports_no_chance_of_two_genuine_topics(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau": 1, "out": str(tmp_path / "a")}))
    assert run_cli("analytics", "--config", cfg) == 0
    payload = json.loads((tmp_path / "a" / "analytics.json").read_text())
    assert payload["model"]["tau"] == 1
    assert payload["prob_at_least_2_genuine"] == 0.0


def test_generate_refuses_a_taxonomy_with_an_id_gap(tmp_path, capsys):
    taxonomy = tmp_path / "gapped.tsv"
    taxonomy.write_text("id\tname\n" + "".join(f"{i}\t/t{i}\n" for i in [*range(1, 21), 40]))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_users": 5, "n_domains": 500, "taxonomy": str(taxonomy),
                               "out": str(tmp_path / "o")}))
    assert run_cli("generate", "--config", cfg) == 2
    assert "row 22: ids must run 1, 2, ... in file order: expected 21, got 40" in capsys.readouterr().err
    assert not (tmp_path / "o" / "population.ndjson").exists()


def test_filter_subcommand_reproduces_golden_fixtures(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    rows = []
    v1 = ["0.0"] * 350
    v1[349] = "1.0"  # Unknown dominant
    rows.append("unknown-site.example\t" + " ".join(v1))
    v2 = ["0.0"] * 350
    v2[0], v2[1], v2[2] = "0.5", "0.3", "0.1"
    rows.append("two-topics.example\t" + " ".join(v2))
    v3 = ["0.0"] * 350
    v3[349], v3[0] = "0.5", "0.1"
    rows.append("sensitive.example\t" + " ".join(v3))
    scores.write_text("\n".join(rows) + "\n")

    assert run_cli("filter", "--scores", scores, "--out", tmp_path / "f") == 0
    lines = (tmp_path / "f" / "filtered_classification.tsv").read_text().splitlines()
    got = dict(line.split("\t") for line in lines[1:])
    assert got["unknown-site.example"] == ""  # Unknown -> empty topic set
    assert got["two-topics.example"] == "1,2"
    assert got["sensitive.example"] == ""


def test_seed_override_changes_outputs(tiny_config):
    cfg, out = tiny_config
    run_cli("generate", "--config", cfg)
    base = (out / "population.ndjson").read_bytes()
    run_cli("generate", "--config", cfg, "--seed", 99)
    assert (out / "population.ndjson").read_bytes() != base


def test_generate_from_rank_bucket_files(tmp_path):
    crux = tmp_path / "crux.csv"
    crux.write_text(
        "origin,rank_bucket\n"
        + "\n".join(f"host-{i}.example,1k" for i in range(40))
        + "\n"
        + "\n".join(f"tail-{i}.example,5k" for i in range(40))
        + "\n"
    )
    tranco = tmp_path / "tranco.csv"
    tranco.write_text(
        "rank,domain\n" + "\n".join(f"{i + 1},host-{i}.example" for i in range(40)) + "\n"
    )
    classification = tmp_path / "cls.tsv"
    classification.write_text(
        "\n".join(f"host-{i}.example\t{(i % 5) + 1}" for i in range(40))
        + "\n"
        + "\n".join(f"tail-{i}.example\t" for i in range(40))
        + "\n"
    )
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "n_users": 25,
        "crux": str(crux),
        "tranco": str(tranco),
        "classification": str(classification),
        "out": str(tmp_path / "o"),
        "histogram": None,
        "seed": 3,
    }))
    assert run_cli("generate", "--config", cfg) == 0
    lines = (tmp_path / "o" / "population.ndjson").read_text().splitlines()
    assert len(lines) == 1 + 25


def test_generate_keys_scheme_origins_by_host(tmp_path):
    """A bucket file of `https://` origins, as the public top lists write
    them, gives the population of the same file with bare hosts."""
    hosts = ["www.google.com", "www.youtube.com"] + [f"host-{i}.example" for i in range(40)]
    classification = tmp_path / "cls.tsv"
    classification.write_text("".join(f"{h}\t{i % 9 + 1},{i % 4 + 20}\n" for i, h in enumerate(hosts)))
    bodies = {}
    for name, prefix in (("bare", ""), ("scheme", "https://")):
        crux = tmp_path / name / "crux.csv"
        crux.parent.mkdir()
        # The last row repeats a host in a less popular bucket.
        crux.write_text("origin,rank_bucket\n" + "".join(f"{prefix}{h},1k\n" for h in hosts)
                        + f"{prefix}host-0.example,5k\n")
        cfg = tmp_path / name / "c.json"
        cfg.write_text(json.dumps({"n_users": 30, "crux": str(crux), "classification": str(classification),
                                   "seed": 4, "out": str(tmp_path / name / "o")}))
        assert run_cli("generate", "--config", cfg) == 0
        bodies[name] = (tmp_path / name / "o" / "population.ndjson").read_text().splitlines()[1:]
    assert bodies["scheme"] == bodies["bare"]
    users = [json.loads(line) for line in bodies["scheme"]]
    assert sum(len(u["observed_topics"]) for u in users) > 0
    assert all(set(u["visited_domains"]) <= set(hosts) for u in users)


def test_radar_file_ignores_blank_and_indented_lines(tmp_path):
    crux = tmp_path / "crux.csv"
    crux.write_text("origin,rank_bucket\n" + "".join(f"{c}.example,1k\n" for c in "abcd"))
    radar = tmp_path / "radar.txt"
    radar.write_text("\n  d.example\n\n\tb.example  \n   \nc.example\n")
    cfg = dict(CONFIG_DEFAULTS, crux=str(crux), radar=str(radar))
    order = _build_order(cfg, None)
    assert order.domains == ("d.example", "b.example", "c.example", "a.example")


def test_generate_refuses_a_one_column_bucket_row(tmp_path, capsys):
    crux = tmp_path / "crux.csv"
    crux.write_text("origin,rank_bucket\na.example,1k\nb.example\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_users": 5, "crux": str(crux), "classification": "synthetic:wide-pool",
                               "n_domains": 500, "out": str(tmp_path / "o")}))
    assert run_cli("generate", "--config", cfg) == 2
    assert "row 3: expected 2 fields, got 1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "population.ndjson").exists()


def test_generate_refuses_a_bucket_file_without_domains(tmp_path, capsys):
    crux = tmp_path / "crux.csv"
    crux.write_text("origin,rank_bucket\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_users": 5, "crux": str(crux), "classification": "synthetic:wide-pool",
                               "n_domains": 500, "out": str(tmp_path / "o")}))
    assert run_cli("generate", "--config", cfg) == 2
    assert "the ranked domain list is empty" in capsys.readouterr().err
    assert not (tmp_path / "o" / "population.ndjson").exists()


def test_denoise_refuses_log_of_another_seed(tiny_config, capsys):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("simulate", "--config", cfg) == 0
    capsys.readouterr()
    assert run_cli("denoise", "--config", cfg, "--seed", 6) == 2
    err = capsys.readouterr().err
    assert "simulate" in err and "log.ndjson" in err
    assert not (out / "denoise_metrics.csv").exists()


def test_reidentify_refuses_log_of_other_epochs(tiny_config, tmp_path, capsys):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("simulate", "--config", cfg) == 0
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(dict(json.loads(cfg.read_text()), epochs=12)))
    capsys.readouterr()
    assert run_cli("reidentify", "--config", longer) == 2
    assert "simulate" in capsys.readouterr().err
    assert not (out / "reid_report.csv").exists()


def test_analysis_only_keys_do_not_need_a_new_log(tiny_config, tmp_path, capsys):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("simulate", "--config", cfg) == 0
    stricter = tmp_path / "stricter.json"
    stricter.write_text(json.dumps(dict(json.loads(cfg.read_text()), threshold=20, aggressive_gap_rule=True)))
    capsys.readouterr()
    assert run_cli("reidentify", "--config", stricter, "--workers", 1) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    for label in ("unique_rate=", "whole_population=", "tied=", "wrong_argmax="):
        assert label in summary


def test_analysis_stages_simulate_only_the_sites_they_read(tiny_config, tmp_path, monkeypatch):
    cfg, out = tiny_config
    three = tmp_path / "three.json"
    three.write_text(json.dumps(dict(json.loads(cfg.read_text()), sites=["wa.example", "wb.example", "wc.example"])))
    assert run_cli("generate", "--config", three) == 0
    assert run_cli("simulate", "--config", three) == 0
    simulated = []

    def recording(population, config, taxonomy):
        simulated.append(config.sites)
        return run_scenario(population, config, taxonomy)

    monkeypatch.setattr("topicsim.cli.run_scenario", recording)
    assert run_cli("denoise", "--config", three) == 0
    assert run_cli("reidentify", "--config", three) == 0
    assert simulated == [("wa.example",), ("wa.example", "wb.example")]


def test_denoise_refuses_population_of_another_generate(tiny_config, capsys):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("simulate", "--config", cfg) == 0
    assert run_cli("generate", "--config", cfg, "--seed", 6) == 0
    capsys.readouterr()
    assert run_cli("denoise", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "generate" in err and "population.ndjson" in err
    assert not (out / "denoise_metrics.csv").exists()


def test_simulate_refuses_population_of_another_seed(tiny_config, capsys):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg, "--seed", 6) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "generate" in err and "population.ndjson" in err
    assert not (out / "log.ndjson").exists()


def test_simulate_keys_do_not_need_a_new_population(tiny_config, tmp_path):
    cfg, out = tiny_config
    assert run_cli("generate", "--config", cfg) == 0
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(dict(json.loads(cfg.read_text()), epochs=6)))
    assert run_cli("simulate", "--config", longer) == 0
    assert run_cli("denoise", "--config", longer) == 0
    assert len((out / "denoise_metrics.csv").read_text().splitlines()) == 2 + 6


@pytest.mark.parametrize("preset, world_config", [
    ("aggressive-skew", aggressive_skew_config),
    ("wide-pool", wide_pool_config),
])
def test_synthetic_classification_matches_world(preset, world_config):
    seed = 4
    taxonomy = bundled_taxonomy()
    cfg = dict(CONFIG_DEFAULTS, classification=f"synthetic:{preset}", n_domains=2000, seed=seed)
    got = _resolve_classification(cfg, taxonomy)
    world = build_world(replace(world_config(1, seed), n_domains=2000), taxonomy)
    assert got.entries == world.classification.entries


@pytest.mark.parametrize("preset, world_config", [
    ("aggressive-skew", aggressive_skew_config),
    ("wide-pool", wide_pool_config),
])
def test_generate_builds_the_preset_world(preset, world_config, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "n_users": 150, "n_domains": 2000, "classification": f"synthetic:{preset}",
        "seed": 1, "out": str(tmp_path / "o"),
    }))
    assert run_cli("generate", "--config", cfg) == 0
    world = build_world(replace(world_config(150, seed=1), n_domains=2000), bundled_taxonomy())
    assert list(read_population(tmp_path / "o" / "population.ndjson")) == list(world.population)
