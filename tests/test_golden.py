"""Golden bytes: small CLI chains write exactly the recorded artifacts.

A change meant to keep behaviour (ROADMAP aim 2) must keep every
artifact byte for byte. Each chain runs generate, simulate, denoise,
reidentify, report and analytics in-process; the test compares the
sha256 of every file the chain writes against the digests below and
names each artifact that differs. A change meant to alter output
updates these digests in the same commit and says why.

Two chains use the synthetic presets. The third reads every file input:
a classification TSV, rank-bucket, rank, tie-breaker and count-histogram
files, and a score-vector file that `filter` reads. It runs in its
temporary directory with relative paths, because config hashes include
the file paths.
"""

import hashlib
import json

import pytest

import topicsim.classification
import topicsim.cli
import topicsim.population
import topicsim.worlds
from topicsim.cli import main

STAGES = ("generate", "simulate", "denoise", "reidentify", "report", "analytics")

CHAINS = {
    "wide-pool": {
        "n_users": 300, "n_domains": 5000, "classification": "synthetic:wide-pool",
        "sites": ["wa.example", "wb.example"], "epochs": 8, "seed": 1,
    },
    "aggressive-skew": {
        "n_users": 300, "n_domains": 5000, "classification": "synthetic:aggressive-skew",
        "sites": ["wa.example", "wb.example"], "epochs": 8, "seed": 7,
        "T": 4, "tau": 2, "p": 0.1, "threshold": 5, "aggressive_gap_rule": True,
    },
}

GOLDEN = {
    "aggressive-skew": {
        "analytics.json": "7ae4b6d43b7b98f20cf722a5f19ad8d16123dccf7d42cd67ffbfdd8b297dfef4",
        "denoise_metrics.csv": "bbff7651b88f05689280dd3776d16c649f7cfb4a9e2c4f3f3949b1c0c23314c5",
        "log.ndjson": "2ca28b678c276cdcae17d38046f2f3d1721dd5b8e1581e7ce39cf2060b6bf966",
        "population.ndjson": "6b5b2640204c84a81c1bde8dc8b776bde1c1007cbc9e345eb9c0519681a9784e",
        "prevalence_hist.csv": "0e9eb5fae64b665ff38e60849003e1c564995f9469f11a3b5355be435d599ad2",
        "reid_kcdf_epoch_01.csv": "608bf9c0368f75a92fe319118bd2ad6033ca525fe3ffed5edc192d453b29050d",
        "reid_kcdf_epoch_02.csv": "3a3bf1b6b8a6dbd908d6ce2c28fd27252643094dde8304a975790a783eb64149",
        "reid_kcdf_epoch_05.csv": "5debefcc67564e915b170b0e6737355d992f108f2439ae63a454b6416d3b94ad",
        "reid_report.csv": "b8936a3fe8648edc6e6fec3c9900012587c1951bd84c4675ced9d4f6f0eb6c0d",
        "truth.ndjson": "1925565929d69c0d2509c911fae6ea88c5bb6471f30ac7aaf17f14f28e4b0d44",
    },
    "wide-pool": {
        "analytics.json": "9fb2a83b0c8d897c48bec1e8a9c53482c7cb9568e8e07d027512a39e17c7e80d",
        "denoise_metrics.csv": "d3b3be6f6666adc07e0647bf24aa0c0d7afc24df275fc09bdd2f4a1677a7e673",
        "log.ndjson": "0285a299c3b3f70b806474d16356b552ad2593f244ce6caa689ed253cf99730f",
        "population.ndjson": "d87e4423a83cb64a282c9fd58a81b4ad4f933e946cb457f316958d0db77d57cd",
        "prevalence_hist.csv": "ec8193374cc4c3ed251b98d7bbd5ae980eaafbba2e2de71446590295684aab6a",
        "reid_kcdf_epoch_01.csv": "67d4aa0fd915c61f4b6160579125f70560b20e2471d971976816871635201845",
        "reid_kcdf_epoch_02.csv": "9ada24927993306b246b03feb16fa773f522221d08570d2294906e273c487338",
        "reid_kcdf_epoch_05.csv": "a3a41439ac080dbc36cb0b9c0601994b0769f3e625071a254e086049c7a29792",
        "reid_report.csv": "f5faaa4bd76fcd58645edd68d78cbe007a64d9fc8e300a82e327d778c3353df8",
        "truth.ndjson": "842ae7679d56dfb6acdbc658f6a84c8ecff77c2a3fb3aaedaddf5df9351bbe97",
    },
}


def run_chain(config: dict, tmp_path, stages=STAGES) -> dict[str, str]:
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, out=str(out))))
    for stage in stages:
        assert main([stage, "--config", str(path)]) == 0, stage
    return digests(out)


def digests(out) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def assert_golden(got: dict[str, str], want: dict[str, str]) -> None:
    assert sorted(got) == sorted(want), "artifact set changed"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"artifacts changed: {changed}"


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_artifacts_match_golden_digests(chain, tmp_path):
    assert_golden(run_chain(CHAINS[chain], tmp_path), GOLDEN[chain])


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_later_stages_read_no_domains(chain, tmp_path, monkeypatch):
    """After `generate`, no stage reads visited domains from the population
    file or draws the synthetic classification's domains, and the artifacts
    keep their bytes."""
    run_chain(CHAINS[chain], tmp_path, stages=STAGES[:1])

    def refuse(*args, **kwargs):
        raise AssertionError("a stage after generate called a full reader or synthesis")

    for module in (topicsim.population, topicsim.classification, topicsim.worlds, topicsim.cli):
        for name in ("read_population", "synthesize_skewed_classification"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert_golden(run_chain(CHAINS[chain], tmp_path, stages=STAGES[1:]), GOLDEN[chain])


SUFFIXES = ("com", "co.uk", "org", "io")
BUCKETS = ("1k", "5k", "10k", "50000")


def write_file_inputs(root) -> None:
    """Deterministic input files for the file-input chain, written under `root`."""
    hosts = ["www.google.com", "www.youtube.com"] + [
        f"www.site{i}.{SUFFIXES[i % 4]}" for i in range(600)
    ]
    cls = []
    for i, host in enumerate(hosts):
        ids = set() if i % 7 == 0 else {(i * 37) % 349 + 1}
        if i % 3 == 0:
            ids.add((i * 11) % 349 + 1)
        cls.append(f"{host}\t{','.join(map(str, sorted(ids)))}")
    (root / "classification.tsv").write_text("\n".join(cls) + "\n")
    # Every tenth host is left out of the bucket file; 30 bucketed hosts
    # have no classification row.
    crux = [f"{h},{BUCKETS[i % 4]}" for i, h in enumerate(hosts) if i % 10 != 9]
    crux += [f"orphan{i}.net,{BUCKETS[i % 3]}" for i in range(30)]
    (root / "crux.csv").write_text("origin,rank_bucket\n" + "\n".join(crux) + "\n")
    tranco = [f"{(i * 53) % 1000 + 1},site{i}.{SUFFIXES[i % 4]}" for i in range(0, 600, 2)]
    (root / "tranco.csv").write_text("rank,domain\n" + "\n".join(tranco) + "\n")
    radar = [f"site{i}.{SUFFIXES[i % 4]}" for i in reversed(range(0, 600, 3))]
    (root / "radar.txt").write_text("\n".join(radar) + "\n")
    (root / "histogram.csv").write_text(
        "unique_domain_count,user_fraction\n5,0.2\n10,0.3\n20,0.3\n40,0.2\n"
    )
    scores = []
    for j in range(20):
        v = [0.0] * 350
        v[(j * 17) % 349] = 0.2 + 0.03 * j
        v[(j * 29) % 349] = 0.1 + 0.01 * j
        v[349] = 0.05 * (j % 5)
        scores.append(f"scored{j}.example\t" + " ".join(f"{x:g}" for x in v))
    (root / "scores.tsv").write_text("\n".join(scores) + "\n")


FILE_CHAIN = {
    "n_users": 250, "classification": "classification.tsv", "crux": "crux.csv",
    "tranco": "tranco.csv", "radar": "radar.txt", "histogram": "histogram.csv",
    "sites": ["wa.example", "wb.example"], "epochs": 6, "seed": 3, "threshold": 3,
    "out": "out",
}

GOLDEN_FILES = {
    "analytics.json": "1ae868a4a87a72a0cd8630b4645a98f697e8b9faa8747ea13e18e6e02478cd94",
    "denoise_metrics.csv": "dd1be0226ea70f74118537bea210979ede51664b214f957afb5388339b724746",
    "filtered_classification.tsv": "5afaee292b8bb6c046874e394dc16393308343f72f1cac13608f716d4975d937",
    "log.ndjson": "27d960df4e3326e2233f0a9969f713ac9dd468eca3e745a64c0a7e47968b2335",
    "population.ndjson": "6219522fdaada3636be86728848c119a18b98e0bf868797260c70df194f36726",
    "prevalence_hist.csv": "c89cb1ff7f41d9773086173f52c3ba72af3fa73c5827744cceb352d583e8aece",
    "reid_kcdf_epoch_01.csv": "137c470f9ce003552258491d7c41610282167495007991755061579d3c8b162d",
    "reid_kcdf_epoch_02.csv": "713a8859b2f15aef504c61607152923fd693d0201e6df210c1ee475a483d2327",
    "reid_kcdf_epoch_05.csv": "40ebd5dfb5e11b125eb52cc778a57fc6782274a9fb448d445dbd875e7253eefd",
    "reid_report.csv": "0e536765d6b08c3ce12945832094c92e60d134d2dd5079e80474324599e63486",
    "truth.ndjson": "d856bfc7bf81ba0a03d1b87010442b34c1bd42e216b1fa300018c101824310cd",
}


def test_file_input_chain_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_file_inputs(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(FILE_CHAIN))
    for stage in STAGES:
        assert main([stage, "--config", "cfg.json"]) == 0, stage
    assert main(["filter", "--config", "cfg.json", "--scores", "scores.tsv"]) == 0
    assert_golden(digests(tmp_path / "out"), GOLDEN_FILES)
