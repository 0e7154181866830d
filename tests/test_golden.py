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
        "T": 4, "tau": 2, "p": 0.1, "threshold": 5,
        "profile_candidates": 3, "profile_index": 1, "aggressive_gap_rule": True,
    },
}

GOLDEN = {
    "aggressive-skew": {
        "analytics.json": "66ba066dc4e8128c28a570dd7426b64492aa0908d45d863e3a11e0604bed1f87",
        "denoise_metrics.csv": "0d530327a5f22b0a6afdc8c73818dd994164bc51452cbe2a8c94c74d4d71e027",
        "log.ndjson": "d854193401e2c7668f6fad9a3dc0684bc6eed8e6e05e3a7960deef7d32b7db5a",
        "population.ndjson": "e2a60ad2a2b0dbb396df167a60b84e8f031dcfbd436f644a84484f45aa0a63b5",
        "prevalence_hist.csv": "ef8281997be8ccd0ac12af21f1898823e1dfab3a9c32dea39486abcfdd31b68c",
        "reid_kcdf_epoch_01.csv": "3cee2e0bffb14b895c6f4896a0d589346d2bbfbd0db6c1d0e45ee483be2ed257",
        "reid_kcdf_epoch_02.csv": "18bdbacd6eb393a1b9b048acac1e729ee5632c0a8451209f42a2473f8ff51dbf",
        "reid_kcdf_epoch_05.csv": "939e885f13f19b695e63a47b5183184867e2bf0f76f58694fd59dc92751fd370",
        "reid_report.csv": "60d6252c5a587e4eef15f58d2310fe41c4e83f60f02e0a29b6566e6339f352f2",
        "truth.ndjson": "d78ec0b5bbb90a02794c79792fe5d13acd2019073e2b6e50b49fe3a7e1d7e5d3",
    },
    "wide-pool": {
        "analytics.json": "411b42d212cf572c21d8d179fefb77dd844d35b72ed1fc35368cdc3966879d3f",
        "denoise_metrics.csv": "0c452c08bd1e926b3fa264a947e33363e4a4ce6d05412905fe989af2be76b43b",
        "log.ndjson": "88244d62a092d409635989c5515d18312c656ed87cb5218c67e18c585c815803",
        "population.ndjson": "7bfbf81b40db99cd71c86662ed7c7972da3bdd48a44bd38fd4704427942adfa6",
        "prevalence_hist.csv": "860ca6a1adef06e7489212f5e39a21cf6a252b2da8935d0914a374518997407a",
        "reid_kcdf_epoch_01.csv": "53aef31f0f6df0b782fb305d8d5e61ac254cf8eadf1f832705317b9c882f4c2a",
        "reid_kcdf_epoch_02.csv": "3c6db2214ebd1665eee3e174441f2f113c6a6184caffe34959a70b21ca828469",
        "reid_kcdf_epoch_05.csv": "595de61eae6ba3928840bb533345dbf521b0dc68a0d77f13dca3d8ce99dbd774",
        "reid_report.csv": "f38f646e315db6ddbd9d9751e76b51d7cf7ed3dccb416281142e470016f2ada2",
        "truth.ndjson": "3ce90f6a3dbd1bdfd20bd0a73f4397f07ebeda5dedb682a18721ed65f612190f",
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
    "analytics.json": "f400f628bf957c49610731d3145cf117b6b3a9b14bd4b9ca7ae6bb6f422f1437",
    "denoise_metrics.csv": "41f25a1eaa20514b0c91abedeb759a9252face91565ea4564f1c13510acd458b",
    "filtered_classification.tsv": "040e79fa56930b3e5fe885249584ea9bf4bf1f31cc0f64a8fa010701ffbbe493",
    "log.ndjson": "e925271d8c8ffe6819815e74269878a32c2a9337b274139072c6f78eb1cee4b8",
    "population.ndjson": "a86dabc01377ef1d212cf33d3ab465d94be7407847330ed823a842037be83b42",
    "prevalence_hist.csv": "2fe49ceb55b46d44ebebd9eb63b5c283277d8f3abb9770cfded84df83fef790a",
    "reid_kcdf_epoch_01.csv": "6148918b27ddf7f9d321bba10508c234d77d7b61513b06174ae51be5909e4f11",
    "reid_kcdf_epoch_02.csv": "69e471caa9a01c55439d9efae424c3fc96639555c785d72c2c30a07d2a3909ec",
    "reid_kcdf_epoch_05.csv": "9e991cb79a2db5112f67d37b139912a426743eddbb8be79e9d00040470d2aab2",
    "reid_report.csv": "01ebb046bdd3fdf04306047f7b7609b1f58c2f326bea9adcc119a4f70b5e2d76",
    "truth.ndjson": "9a2f9951476e0f712a7b5443e00e1be35081ed153502ca1d2d2b3014f8ca989a",
}


def test_file_input_chain_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_file_inputs(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(FILE_CHAIN))
    for stage in STAGES:
        assert main([stage, "--config", "cfg.json"]) == 0, stage
    assert main(["filter", "--config", "cfg.json", "--scores", "scores.tsv"]) == 0
    assert_golden(digests(tmp_path / "out"), GOLDEN_FILES)
