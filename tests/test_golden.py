"""Golden bytes: two small CLI chains write exactly the recorded artifacts.

A change meant to keep behaviour (ROADMAP aim 2) must keep every
artifact byte for byte. Each chain runs generate, simulate, denoise,
reidentify, report and analytics in-process; the test compares the
sha256 of every file the chain writes against the digests below and
names each artifact that differs. A change meant to alter output
updates these digests in the same commit and says why.
"""

import hashlib
import json

import pytest

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


def run_chain(config: dict, tmp_path) -> dict[str, str]:
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, out=str(out))))
    for stage in STAGES:
        assert main([stage, "--config", str(path)]) == 0, stage
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_artifacts_match_golden_digests(chain, tmp_path):
    got = run_chain(CHAINS[chain], tmp_path)
    want = GOLDEN[chain]
    assert sorted(got) == sorted(want), "artifact set changed"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"artifacts changed: {changed}"
