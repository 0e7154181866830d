"""Reference oracles that the package's optimised paths are tested against.

Each one is the plain, earlier form of a package routine, kept here so a
faster rewrite can be checked for equal results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from topicsim.classification import PrevalenceTable
from topicsim.denoiser import DenoiserConfig, MultiShotEngine
from topicsim.reidentify import MatchReport, ReidReport, reid_report
from topicsim.simulator import ObservationLog


def argmax_match_one_way(a: np.ndarray, b: np.ndarray, block: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Group sizes and self-containment for each row of `a` matched against `b`."""
    n = a.shape[0]
    bt = b.T.copy()
    k = np.empty(n, dtype=np.int64)
    contains = np.empty(n, dtype=bool)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        overlap = a[lo:hi] @ bt  # counts are small ints, exact in float32
        mx = overlap.max(axis=1)
        k[lo:hi] = (overlap == mx[:, None]).sum(axis=1)
        contains[lo:hi] = overlap[np.arange(hi - lo), np.arange(lo, hi)] == mx
    return k, contains


def reidentify_two_calls(
    log: ObservationLog,
    site_a: str,
    site_b: str,
    prev: PrevalenceTable,
    config: DenoiserConfig = DenoiserConfig(),
    report_epochs: Optional[Iterable[int]] = None,
) -> ReidReport:
    """`run_reidentification` with one full-width product per direction."""
    la, lb = log.site_view(site_a), log.site_view(site_b)
    omega = int(prev.counts.shape[0] - 1)
    ea = MultiShotEngine(la.n_users, omega, prev, config)
    eb = MultiShotEngine(lb.n_users, omega, prev, config)
    sticky_a = np.zeros((la.n_users, omega + 1), dtype=bool)
    sticky_b = np.zeros((lb.n_users, omega + 1), dtype=bool)
    wanted = sorted(set(report_epochs)) if report_epochs is not None else list(range(1, log.epochs + 1))
    forward: list[MatchReport] = []
    reverse: list[MatchReport] = []
    for epoch in range(1, log.epochs + 1):
        ea.observe_epoch(epoch, la.topics[:, epoch - 1, :])
        eb.observe_epoch(epoch, lb.topics[:, epoch - 1, :])
        sticky_a |= ea.genuine_matrix()
        sticky_b |= eb.genuine_matrix()
        if epoch not in wanted:
            continue
        a = sticky_a.astype(np.float32)
        b = sticky_b.astype(np.float32)
        k_ab, c_ab = argmax_match_one_way(a, b)
        k_ba, c_ba = argmax_match_one_way(b, a)
        forward.append(MatchReport(epoch=epoch, k=k_ab, contains_truth=c_ab, n_users=la.n_users))
        reverse.append(MatchReport(epoch=epoch, k=k_ba, contains_truth=c_ba, n_users=lb.n_users))
    return reid_report(forward, reverse)


def _write_header_reference(fh, header: Optional[dict]) -> None:
    if header is not None:
        fh.write(json.dumps({"header": header}, separators=(",", ":"), sort_keys=True) + "\n")


def write_log_ndjson_reference(log: ObservationLog, path: Union[str, Path], header: Optional[dict] = None) -> None:
    """`ObservationLog.write_ndjson` as one `json.dumps` per API result."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header_reference(fh, header)
        for site in log.sites:
            for uid in log.user_ids:
                for e in range(1, log.epochs + 1):
                    res = log.result(site, int(uid), e)
                    fh.write(
                        json.dumps(
                            {"site": res.site, "user": res.user_id, "epoch": res.epoch,
                             "topics": list(res.topics)},
                            separators=(",", ":"),
                        )
                        + "\n"
                    )


def write_truth_ndjson_reference(log: ObservationLog, path: Union[str, Path], header: Optional[dict] = None) -> None:
    """`ObservationLog.write_truth_ndjson` as one `json.dumps` per truth draw."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_header_reference(fh, header)
        for si, site in enumerate(log.sites):
            for ui, uid in enumerate(log.user_ids):
                for ki, src in enumerate(log.source_epochs):
                    fh.write(
                        json.dumps(
                            {"site": site, "user": int(uid), "source_epoch": int(src),
                             "topic": int(log.truth_topics[si, ui, ki]),
                             "noisy": bool(log.truth_noisy[si, ui, ki])},
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
