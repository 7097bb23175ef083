"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json      # A is the base, B the change

One row per workload x end-to-end metric: medians and quartiles of both
sides, the ratio B/A with its base, and a verdict —

``worse``       B's median is worse than A's by more than the metric's bound;
``better``      every run of B beats every run of A, the medians differ by
                more than the spread of A's own runs (q3 - q1), and each
                side has at least 5 runs (with 3 a side, identical code
                separates by chance one time in ten) — a hint, not a claim:
                claims need the ten-pair protocol of the README;
``unresolved``  the runs overlap and one side's spread is wider than the
                bound: the files cannot tell;
``same``        none of the above.

Exits non-zero on any ``worse`` row or when B fails a larger share of
what it attempted.  Bounds and units are read from A, which carries
them, so no tree is needed.
"""

from __future__ import annotations

import json
import sys


def verdict(a, b, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    lo_a, hi_a = min(a["samples"]), max(a["samples"])
    lo_b, hi_b = min(b["samples"]), max(b["samples"])
    overlap = not (hi_b < lo_a or lo_b > hi_a)
    if overlap and spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if (
        not overlap and worse_by < 0 and min(a["n"], b["n"]) >= 5
        and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
    ):
        return "better"
    return "same"


def failed_share(doc):
    return doc["failed"] / doc["attempted"] if doc.get("attempted") else 0.0


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        base, change = json.load(fa), json.load(fb)
    for side, doc in (("A", base), ("B", change)):
        prov = doc["provenance"]
        print("%s: commit %s seed %s nproc %s python %s load %.2f  %s" % (
            side, prov["git_commit"][:12], prov["seed"], prov["nproc"],
            prov["python"], prov["loadavg_1m_start"], prov["platform"],
        ))
    status = 0
    for name, a_doc in base["workloads"].items():
        b_doc = change["workloads"].get(name)
        if b_doc is None:
            print("%-20s missing from B" % name)
            continue
        if a_doc["params"] != b_doc["params"]:
            print("%-20s sizes differ: rows below compare different work" % name)
        for metric in base["end_to_end"]:
            a = a_doc["end_to_end"][metric["name"]]
            b = b_doc["end_to_end"][metric["name"]]
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            print(
                "%-20s %-12s A %.6g [%.6g, %.6g] n=%d  B %.6g [%.6g, %.6g] n=%d  "
                "B/A %.3f (base %.6g %s, bound %g%%)  %s" % (
                    name, metric["name"],
                    a["median"], a["q1"], a["q3"], a["n"],
                    b["median"], b["q1"], b["q3"], b["n"],
                    b["median"] / a["median"], a["median"], a["unit"],
                    metric["bound"] * 100, result,
                )
            )
        share_a, share_b = failed_share(a_doc), failed_share(b_doc)
        if share_b > share_a:
            status = 1
            print("%-20s failed_share rose: A %.6g -> B %.6g" % (name, share_a, share_b))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
