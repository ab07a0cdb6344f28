#!/usr/bin/env python3
"""Paired A/B comparison of a git revision and the working tree on the
repository benchmark.

    python3 tools/ab.py BASE WORKLOAD [--seed N]

BASE is checked out with ``git worktree`` under a temporary directory;
the other side is the working tree.  Both must carry the same ``perfbench/``
and ``BENCHMARK.json`` (exit 2 otherwise).  The tool runs ``PAIRS``
alternating pairs of untraced perfbench runs (pair *i* runs BASE first when
*i* is even), then one traced run per side for the per-layer metrics.  The
window, the command and every metric with its unit, direction and bound come
from ``BENCHMARK.json``.

The last line of standard output is one JSON record (docs/PERFORMANCE.md §2);
the lines before it give one verdict row per end-to-end metric.  Exit 1 when
any run on either side was not correct or failed a simulation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: Alternating pairs per comparison: the review rule's minimum.
PAIRS = 10
REPORT_PREFIX = "report: "


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def run_perfbench(root: Path, bench: Dict, workload: str, seed: int,
                  trace: int) -> Tuple[Dict, Dict]:
    """One perfbench run in *root*; returns (provenance, result line)."""
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    reports = [line for line in lines if line.startswith(REPORT_PREFIX)]
    if done.returncode != 0 or not reports:
        raise RuntimeError(
            f"{' '.join(argv)} in {root} exited {done.returncode} without a "
            f"result:\n{done.stderr.strip()[-2000:]}"
        )
    report = json.loads(reports[-1][len(REPORT_PREFIX):])
    return report["provenance"], json.loads(lines[-1])


def compare(base: Sequence[float], head: Sequence[float], better: str,
            bound: float) -> Dict:
    """Pairwise wins and the verdict for one end-to-end metric.

    ``regressed``: the head median is worse than the base median by more
    than ``bound`` x base median.  ``gain``: head wins at least 9 in 10
    pairs, its median is better, and by more than the base IQR.
    ``unresolved``: the base IQR exceeds ``bound`` x base median and not
    every head run beats every base run.  ``no_change`` otherwise.
    """
    sign = 1 if better == "higher" else -1

    def beats(h: float, b: float) -> bool:
        return sign * (h - b) > 0

    wins = sum(beats(h, b) for b, h in zip(base, head))
    losses = sum(beats(b, h) for b, h in zip(base, head))
    sides = {}
    for name, values in (("base", base), ("head", head)):
        q1, _, q3 = statistics.quantiles(values, n=4)
        sides[name] = {"runs": list(values), "median": statistics.median(values),
                       "q1": q1, "q3": q3}
    base_median = sides["base"]["median"]
    improvement = sign * (sides["head"]["median"] - base_median)
    base_iqr = sides["base"]["q3"] - sides["base"]["q1"]
    limit = bound * abs(base_median)
    if -improvement > limit:
        verdict = "regressed"
    elif wins >= 0.9 * len(base) and improvement > base_iqr:  # IQR >= 0
        verdict = "gain"
    elif base_iqr > limit and not all(beats(h, b) for h in head for b in base):
        verdict = "unresolved"
    else:
        verdict = "no_change"
    return {**sides, "wins": wins, "losses": losses,
            "ties": len(base) - wins - losses, "verdict": verdict}


def measure(sides: Dict[str, Path], bench: Dict, workload: str,
            seed: int) -> Dict:
    """Run the pairs and the traced runs; returns the record."""
    paired: Dict[str, List[Dict]] = {"base": [], "head": []}
    provenance: Dict[str, Dict] = {}
    for i in range(PAIRS):
        for name in ("base", "head") if i % 2 == 0 else ("head", "base"):
            provenance[name], result = run_perfbench(
                sides[name], bench, workload, seed, trace=0)
            paired[name].append(result)
            print(f"pair {i + 1}/{PAIRS} {name}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
    traced = {name: run_perfbench(sides[name], bench, workload, seed, trace=1)[1]
              for name in ("base", "head")}

    def values(name: str, metric: str) -> List[float]:
        return [r["metrics"][metric]["value"] for r in paired[name]]

    record: Dict = {"workload": workload, "seed": seed, "pairs": PAIRS}
    for name in ("base", "head"):
        every = paired[name] + [traced[name]]
        record[name] = {
            "provenance": provenance[name],
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "correct": all(r["correct"] is True and r["failed"] == 0 for r in every),
        }
    record["end_to_end"] = {
        m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                    **compare(values("base", m["name"]), values("head", m["name"]),
                              m["better"], m["bound"])}
        for m in bench["end_to_end"]
    }
    record["per_layer"] = {
        m["name"]: {"unit": m["unit"], "better": m["better"],
                    "base": traced["base"]["metrics"][m["name"]]["value"],
                    "head": traced["head"]["metrics"][m["name"]]["value"]}
        for m in bench["per_layer"]
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("workload", help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=12648430)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if _git("diff", "--quiet", args.base, "--", "perfbench", "BENCHMARK.json").returncode:
        print(f"error: perfbench/ or BENCHMARK.json differs between "
              f"{args.base} and the working tree (or {args.base} is not a "
              f"revision)", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        worktree = Path(tmp) / "base"
        added = _git("worktree", "add", "--detach", str(worktree), args.base)
        try:
            if added.returncode:
                print(f"error: {added.stderr.strip()}", file=sys.stderr)
                return 2
            record = measure({"base": worktree, "head": ROOT}, bench,
                             args.workload, args.seed)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            if added.returncode == 0:
                _git("worktree", "remove", "--force", str(worktree))

    record["base"]["rev"] = args.base
    for name, row in record["end_to_end"].items():
        print(f"{args.workload} {name}: base {row['base']['median']:.4g} "
              f"[{row['base']['q1']:.4g}, {row['base']['q3']:.4g}] -> head "
              f"{row['head']['median']:.4g} [{row['head']['q1']:.4g}, "
              f"{row['head']['q3']:.4g}] {row['unit']}, wins {row['wins']}/"
              f"{PAIRS}, ties {row['ties']}: {row['verdict']}")
    print(json.dumps(record, sort_keys=True))
    return 0 if record["base"]["correct"] and record["head"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
