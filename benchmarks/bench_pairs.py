"""Alternating parent/change perfbench pairs, recorded in a ``BENCH_<version>.json`` file.

Runs ``python3 perfbench/run.py`` in two checkouts, one run at a time, pair
by pair, each run at perfbench's own fixed length: pair ``k`` runs both
sides at seed ``seed_base + k``, and the side that runs first alternates
(the parent on even ``k``).  Each run is appended to ``--out`` as one record
``{set, workload, side, seed, trace, probe_slowdown, probes, result}``,
where ``result`` is the JSON line the run printed and
``probe_slowdown``/``probes`` its machine-speed probe (``None`` in a traced
run, which prints none).  A new ``--out`` file gets a header naming the
change's version, the parent (its commit too, when the parent checkout is a
git clone) and the machine.  A pair whose ``(set, workload, trace, seed)``
``--out`` already holds is refused before anything runs.

After the runs, every run in ``--out`` is summarized per workload, trace
setting and metric: each side's median and quartiles, the pairs the change won
(ties count for neither; "better" is read from ``BENCHMARK.json``), and
whether the gain rule holds: at least ten pairs, the change winning at
least nine tenths of them, the medians differing, in the better direction,
by more than the parent's interquartile range, and no pair in which the
change's run read ``correct: false`` or failed a larger share of its
operations than the parent's.  ``--pairs 0`` only prints that summary.

Usage::

    python3 benchmarks/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload serve --pairs 10 --seed-base 801 --out BENCH_8.0.0.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve", "fleet_replay", "fit")
SIDES = ("parent", "change")
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9

_PROBE_LINE = re.compile(
    r"machine slowdown against the reference speed: ([0-9.]+) \(median of (\d+) probes\)"
)
_VERSION_LINE = re.compile(r'^__version__ = "([^"]+)"', re.MULTILINE)


def metric_directions(benchmark: dict) -> Dict[str, str]:
    """Map each metric named in a ``BENCHMARK.json`` payload to ``"higher"``/``"lower"``."""
    return {
        metric["name"]: metric["better"]
        for section in ("end_to_end", "per_layer")
        for metric in benchmark.get(section, [])
    }


def parse_run(stdout: str) -> dict:
    """The result JSON (last line) and the probe line of one ``perfbench/run.py`` run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    probe = _PROBE_LINE.search(stdout)
    return {
        "probe_slowdown": float(probe.group(1)) if probe else None,
        "probes": int(probe.group(2)) if probe else None,
        "result": result,
    }


def _quartiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _run_key(run: dict) -> tuple:
    return (run["workload"], run["trace"], run["set"], run["seed"])


def _failed_share(result: dict) -> float:
    return result["failed"] / max(result["attempted"], 1)


def _change_fails_more(pair: Dict[str, dict]) -> bool:
    """Whether the change's run in a pair read incorrect or failed a larger share."""
    parent, change = pair["parent"], pair["change"]
    return not change["correct"] or _failed_share(change) > _failed_share(parent)


def summarize(runs: Iterable[dict], directions: Dict[str, str]) -> List[dict]:
    """Per (workload, trace, metric) statistics of paired runs, and the gain rule's verdict.

    Runs pair up by ``(set, workload, trace, seed)``; a second run of one
    side under the same key raises ``ValueError``, since it would silently
    replace the first.  A pair missing a side is dropped, and so is a metric
    either side did not report.  A metric absent from ``directions`` gets
    its statistics but no wins and no verdict.  ``worse_failures`` counts
    the pairs in which the change's run read ``correct: false`` or failed a
    larger share of its operations than the parent's; any such pair denies
    every gain of that workload and trace setting.
    """
    paired: Dict[tuple, Dict[str, dict]] = {}
    for run in runs:
        sides = paired.setdefault(_run_key(run), {})
        if run["side"] in sides:
            workload, trace, run_set, seed = _run_key(run)
            raise ValueError(
                f"two {run['side']} runs of {workload} trace {trace} at seed {seed} "
                f"in set {run_set!r}"
            )
        sides[run["side"]] = run["result"]
    groups: Dict[tuple, List[Dict[str, dict]]] = {}
    for (workload, trace, _, _), sides in sorted(paired.items()):
        if all(side in sides for side in SIDES):
            groups.setdefault((workload, trace), []).append(sides)

    rows = []
    for (workload, trace), pairs in groups.items():
        worse_failures = sum(_change_fails_more(p) for p in pairs)
        for name in pairs[0]["parent"]["metrics"]:
            values = [
                tuple(p[side]["metrics"].get(name, {}).get("value") for side in SIDES)
                for p in pairs
            ]
            if any(value is None for pair in values for value in pair):
                continue
            parent = [p for p, _ in values]
            change = [c for _, c in values]
            p_q1, p_median, p_q3 = _quartiles(parent)
            c_q1, c_median, c_q3 = _quartiles(change)
            better = directions.get(name)
            row = {
                "workload": workload,
                "trace": trace,
                "metric": name,
                "better": better,
                "pairs": len(pairs),
                "worse_failures": worse_failures,
                "parent": {"q1": p_q1, "median": p_median, "q3": p_q3},
                "change": {"q1": c_q1, "median": c_median, "q3": c_q3},
                "wins": None,
                "gain": None,
            }
            if better is not None:
                sign = 1.0 if better == "higher" else -1.0
                row["wins"] = sum(sign * (c - p) > 0 for p, c in values)
                row["gain"] = (
                    len(pairs) >= MIN_PAIRS
                    and row["wins"] >= MIN_WIN_SHARE * len(pairs)
                    and sign * (c_median - p_median) > p_q3 - p_q1
                    and worse_failures == 0
                )
            rows.append(row)
    return rows


def format_summary(rows: Sequence[dict]) -> str:
    lines = []
    for row in rows:
        parent, change = row["parent"], row["change"]
        ratio = change["median"] / parent["median"] if parent["median"] else float("nan")
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        gain = {None: "-", True: "gain", False: "no gain"}[row["gain"]]
        if row["worse_failures"]:
            gain += f" (change failed more in {row['worse_failures']} pairs)"
        lines.append(
            f"{row['workload']:<13} trace {row['trace']} {row['metric']:<28} "
            f"parent {parent['median']:.6g} [{parent['q1']:.6g}, {parent['q3']:.6g}]  "
            f"change {change['median']:.6g} [{change['q1']:.6g}, {change['q3']:.6g}]  "
            f"x{ratio:.3f}  wins {wins}  {gain}"
        )
    return "\n".join(lines)


def _git_commit(tree: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip() or None


def _version(tree: Path) -> Optional[str]:
    init = tree / "src" / "repro" / "__init__.py"
    match = _VERSION_LINE.search(init.read_text(encoding="utf-8")) if init.is_file() else None
    return match.group(1) if match else None


def _header(parent: Path, change: Path) -> dict:
    import numpy

    return {
        "version": _version(change),
        "parent": {"version": _version(parent), "commit": _git_commit(parent)},
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace <trace>",
        "protocol": "alternating parent/change pairs made by benchmarks/bench_pairs.py, "
        "one run at a time; pair k runs both sides at seed seed_base + k, "
        "the parent first on even k",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": 1,
        },
        "runs": [],
    }


def run_perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    command = [
        "python3",
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} failed in {tree} (exit {done.returncode}):\n{done.stderr}"
        )
    return parse_run(done.stdout)


def _save(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    tmp.replace(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help="0 only summarizes --out")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", default="main", help="label recorded with every run")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<version>.json to append to")
    args = parser.parse_args(argv)
    if args.pairs < 0:
        parser.error("--pairs must be 0 or more")
    if args.pairs and not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required to run pairs")

    if args.out.is_file():
        payload = json.loads(args.out.read_text(encoding="utf-8"))
    elif args.pairs:
        payload = _header(args.parent, args.change)
    else:
        parser.error(f"{args.out} does not exist")

    held = {_run_key(run) for run in payload["runs"]}
    for k in range(args.pairs):
        key = (args.workload, args.trace, args.set, args.seed_base + k)
        if key in held:
            parser.error(
                f"{args.out} already holds {args.workload} trace {args.trace} runs at seed "
                f"{key[3]} in set {args.set!r}; choose another --seed-base or --set"
            )

    trees = {"parent": args.parent, "change": args.change}
    for k in range(args.pairs):
        seed = args.seed_base + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_perfbench(trees[side], args.workload, seed, args.trace)
            record = {
                "set": args.set,
                "workload": args.workload,
                "side": side,
                "seed": seed,
                "trace": args.trace,
                **run,
            }
            payload["runs"].append(record)
            _save(args.out, payload)
            result = run["result"]
            print(
                f"pair {k + 1}/{args.pairs} seed {seed} {side}: correct {result['correct']}, "
                f"failed {result['failed']}",
                flush=True,
            )

    directions = metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text("utf-8")))
    print(format_summary(summarize(payload["runs"], directions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
