#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent REV --change REV --out BENCH_<n>.json \\
        --workload train_ambiguity --workload pipeline_cli --seeds 401-410 --seconds 15

Both revisions are exported with `git archive` into one private temporary
directory, which is removed at the end; no worktree is made and nothing in
the repository changes. For each workload and seed, the unchanged
`perfbench/run.py` of each export runs once with `--trace 0`, and which side
runs first alternates from seed to seed. `--trace-seed` adds one traced run
per side and workload (`--trace-seconds` long). The output keeps every run record and, per workload
and end-to-end metric, each side's median and quartiles (numpy percentiles
25/50/75, linear), the pairs the change won (ties count for neither), the
parent's IQR and the gap between the medians, each side's spread (IQR over
median, unknown where the median is 0), `unresolved` where either side's
spread exceeds the metric's bound or is unknown and not every change run
beats every parent run, and, under `unscaled`, each
side's quartiles of every raw stage time and of the reference unit's median
(scaled medians drift as the host gets faster); it also keeps each side's
`src/triagerl/*.py` line count as `src_lines` and its count of settable
values as `settable_values` (see `settable_values`). `--claim WORKLOAD:METRIC`
adds a claim block, met when the change wins at least 9 of 10 pairs, its
median is better by at least `--min-gain`, and the medians differ by more
than the parent's IQR; it also summarizes the seeds not listed in
`--dev-seeds` on their own. The file is rewritten after every pair, so an
interrupted round keeps what it measured.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def resolve(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """The tree of commit `sha`, unpacked from `git archive` under `dest`."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                          check=True, capture_output=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def src_lines(tree: Path) -> int:
    """Lines of `src/triagerl/*.py` in `tree`, counted as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "triagerl").glob("*.py"))


def _named(node: ast.expr, name: str) -> bool:
    """Whether `node` is `name` or `something.name`, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == name


def _init_false(value: ast.expr) -> bool:
    """Whether `value` is a `field(init=False)` call."""
    return isinstance(value, ast.Call) and _named(value, "field") and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def _parameters(args: ast.arguments, skip: int = 0) -> list[tuple]:
    """(name, line, defaulted, positional) of each parameter in `args`, in
    signature order, less the first `skip` positional ones."""
    positional = (args.posonlyargs + args.args)[skip:]
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return ([(p.arg, p.lineno, d is not None, True) for p, d in zip(positional, defaults)]
            + [(p.arg, p.lineno, d is not None, False)
               for p, d in zip(args.kwonlyargs, args.kw_defaults)])


def signatures(tree: Path):
    """(file, name, parameters) of each function, lambda and class with an
    `__init__` or a `@dataclass` decorator in `src/triagerl/*.py` under
    `tree`. The name is the one a call uses: a class's own, or `<lambda>`.
    Parameters are as `_parameters` gives them, without `self`; a
    dataclass's are its fields less those given `field(init=False)`."""
    for path in sorted((tree / "src" / "triagerl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.Lambda):
                yield path, "<lambda>", _parameters(node.args)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name != "__init__":
                    yield path, node.name, _parameters(node.args)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                        yield path, node.name, _parameters(stmt.args, skip=1)
                if any(_named(d, "dataclass") for d in node.decorator_list):
                    yield path, node.name, [
                        (s.target.id, s.lineno, s.value is not None, True) for s in node.body
                        if isinstance(s, ast.AnnAssign) and not _init_false(s.value)]


def settable(tree: Path):
    """(file, line, `name.parameter`) of each value a caller of
    `src/triagerl/*.py` in `tree` may set: each defaulted parameter of a
    function or lambda, and each field with a default of a `@dataclass`
    class, less those given `field(init=False)` (see `signatures`)."""
    for path, name, params in signatures(tree):
        for param, line, defaulted, _ in params:
            if defaulted:
                yield path, line, f"{name}.{param}"


def settable_values(tree: Path) -> int:
    """How many values `settable` finds in `tree`."""
    return sum(1 for _ in settable(tree))


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `tree`: its run record and its result."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return {"record": json.loads(lines[-2])["run_record"], "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def summarize(runs: list[dict], metric: str, better: str, bound: float) -> dict:
    """Both sides' distribution of `metric` over paired `runs`, and who won."""
    values = {side: [r[side]["result"]["metrics"][metric]["value"] for r in runs] for side in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    ratio = change["median"] / parent["median"] if parent["median"] else float("nan")
    spread = {side: (q["q3"] - q["q1"]) / q["median"] if q["median"] else float("nan")
              for side, q in (("parent", parent), ("change", change))}
    beats_all = all(sign * (c - p) < 0 for c in values["change"] for p in values["parent"])
    return {
        "parent": parent, "change": change, "change_over_parent": ratio, "wins": wins,
        "better": better,
        "pairs": len(runs), "worse_by": sign * (ratio - 1.0), "bound": bound,
        "parent_iqr": parent["q3"] - parent["q1"],
        "median_gap": abs(change["median"] - parent["median"]),
        "spread": spread,
        "unresolved": not all(x <= bound for x in spread.values()) and not beats_all,
    }


def unscaled(runs: list[dict]) -> dict:
    """Per side, the quartiles of each unscaled stage time (`raw_stage_s`) and
    of the reference unit's median over paired `runs`."""
    out = {}
    for side in SIDES:
        records = [r[side]["record"] for r in runs]
        stages = dict.fromkeys(name for record in records for name in record["raw_stage_s"])
        out[side] = {
            "raw_stage_s": {name: quartiles([record["raw_stage_s"][name] for record in records
                                             if name in record["raw_stage_s"]])
                            for name in stages},
            "reference_unit_s": quartiles([record["reference_unit_s"]["median"]
                                           for record in records]),
        }
    return out


def workload_block(runs: list[dict], metrics: list[dict]) -> dict:
    return {
        "summary": {m["name"]: summarize(runs, m["name"], m["better"], m["bound"])
                    for m in metrics},
        "unscaled": unscaled(runs),
        "correct": all(r[side]["result"]["correct"] for r in runs for side in SIDES),
        "failed": {side: sum(r[side]["result"]["failed"] for r in runs) for side in SIDES},
        "hashes_equal": all(r["parent"]["record"]["hashes"] == r["change"]["record"]["hashes"]
                            for r in runs),
        "runs": runs,
    }


def claim_block(doc: dict, claim: str, min_gain: float, dev_seeds: list[int]) -> dict:
    workload, metric = claim.split(":")
    block = doc["workloads"][workload]
    s = block["summary"][metric]
    unseen = [r for r in block["runs"] if r["seed"] not in dev_seeds]
    gain = -s["worse_by"]
    return {
        "metric": metric, "workload": workload,
        "target": f"change median better by >= {min_gain:.0%}, winning >= 9 of 10 alternating "
                  "pairs, medians further apart than the parent's IQR",
        "parent_median": s["parent"]["median"], "change_median": s["change"]["median"],
        "ratio": s["change_over_parent"], "gain": gain, "wins": s["wins"], "pairs": s["pairs"],
        "parent_iqr": s["parent_iqr"], "median_gap": s["median_gap"],
        "dev_seeds": dev_seeds,
        "unseen_seeds": summarize(unseen, metric, s["better"], s["bound"]) if unseen else None,
        "met": gain >= min_gain and s["wins"] >= 0.9 * s["pairs"]
        and s["median_gap"] > s["parent_iqr"],
    }


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision compared against")
    parser.add_argument("--change", required=True, help="the revision that claims a change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 401-410 or 401,405")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace-seed", type=int, help="also one traced run per side at this seed")
    parser.add_argument("--trace-seconds", type=float, help="traced run length (default --seconds)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--min-gain", type=float, default=0.0, help="claimed fractional gain")
    parser.add_argument("--dev-seeds", type=seeds, default=[],
                        help="seeds used while the change was written; the claim block "
                             "also summarizes the other seeds alone")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    shas = {"parent": resolve(args.parent), "change": resolve(args.change)}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} "
                   "--trace 0|1",
        "host": f"{platform.machine()}, Python {platform.python_version()}, numpy "
                f"{np.__version__}; times scaled to the benchmark's reference computation",
        "method": "each pair runs the parent and the change one after the other on the same "
                  "seed, alternating which side runs first; quartiles are numpy percentiles "
                  "25/50/75 (linear interpolation); a pair is won when the change reads better",
        **shas, "workloads": {}, "traced": {},
    }

    def save() -> None:
        if args.claim and args.claim.split(":")[0] in doc["workloads"]:
            doc["claim"] = claim_block(doc, args.claim, args.min_gain, args.dev_seeds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        doc["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        doc["settable_values"] = {side: settable_values(tree) for side, tree in trees.items()}
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, args.seconds, 0)
                runs.append(pair)
                doc["workloads"][workload] = workload_block(runs, metrics)
                save()
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m['name']} {pair['parent']['result']['metrics'][m['name']]['value']:.4g}"
                    f" -> {pair['change']['result']['metrics'][m['name']]['value']:.4g}"
                    for m in metrics), flush=True)
            if args.trace_seed is not None:
                seconds = args.trace_seconds or args.seconds
                traced = {side: run(trees[side], workload, args.trace_seed, seconds, 1)
                          for side in SIDES}
                doc["traced"][workload] = {"seed": args.trace_seed, "seconds": seconds, **{
                    side: {k: v["value"] for k, v in t["result"]["metrics"].items()}
                    for side, t in traced.items()}}
                save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
