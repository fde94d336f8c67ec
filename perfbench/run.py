"""Cold-process verdict benchmark for invquot.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Every operation runs in a fresh child interpreter (perfbench/child.py), one
at a time: a closed loop with one client. invquot keeps global caches keyed
by value, so a second operation in the same process would measure a warm
program. Passes of the workload's operations repeat until --seconds have
elapsed; the pass in flight at the deadline completes.

Times are in seconds at a fixed reference speed: each child samples a
machine-speed probe (speed.py) before, during and after its operation, and
every time it reports is scaled by REFERENCE_S over the mean sample. The
host this was written on flips between a fast and a 40-70% slower state;
the probe does not depend on invquot, so a change to invquot moves the
scaled times as it moves the raw ones. The raw medians and the speed factor
are printed beside the metrics.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from spans around the public calls into each module. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ladder import build_ladder
from speed import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 15
SUBWINDOW_SIZE = 20   # vertices per seeded ladder sub-window
HARD_STOP_S = 170.0      # no child may run past this point of a run

PENTAGON = "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1"
PENTAGON_VERDICT = (
    "maximum line-bundle exceptional collection = 24 < 54 = required full-collection length"
)
Z9 = "x1^2*x2 + x1*x2^2 + x3^2*x4 + x4^2*x5 + x3*x5^2"
FERMAT = "x1^3 + x2^3 + x3^3 + x4^3 + x5^3"

END_TO_END = {
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SPANS = [
    "polynomials.parse", "lattice.snf", "symmetry.quotient", "homs.table", "chen_ruan.dim",
    "search.window", "search.digraph", "search.solve", "search.verify",
]
PER_LAYER = {
    "polynomials.parse_s": "s",
    "lattice.snf_s": "s",
    "symmetry.quotient_s": "s",
    "homs.table_s": "s",
    "chen_ruan.dim_s": "s",
    "search.window_s": "s",
    "search.window_vertices": "count",
    "search.digraph_s": "s",
    "search.digraph_pairs": "count",
    "search.digraph_arrows": "count",
    "search.ext_pair_us": "us",
    "search.solve_s": "s",
    "search.nodes": "count",
    "search.bound_prunes": "count",
    "search.cycle_rejects": "count",
    "search.nodes_per_s": "1/s",
    "search.prune_ratio": "ratio",
    "search.seed_gap": "count",
    "search.verify_s": "s",
    "cli.other_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


# -- workloads -----------------------------------------------------------------


class Fatal(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float            # wall limit of one child
    complement: list[str]     # layers a traced run times in a second cold child,
                              # because the operation does not reach them
    passes: Callable[[int, int], list[dict]]   # seed, pass index -> one spec per input


def _headline(seed, p):
    return [{
        "kind": "cli_search", "polynomial": PENTAGON,
        "argv": ["search", "--preset", "lu-counterexample", "-f", "json"],
        "verdict": PENTAGON_VERDICT, "optimum": 24,
        "subseed": f"{seed}:{p}",
    }]


def _z9(seed, p):
    return [{
        "kind": "cli_search", "polynomial": Z9, "argv": ["search", Z9, "-f", "json"],
        "optimum": 20, "subseed": f"{seed}:{p}",
    }]


def _fermat(seed, p):
    return [{
        "kind": "fermat_digraph", "polynomial": FERMAT, "vertices": 518, "arrows": 53449,
        "subseed": f"{seed}:{p}",
    }]


@functools.cache
def _ladder_data():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    ladder = build_ladder()
    if golden["inputs"] != [item.name for item in ladder] or golden["subwindow"] != SUBWINDOW_SIZE:
        raise Fatal("golden.json was made for other ladder inputs; rerun make_golden.py")
    return ladder, golden["optima"]


def _ladder(seed, p):
    ladder, optima = _ladder_data()
    golden = optima.get(str(seed), [])
    specs = []
    for i, item in enumerate(ladder):
        spec = {
            "kind": "ladder", "name": item.name, "polynomial": item.text,
            "kinds": list(item.kinds), "det": item.det, "subseed": f"{seed}:{p}:{i}",
        }
        if item.name == "loop5":
            spec["chen_ruan"] = 54
        if p < len(golden):
            spec["golden"] = golden[p][i]
        specs.append(spec)
    return specs


WORKLOADS = {
    w.name: w for w in (
        Workload("headline", 60, ["search.digraph", "homs.table"], _headline),
        Workload("z9-certify", 120, ["search.digraph", "homs.table"], _z9),
        Workload("fermat-ext", 60, ["search.solve", "chen_ruan.dim", "homs.table"], _fermat),
        Workload("ladder-sweep", 60, ["search.digraph", "chen_ruan.dim"], _ladder),
    )
}


# -- machine facts ---------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts(seed: int) -> dict:
    cpu = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg": (_read(Path("/proc/loadavg")) or "").strip() or None,
    }


# -- children ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """Seconds from spawning an interpreter to the end of `import invquot`,
    with the speed factor the same child probes right after; (raw, factor)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import invquot; "
        "t = time.monotonic(); sys.path.insert(0, sys.argv[2]); import speed; "
        "s = speed.Sampler(); s.edge(); print(repr(t), repr(s.mean()))"
    )
    out = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(CHILD.parent)],
            capture_output=True, text=True, timeout=60, env=_child_env(), cwd=ROOT,
        )
        if proc.returncode != 0:
            raise Fatal(f"cannot import invquot: {proc.stderr.strip()[-500:]}")
        done, probe_s = map(float, proc.stdout.split())
        out.append((done - t0, REFERENCE_S / probe_s))
    return out


def run_child(spec: dict, limit_s: float) -> dict:
    """One cold child, its times scaled to the reference speed. Failed means a
    failed check, an exception, a non-zero exit, or a kill at the wall limit;
    a child that fails before its output is ready is timed by its wall time,
    unscaled."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(spec), capture_output=True,
            text=True, timeout=limit_s, env=_child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "op_s": limit_s, "spawn_to_done": time.monotonic() - t0,
                "errors": [f"killed at the {limit_s:.0f}s wall limit"]}
    if proc.returncode != 0:
        wall = time.monotonic() - t0
        return {"ok": False, "op_s": wall, "spawn_to_done": wall,
                "errors": [(proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]]}
    rec = json.loads(proc.stdout)
    rec["ok"] = not rec["errors"]
    factor = REFERENCE_S / rec.pop("speed")
    rec["factor"] = factor
    rec["raw_op_s"] = rec["op_s"]
    rec["op_s"] *= factor
    if "done" in rec:
        rec["spawn_to_done"] = factor * (rec.pop("done") - t0 - rec.pop("probe_wall"))
    if "self_s" in rec:
        rec["self_s"] = {k: v * factor for k, v in rec["self_s"].items()}
    return rec


# -- metrics -------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, but never below
    p75: a run with fewer than 40 samples keeps a quarter of them beyond, and
    one with fewer than 4 reports its maximum. Returns (value, percentile,
    samples beyond). The maximum of a handful of operations is set by the
    single slowest one, so it is too unsteady to compare runs by."""
    s = sorted(values)
    n = len(s)
    beyond = min(10, n // 4)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def combine(children: list[dict]) -> dict:
    """One operation from its cold children: times add, memory is the largest."""
    rss = [c["rss_mb"] for c in children if "rss_mb" in c]
    return {
        "ok": all(c["ok"] for c in children),
        "op_s": sum(c["op_s"] for c in children),
        "raw_op_s": sum(c.get("raw_op_s", c["op_s"]) for c in children),
        "factors": [c["factor"] for c in children if "factor" in c],
        "spawn_to_done": sum(c.get("spawn_to_done", 0.0) for c in children),
        "rss_mb": max(rss) if rss else None,
        "errors": [e for c in children for e in c["errors"]],
    }


def end_to_end(ops: list[dict], setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    lat = [op["op_s"] for op in ops]
    correct = sum(op["ok"] for op in ops)
    tail_s, pct, beyond = tail(lat)
    rss = [op["rss_mb"] for op in ops if op["rss_mb"] is not None]
    values = {
        "verdict_p50_s": statistics.median(lat),
        "verdict_tail_s": tail_s,
        "ops_per_s": correct / sum(op["spawn_to_done"] for op in ops),
        "setup_s": statistics.median(raw * factor for raw, factor in setup),
        "peak_rss_mb": max(rss) if rss else 0.0,
    }
    notes = {
        "verdict_p50_s": f"median of {len(lat)} operations",
        "verdict_tail_s": f"p{pct:.1f} of {len(lat)}, {beyond} samples beyond",
        "ops_per_s": f"{correct} correct operations, child start included",
        "setup_s": f"median of {len(setup)} spawns",
        "peak_rss_mb": f"max over {len(rss)} operations",
    }
    lines = [f"{k} = {values[k]:.6g} {END_TO_END[k]}  ({notes[k]})" for k in END_TO_END]
    factors = [f for op in ops for f in op["factors"]] or [float("nan")]
    lines.append(
        f"unscaled: verdict_p50_s {statistics.median(op['raw_op_s'] for op in ops):.6g} s, "
        f"setup_s {statistics.median(raw for raw, _ in setup):.6g} s; speed factor "
        f"median {statistics.median(factors):.4g}, range {min(factors):.4g} to {max(factors):.4g}"
    )
    return values, lines


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Layer self times as means per pass; counts from the first pass, which the
    seed fixes exactly."""
    k = len(passes)
    mean = {n: sum(p["self_s"].get(n, 0.0) for p in passes) / k for n in SPANS}
    op_s = sum(p["op_s"] for p in passes) / k
    first = passes[0]["counts"]
    all_nodes = sum(p["counts"].get("nodes", 0) for p in passes)
    all_solve = sum(p["self_s"].get("search.solve", 0.0) for p in passes)
    pairs = first.get("digraph_pairs", 0)
    values = {f"{n}_s": mean[n] for n in SPANS}
    values.update({
        "search.window_vertices": first.get("window_vertices", 0),
        "search.digraph_pairs": pairs,
        "search.digraph_arrows": first.get("digraph_arrows", 0),
        "search.ext_pair_us": 1e6 * mean["search.digraph"] / pairs if pairs else 0.0,
        "search.nodes": first.get("nodes", 0),
        "search.bound_prunes": first.get("bound_prunes", 0),
        "search.cycle_rejects": first.get("cycle_rejects", 0),
        "search.nodes_per_s": all_nodes / all_solve if all_solve else 0.0,
        "search.prune_ratio": (first["bound_prunes"] / first["nodes"]) if first.get("nodes") else 0.0,
        "search.seed_gap": first.get("seed_gap", 0),
        "cli.other_s": op_s - sum(mean.values()),
        "trace.op_s": op_s,
        "trace.overhead_s": sum(p["overhead_s"] for p in passes) / k,
    })
    values = {m: values[m] for m in PER_LAYER}
    lines = [f"{m} = {v:.6g} {PER_LAYER[m]}" for m, v in values.items()]
    lines.append(f"(layer times are means over {k} passes; counts are from pass 0)")
    return values, lines


# -- runs ------------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool):
    """Whole passes until the deadline. A pass is one operation: one cold child
    per input of the workload (three in a traced run)."""
    start = time.monotonic()
    setup = measure_setup(SETUP_SAMPLES)
    deadline = time.monotonic() + seconds
    ops: list[dict] = []
    passes: list[dict] = []
    spans: list[dict] = []

    def child(spec):
        remaining = start + HARD_STOP_S - time.monotonic()
        if remaining <= 0:
            return {"ok": False, "op_s": w.limit_s,
                    "errors": ["run out of time before the operation started"]}
        return run_child(spec, min(w.limit_s, remaining))

    p = 0
    while True:
        children = []
        acc = {"self_s": {}, "counts": {}, "op_s": 0.0, "overhead_s": 0.0}
        for i, spec in enumerate(w.passes(seed, p)):
            spec = {**spec, "op_id": f"{w.name}:{seed}:{p}:{i}", "trace": False,
                    "subwindow": SUBWINDOW_SIZE}
            if not trace:
                children.append(child(spec))
                continue
            plain = child(spec)
            traced = child({**spec, "trace": True})
            extra = child({**spec, "trace": True, "layers": w.complement})
            children.extend([plain, traced, extra])
            if not (plain["ok"] and traced["ok"] and extra["ok"]):
                continue
            for rec in (traced, extra):
                spans.extend(rec["spans"])
                for name, v in rec["self_s"].items():
                    acc["self_s"][name] = acc["self_s"].get(name, 0.0) + v
                for name, v in rec["counts"].items():
                    acc["counts"][name] = acc["counts"].get(name, 0) + v
            acc["op_s"] += traced["op_s"] + sum(extra["self_s"].values())
            acc["overhead_s"] += traced["op_s"] - plain["op_s"]
        ops.append(combine(children))
        passes.append(acc)
        p += 1
        if time.monotonic() >= deadline:
            break

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    if trace:
        values, lines = per_layer(passes)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{w.name}-seed{seed}.json", "w") as fh:
            json.dump({"workload": w.name, "seed": seed, "spans": spans}, fh)
    else:
        values, lines = end_to_end(ops, setup)
    lines.append(f"fail_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    lines.extend(f"FAILED: {e}" for op in ops for e in op["errors"])
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines, time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invquot" / "__init__.py").is_file():
        print(f"error: no invquot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("# machine: " + json.dumps(machine_facts(args.seed)), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines, wall = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                               bool(args.trace))
            print(f"# workload {name}: seed {args.seed}, {wall:.1f}s wall, trace {args.trace}")
            for line in lines:
                print(f"  {line}")
            results[name] = result
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
