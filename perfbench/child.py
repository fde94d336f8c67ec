"""One benchmark operation, run cold in a fresh interpreter.

Reads a JSON spec on stdin, runs the operation once against the checkout's
src/invquot, then checks the answer by routes the program did not use, and
writes one JSON object on stdout. The operation is timed from the input
string to the program's output; the checks come after and are not timed.
The machine-speed probe (speed.py) is sampled before, during and after the
timed part; the mean sample is returned with the result, and the time spent
sampling is left out of every time the child reports.

With "trace" set, spans are recorded around the public calls into each
invquot module. They are kept in memory and returned with the result.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import invquot  # noqa: E402
from invquot import chen_ruan, cli, homs, polynomials, search, symmetry  # noqa: E402
from invquot.errors import InvquotError  # noqa: E402
from speed import Sampler  # noqa: E402

if Path(invquot.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"invquot imported from {invquot.__file__}, not from {SRC}")

LES_SAMPLE = 150

# span name -> the module attributes through which callers reach that layer
LAYERS = {
    "polynomials.parse": [(polynomials, "parse"), (cli, "parse")],
    "lattice.snf": [(symmetry, "smith_normal_form")],
    "symmetry.quotient": [(symmetry, "symmetry_quotient"), (cli, "symmetry_quotient")],
    "homs.table": [(homs, "hom_table"), (homs, "representative_table")],
    "chen_ruan.dim": [(chen_ruan, "chen_ruan_dim"), (cli, "chen_ruan_dim")],
    "search.window": [(search, "candidate_window"), (cli, "candidate_window")],
    "search.digraph": [(search, "export_digraph_json")],
    "search.solve": [(search, "max_exceptional"), (cli, "max_exceptional")],
    "search.verify": [(search, "verify_collection")],
}


def _counts(name, out) -> dict:
    """Work counts recorded at the span boundary."""
    if name == "search.window":
        return {"window_vertices": len(out[0])}
    if name == "search.digraph":
        n = len(out["vertices"])
        return {"digraph_pairs": n * (n - 1), "digraph_arrows": len(out["edges"])}
    if name == "search.solve":
        log = out.proof_log
        return {
            "nodes": log["stats"]["nodes"],
            "bound_prunes": log["stats"]["bound_prunes"],
            "cycle_rejects": log["stats"]["cycle_rejects"],
            "seed_gap": out.size - max(s["size"] for s in log["seeds"]),
        }
    return {}


class Tracer:
    """Spans around public calls; active only while the timed operation runs."""

    def __init__(self, op_id: str, clock):
        self.op_id = op_id
        self.clock = clock
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.active = False
        for name, entries in LAYERS.items():
            for module, attr in entries:
                setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {"name": name, "op": self.op_id,
                    "parent": self.stack[-1] if self.stack else None, "counts": {}}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self.stack.pop()
            span["counts"] = _counts(name, out)
            return out

        return traced

    def layer_totals(self) -> tuple[dict, dict]:
        """Self time per layer (span minus its child spans) and summed counts."""
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        for span in self.spans:
            d = span["end"] - span["start"]
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + d
            if span["parent"] is not None:
                parent = self.spans[span["parent"]]["name"]
                self_s[parent] -= d
            for k, v in span["counts"].items():
                counts[k] = counts.get(k, 0) + v
        return self_s, counts


# -- independent checks -------------------------------------------------------


def _les_nonzero(sq, u, v) -> bool:
    return any(homs.ext_dims_via_les(sq, u, v))


def check_witness(sq, witness, domain, size, errors: list):
    """Re-check an exceptional order pairwise by the long-exact-sequence route."""
    if len(witness) != size or len(set(witness)) != size:
        errors.append(f"witness has {len(witness)} objects, optimum {size}")
    if not set(witness) <= set(domain):
        errors.append("witness leaves the searched vertex set")
    for j, e in enumerate(witness):
        if homs.ext_dims_via_les(sq, e, e) != (1, 0, 0, 0):
            errors.append(f"{e} is not exceptional by the LES route")
        for i in range(j):
            if _les_nonzero(sq, e, witness[i]):
                errors.append(f"backward Ext from {e} to {witness[i]} by the LES route")


def check_tables(dims, reps, errors: list):
    """A cell has a representative monomial exactly when its dimension is positive."""
    if any((dims[d] > 0) != (reps[d] is not None) for d in dims):
        errors.append("hom_table and representative_table disagree")


def check_arrows(sq, vertices, graph: dict, subseed: str, errors: list):
    """Re-derive a seeded sample of arrows, and of ordered pairs, of an exported
    digraph by the LES route."""
    if [(a, tuple(b)) for a, b in graph["vertices"]] != [_key(v) for v in vertices]:
        errors.append("digraph vertices differ from the vertex set given")
        return
    by_key = {_key(v): v for v in vertices}
    arrows = {((u[0], tuple(u[1])), (v[0], tuple(v[1]))) for u, v in graph["edges"]}
    rng = random.Random(f"arrows:{subseed}")
    sample = rng.sample(sorted(arrows), min(LES_SAMPLE, len(arrows)))
    sample += [tuple(_key(x) for x in rng.sample(vertices, 2)) for _ in range(LES_SAMPLE)]
    for ku, kv in sample:
        u, v = by_key[ku], by_key[kv]
        if _les_nonzero(sq, u, v) != ((ku, kv) in arrows):
            errors.append(f"arrow {u} -> {v} disagrees with the LES route")


def _key(d):
    return (d.a, d.b)


def draw_subwindow(window, subseed: str, size: int):
    rng = random.Random(f"subwindow:{subseed}")
    return sorted(rng.sample(window, min(size, len(window))), key=_key)


def digest(vertices) -> str:
    text = ";".join(f"{v.a}:{'.'.join(map(str, v.b))}" for v in vertices)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


# -- operations ----------------------------------------------------------------
# Each is timed by the clock it is given and returns (t_start, t_done, checker);
# the checker runs untimed and appends any mismatch to the list it is given.


def op_cli_search(spec, clock):
    out = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out):
        rc = cli.main(spec["argv"])
    t1 = clock()

    def check(errors):
        if rc != 0:
            errors.append(f"exit code {rc}")
            return
        res = json.loads(out.getvalue())["results"]
        if "verdict" in spec and res["verdict"] != spec["verdict"]:
            errors.append(f"verdict {res['verdict']!r}")
        if res["optimum"] != spec["optimum"] or not res["optimal_certified"]:
            errors.append(f"optimum {res['optimum']}, certified {res['optimal_certified']}")
        sq = symmetry.symmetry_quotient(polynomials.parse(spec["polynomial"]))
        window = [homs.bidegree(sq, a, b) for a, b in res["window"]]
        witness = [homs.bidegree(sq, a, b) for a, b in res["witness"]]
        check_witness(sq, witness, window, res["optimum"], errors)

    return t0, t1, check


def op_fermat_digraph(spec, clock):
    t0 = clock()
    sq = symmetry.symmetry_quotient(polynomials.parse(spec["polynomial"]))
    window, _ = search.candidate_window(sq)
    graph = search.export_digraph_json(sq, window)
    t1 = clock()

    def check(errors):
        if len(window) != spec["vertices"] or len(graph["edges"]) != spec["arrows"]:
            errors.append(f"window {len(window)}, arrows {len(graph['edges'])}")
        check_arrows(sq, window, graph, spec["subseed"], errors)

    return t0, t1, check


def op_ladder(spec, clock):
    t0 = clock()
    poly = polynomials.parse(spec["polynomial"])
    blocks = polynomials.atomic_decomposition(poly).blocks
    sq = symmetry.symmetry_quotient(poly)
    dims = homs.hom_table(sq, 3)
    reps = homs.representative_table(sq, 3)
    window, _ = search.candidate_window(sq)
    sub = draw_subwindow(window, spec["subseed"], spec["subwindow"])
    result = search.max_exceptional(sq, vertices=sub)
    t1 = clock()

    def check(errors):
        if sorted(b.kind for b in blocks) != spec["kinds"] or not poly.quasi_smooth_certified:
            errors.append(f"atomic blocks {[b.kind for b in blocks]}")
        if sq.characters is None:
            errors.append("quotient does not split")
        if sq.quotient_order * 3 != spec["det"]:
            errors.append(f"quotient order {sq.quotient_order}, |det A| {spec['det']}")
        check_tables(dims, reps, errors)
        if not result.optimal:
            errors.append("sub-window optimum not certified")
        check_witness(sq, list(result.witness), sub, result.size, errors)
        golden = spec.get("golden")
        if golden is not None and [result.size, digest(sub)] != golden:
            errors.append(f"sub-window optimum {result.size} {digest(sub)}, golden {golden}")

    return t0, t1, check


def complement(spec, tracer: Tracer) -> list[str]:
    """Traced runs only: time, in this cold child, the layers the operation of
    this workload does not reach. The set-up calls before them run untraced."""
    sq = symmetry.symmetry_quotient(polynomials.parse(spec["polynomial"]))
    window, _ = search.candidate_window(sq)
    sub = draw_subwindow(window, spec["subseed"], spec["subwindow"])
    domain = window if spec["kind"] == "cli_search" else sub
    calls = {
        "homs.table": lambda: (homs.hom_table(sq, 3), homs.representative_table(sq, 3)),
        "chen_ruan.dim": lambda: _chen_ruan_or_none(sq),
        "search.digraph": lambda: search.export_digraph_json(sq, domain),
        "search.solve": lambda: search.max_exceptional(sq, vertices=sub),
    }
    tracer.active = True
    out = {name: calls[name]() for name in spec["layers"]}
    tracer.active = False

    errors: list[str] = []
    if "homs.table" in out:
        check_tables(*out["homs.table"], errors)
    expected = spec.get("chen_ruan")
    if "chen_ruan.dim" in out and expected is not None and out["chen_ruan.dim"] != expected:
        errors.append(f"Chen-Ruan dimension {out['chen_ruan.dim']}, expected {expected}")
    if "search.digraph" in out:
        check_arrows(sq, domain, out["search.digraph"], spec["subseed"], errors)
    if "search.solve" in out:
        result = out["search.solve"]
        check_witness(sq, list(result.witness), sub, result.size, errors)
    return errors


def _chen_ruan_or_none(sq):
    try:
        return chen_ruan.chen_ruan_dim(sq)
    except InvquotError:
        return None


OPS = {"cli_search": op_cli_search, "fermat_digraph": op_fermat_digraph, "ladder": op_ladder}


def main() -> int:
    spec = json.load(sys.stdin)
    sampler = Sampler()
    tracer = Tracer(spec["op_id"], sampler.clock) if spec["trace"] else None
    w0 = time.monotonic()
    sampler.start()
    edge_wall = time.monotonic() - w0
    if spec.get("layers"):
        errors = complement(spec, tracer)
        sampler.stop()
        out = {"op_s": 0.0, "speed": sampler.mean(), "errors": errors}
    else:
        if tracer:
            tracer.active = True
        t0, t1, check = OPS[spec["kind"]](spec, sampler.clock)
        if tracer:
            tracer.active = False
        done = time.monotonic()
        probe_wall = edge_wall + sampler.spent
        sampler.stop()
        out = {
            "op_s": t1 - t0,
            "done": done,
            "probe_wall": probe_wall,
            "speed": sampler.mean(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "errors": [],
        }
        check(out["errors"])
    if tracer:
        out["self_s"], out["counts"] = tracer.layer_totals()
        out["spans"] = tracer.spans
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
