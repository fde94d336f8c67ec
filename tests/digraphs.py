"""The Ext digraph's arrows one pair at a time, as an adjacency dict, its
short cycles (by networkx) and its DOT text, for the tests; the library
exports the digraph only as JSON (`invquot.export_digraph_json`)."""

import networkx as nx

from invquot.homs import ext_dims, ext_table
from invquot.search import _sorted_distinct


def edge(sq, u, v) -> bool:
    """True when some Ext group from O(u) to O(v) is nonzero (u != v)."""
    return u != v and any(ext_dims(sq, u, v))


def hom_digraph(sq, vertices):
    """Each vertex, in bidegree order without repeats, with its Ext targets."""
    verts = _sorted_distinct(vertices)
    table = ext_table(sq)
    adj = {}
    for u, m in zip(verts, table.rows(table.layers(verts))):
        targets = []
        while m:
            low = m & -m
            targets.append(verts[low.bit_length() - 1])
            m ^= low
        adj[u] = targets
    return adj


def find_cycles(sq, vertices, max_len: int):
    """All simple cycles of bounded length in the induced Ext digraph,
    each rotated to start at its smallest vertex, sorted."""
    adj = hom_digraph(sq, vertices)
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((u, v) for u, vs in adj.items() for v in vs)
    out = []
    for cyc in nx.simple_cycles(g, length_bound=max_len):
        k = cyc.index(min(cyc))
        out.append(tuple(cyc[k:] + cyc[:k]))
    out.sort(key=lambda c: (len(c), c))
    return out


def export_digraph_dot(sq, vertices) -> str:
    adj = hom_digraph(sq, vertices)
    lines = ["digraph ext {"]
    for u in adj:
        lines.append(f'  "{u}";')
    for u, vs in adj.items():
        for v in vs:
            lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines)
