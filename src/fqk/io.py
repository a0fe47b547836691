"""JSON (de)serialization for rings, modules, and quivers, plus DOT export
and a small DOT well-formedness checker."""

from __future__ import annotations

import json
import re
from pathlib import Path

from .module import ActionLabel, ModuleCategory
from .quiver import CoxeterGraph, Edge, FusionQuiver
from .ring import FusionRing, as_int, fmt_m


# ---------------------------------------------------------------------------
# JSON

def ring_to_dict(ring: FusionRing) -> dict:
    return {
        "names": list(ring.names),
        "unit": ring.unit,
        "N": [[list(row) for row in mat] for mat in ring.N],
        "dual": list(ring.dual),
    }


def _names(seq) -> tuple:
    """Names of simples or vertices, which are strings."""
    names = tuple(seq)
    if not all(isinstance(s, str) for s in names):
        raise ValueError(f"names must be strings, not {seq!r}")
    return names


def ring_from_dict(d: dict) -> FusionRing:
    return FusionRing.from_data(
        _names(d["names"]), d.get("unit", 0), d["N"], d.get("dual")
    )


def module_to_dict(M: ModuleCategory) -> dict:
    return {
        "ring": ring_to_dict(M.ring),
        "mnames": list(M.mnames),
        "act": [[list(row) for row in mat] for mat in M.act],
    }


def module_from_dict(d: dict, base: Path | None = None) -> ModuleCategory:
    ring = ring_from_dict(_read(d["ring"], base)[0])
    return ModuleCategory.from_data(ring, _names(d["mnames"]), d["act"])


def _label_to_json(Q: FusionQuiver, label):
    if isinstance(label, ActionLabel):
        return {"matrix": [list(row) for row in label.matrix]}
    if Q.ring is not None and sum(label) == 1 and all(c in (0, 1) for c in label):
        return Q.ring.names[label.index(1)]
    return list(label)


def label_from_json(ring: FusionRing | None, spec):
    if isinstance(spec, dict):
        extra = sorted(spec.keys() - {"matrix"})
        if extra:
            raise ValueError(f"a matrix label takes only the key 'matrix', not {extra}")
        return ActionLabel.from_rows(spec["matrix"])
    if isinstance(spec, str):
        if ring is None:
            raise ValueError("named label requires ring data")
        if spec not in ring.names:
            raise ValueError(f"unknown label {spec!r}")
        return ring.basis(spec)
    return tuple(map(as_int, spec))


def quiver_to_dict(Q: FusionQuiver) -> dict:
    out = {
        "vertices": list(Q.vertices),
        "edges": [
            {"from": e.source, "to": e.target, "label": _label_to_json(Q, e.label)}
            for e in Q.edges
        ],
    }
    if Q.ring is not None:
        out["ring"] = ring_to_dict(Q.ring)
    if Q.module is not None:
        out["module"] = module_to_dict(Q.module)
    if Q.mnames is not None:
        out["mnames"] = list(Q.mnames)
    return out


def quiver_from_dict(d: dict, base: Path | None = None) -> FusionQuiver:
    ring = None
    if "ring" in d:
        ring = ring_from_dict(_read(d["ring"], base)[0])
    module = None
    if "module" in d:
        module = module_from_dict(*_read(d["module"], base))
        if ring is None:
            ring = module.ring
    edges = tuple(
        Edge(as_int(e["from"]), as_int(e["to"]), label_from_json(ring, e["label"]))
        for e in d["edges"]
    )
    mnames = _names(d["mnames"]) if "mnames" in d else None
    return FusionQuiver(
        vertices=_names(d["vertices"]), edges=edges, ring=ring, module=module,
        mnames=mnames,
    )


def _read(spec, base: Path | None = None) -> tuple:
    """An inline object as it is, or the JSON file a path names (a relative
    path read from `base`), with the directory that the object's own
    relative paths are read from."""
    if not isinstance(spec, (str, Path)):
        return spec, base
    p = Path(spec) if base is None else base / spec
    return json.loads(p.read_text()), p.parent


def load_ring(path) -> FusionRing:
    return ring_from_dict(_read(path)[0])


def load_module(path) -> ModuleCategory:
    return module_from_dict(*_read(path))


def load_quiver(path) -> FusionQuiver:
    return quiver_from_dict(*_read(path))


def dumps(obj_dict: dict) -> str:
    return json.dumps(obj_dict, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# DOT

def _q(s) -> str:
    return '"' + str(s).replace('"', '\\"') + '"'


def terms_text(names, coeffs) -> str:
    """The non-zero terms of a combination of `names`, each "name" or
    "c*name", joined by "+"; "" when every coefficient is zero."""
    return "+".join(nm if c == 1 else f"{c}*{nm}" for nm, c in zip(names, coeffs) if c)


def label_pretty(Q: FusionQuiver, label) -> str:
    if isinstance(label, ActionLabel):
        return "matrix"
    return terms_text(Q.ring.names, label) or "0"


def _dot(head: str, arrow: str, nodes, edges) -> str:
    """DOT text of a graph: `head` opens it ("digraph name"), `arrow` is "->"
    or "--", and each edge is (source, target, label), label None for none."""
    lines = [f"{head} {{"] + [f"  {_q(v)};" for v in nodes]
    for s, t, lbl in edges:
        attr = "" if lbl is None else f" [label={_q(lbl)}]"
        lines.append(f"  {_q(s)} {arrow} {_q(t)}{attr};")
    return "\n".join(lines + ["}"]) + "\n"


def quiver_dot(Q: FusionQuiver) -> str:
    V = Q.vertices
    edges = ((V[e.source], V[e.target], label_pretty(Q, e.label)) for e in Q.edges)
    return _dot("digraph fusion_quiver", "->", V, edges)


def gamma_dot(G: CoxeterGraph) -> str:
    V = G.vertices
    return _dot("graph coxeter", "--", V, ((V[u], V[v], fmt_m(m)) for u, v, m in G.edges))


def unfolded_dot(U) -> str:
    names = U.vertex_names()
    edges = ((names[s], names[t], None if m == 1 else str(m)) for s, t, m in U.arrows)
    return _dot("digraph unfolded", "->", names, edges)


_DOT_HEADER = re.compile(r"^(di)?graph\s+\w+\s*\{$")
_DOT_NODE = re.compile(r'^"(?:[^"\\]|\\.)*"\s*;$')
_DOT_EDGE = re.compile(
    r'^"(?:[^"\\]|\\.)*"\s*(->|--)\s*"(?:[^"\\]|\\.)*"'
    r'(\s*\[label="(?:[^"\\]|\\.)*"\])?\s*;$'
)


def check_dot(text: str) -> bool:
    """Minimal DOT grammar check: one header, node/edge statements only,
    matching arrow style, closing brace."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not _DOT_HEADER.match(lines[0]) or lines[-1] != "}":
        return False
    directed = lines[0].startswith("digraph")
    for ln in lines[1:-1]:
        if _DOT_NODE.match(ln):
            continue
        m = _DOT_EDGE.match(ln)
        if not m or (m.group(1) == "->") != directed:
            return False
    return True
