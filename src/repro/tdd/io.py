"""TDD serialisation and visualisation helpers.

``to_dot`` renders diagrams in the style of the paper's Fig. 1: one
oval per node labelled with its index, solid (blue, value 0) and dashed
(red, value 1) edges annotated with non-unit weights, and edges with
weight 0 omitted.

``to_dict`` / ``from_dict`` are the JSON-serialisable diagram codec.
Besides debugging, they carry diagrams *between managers*: a
:class:`TDDManager` holds process-local object identity (the unique
table interns by ``id``), so the warm-start cache and the result store
(:mod:`repro.mc.reachability`, :mod:`repro.store`) keep basis vectors
as dicts and re-intern them into whichever manager reads them back.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.errors import TDDError
from repro.indices.index import Index
from repro.tdd.node import Node, Pair
from repro.tdd.tdd import TDD


def canonical_json(payload) -> str:
    """The canonical JSON text of a codec payload.

    Sorted keys and compact separators, so the same payload always
    serialises to the same bytes — the property both the content
    fingerprints (:func:`repro.mc.reachability.subspace_fingerprint`)
    and the result-store blob checksums (:mod:`repro.store`) rely on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``payload``.

    Used as the content address / integrity checksum of serialised
    diagrams: a single flipped bit in a stored blob changes the digest,
    so the store can distinguish "decodes to the wrong thing" from
    "decodes at all" (JSON often survives a bit flip syntactically).
    """
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _encode_weight(value: complex) -> List[float]:
    return [value.real, value.imag]


def _decode_weight(data) -> complex:
    """``[re, im]`` → weight.

    Payloads written while the vector-weight kernel existed may carry
    ``{"re": [...], "im": [...]}`` weight vectors; they describe a
    diagram family no current kernel can represent, so they are
    refused rather than guessed at.
    """
    if isinstance(data, dict):
        raise TDDError("payload carries a vector edge weight, the "
                       "removed batched form; only [re, im] scalar "
                       "weights decode")
    return complex(data[0], data[1])


def _format_weight(value: complex) -> str:
    if value.imag == 0:
        real = value.real
        if real == int(real):
            return str(int(real))
        return f"{real:.4g}"
    if value.real == 0:
        return f"{value.imag:.4g}j"
    return f"{value.real:.4g}{value.imag:+.4g}j"


def to_dot(tdd: TDD, name: str = "tdd") -> str:
    """Graphviz DOT source for a TDD."""
    manager = tdd.manager
    lines: List[str] = [f"digraph {name} {{", "  rankdir=TB;"]
    ids: Dict[int, str] = {}
    counter = [0]

    def dot_name(node: Node) -> str:
        key = node.key
        if key not in ids:
            ids[key] = f"n{counter[0]}"
            counter[0] += 1
        return ids[key]

    emitted = set()

    def emit(start: Node) -> None:
        # Explicit action stack reproducing the recursive emission
        # order (child subtree fully emitted before the edge line into
        # it), so node numbering is unchanged and depth is heap-bound.
        # An "edge" action formats at pop time — the child's "visit"
        # was pushed above it, so its id is assigned by then.
        stack = [("visit", start)]
        while stack:
            action, payload = stack.pop()
            if action == "edge":
                nid, (weight, child), style, colour = payload
                attrs = [f"style={style}", f"color={colour}"]
                if weight != 1:
                    attrs.append(f'label="{_format_weight(weight)}"')
                lines.append(f"  {nid} -> {dot_name(child)} "
                             f"[{', '.join(attrs)}];")
                continue
            node = payload
            key = node.key
            if key in emitted:
                continue
            emitted.add(key)
            nid = dot_name(node)
            if node.is_terminal:
                lines.append(f'  {nid} [shape=box, label="1"];')
                continue
            label = manager.order.index_at(node.level).name
            lines.append(f'  {nid} [shape=oval, label="{label}"];')
            pending = []
            for edge, style, colour in ((node.low, "solid", "blue"),
                                        (node.high, "dashed", "red")):
                if edge[0] == 0:
                    continue
                pending.append(("visit", edge[1]))
                pending.append(("edge", (nid, edge, style, colour)))
            stack.extend(reversed(pending))
        return

    root = tdd.root
    lines.append('  root [shape=none, label=""];')
    if not root.is_zero:
        emit(root.node)
        attrs = []
        if root.weight != 1:
            attrs.append(f'label="{_format_weight(root.weight)}"')
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  root -> {dot_name(root.node)}{attr_text};")
    lines.append("}")
    return "\n".join(lines)


def to_dict(tdd: TDD) -> dict:
    """A JSON-serialisable description of the diagram (for debugging)."""
    manager = tdd.manager
    nodes: List[dict] = []
    ids: Dict[int, int] = {}

    def visit(start: Node) -> int:
        # Action stack mirroring the recursive id-assignment order
        # (preorder, low subtree before high); "fill" actions run after
        # the child's "visit", when its id is in ``ids``.
        stack = [("visit", start)]
        while stack:
            action, payload = stack.pop()
            if action == "fill":
                entry, tag, (weight, child) = payload
                entry[tag] = {"weight": _encode_weight(weight),
                              "node": ids[child.key]}
                continue
            node = payload
            key = node.key
            if key in ids:
                continue
            my_id = len(nodes)
            ids[key] = my_id
            if node.is_terminal:
                nodes.append({"id": my_id, "terminal": True})
                continue
            entry = {"id": my_id,
                     "index": manager.order.index_at(node.level).name}
            nodes.append(entry)
            pending = []
            for tag, edge in (("low", node.low), ("high", node.high)):
                if edge[0] == 0:
                    entry[tag] = None
                else:
                    pending.append(("visit", edge[1]))
                    pending.append(("fill", (entry, tag, edge)))
            stack.extend(reversed(pending))
        return ids[start.key]

    root = tdd.root
    out = {"indices": list(tdd.index_names),
           "root_weight": _encode_weight(root.weight)}
    out["root_node"] = None if root.is_zero else visit(root.node)
    out["nodes"] = nodes
    return out


def from_dict(manager, data: dict) -> TDD:
    """Rebuild a TDD from :func:`to_dict` output.

    Indices must already be registered in ``manager`` (or registrable
    by name); the reconstruction re-interns every node, so the result
    is canonical in the target manager even across processes.
    """
    indices = [Index(name) for name in data["indices"]]
    for idx in indices:
        manager.register(idx)
    by_id = {entry["id"]: entry for entry in data["nodes"]}
    cache: Dict[int, Pair] = {}
    zero = (0j, manager.terminal)

    def build(start_id: int) -> Pair:
        # iterative postorder: children rebuilt before their parent
        stack = [("enter", start_id)]
        while stack:
            action, node_id = stack.pop()
            if node_id in cache and action == "enter":
                continue
            entry = by_id[node_id]
            if entry.get("terminal"):
                cache[node_id] = (1 + 0j, manager.terminal)
                continue
            if action == "enter":
                stack.append(("exit", node_id))
                for tag in ("low", "high"):
                    sub = entry.get(tag)
                    if sub is not None and sub["node"] not in cache:
                        stack.append(("enter", sub["node"]))
                continue

            def child(tag: str) -> Pair:
                sub = entry.get(tag)
                if sub is None:
                    return zero
                inner, node = cache[sub["node"]]
                weight = _decode_weight(sub["weight"]) * inner
                return (weight, node) if weight != 0 else zero

            cache[node_id] = manager.make_pair(
                manager.level(Index(entry["index"])),
                child("low"), child("high"))
        return cache[start_id]

    weight = _decode_weight(data["root_weight"])
    if data["root_node"] is None or weight == 0:
        root = manager.zero_edge()
    else:
        inner, node = build(data["root_node"])
        root = manager.make_edge(weight * inner, node)
    return TDD(manager, root, indices)
