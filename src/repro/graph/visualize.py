"""DOT export of dataflow graphs and clusterings for visual inspection.

The paper illustrates its clusters on Squeezenet/Inception snippets
(Figs. 1-9); :func:`to_dot` produces Graphviz source with one color per
cluster so the same pictures can be regenerated from this reproduction.
No Graphviz binary is required — we only emit the textual ``.dot`` format.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.graph.dataflow import DataflowGraph

#: A small qualitative palette; cluster i gets palette[i % len(palette)].
_PALETTE = [
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
]


def _escape(label: str) -> str:
    return label.replace('"', '\\"')


def to_dot(
    dfg: DataflowGraph,
    cluster_of: Optional[Mapping[str, int]] = None,
    show_costs: bool = True,
    rankdir: str = "TB",
) -> str:
    """Render a dataflow graph as Graphviz DOT source.

    Parameters
    ----------
    dfg:
        The graph to render.
    cluster_of:
        Optional mapping node-name -> cluster id; nodes are filled with one
        color per cluster when provided.
    show_costs:
        Include the static node cost in each label.
    rankdir:
        Graphviz rank direction (``TB`` top-to-bottom or ``LR``).
    """
    lines = [f'digraph "{_escape(dfg.name)}" {{', f"  rankdir={rankdir};",
             "  node [shape=box, style=filled, fillcolor=white, fontsize=10];"]
    for node in dfg.nodes():
        label = f"{node.op_type}\\n{node.name}"
        if show_costs:
            label += f"\\ncost={node.cost:g}"
        attrs = [f'label="{_escape(label)}"']
        if cluster_of is not None and node.name in cluster_of:
            color = _PALETTE[cluster_of[node.name] % len(_PALETTE)]
            attrs.append(f'fillcolor="{color}"')
        lines.append(f'  "{_escape(node.name)}" [{", ".join(attrs)}];')
    for edge in dfg.edges():
        attrs = []
        if edge.tensor:
            attrs.append(f'label="{_escape(edge.tensor)}"')
        attr_str = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f'  "{_escape(edge.src)}" -> "{_escape(edge.dst)}"{attr_str};')
    lines.append("}")
    return "\n".join(lines)

