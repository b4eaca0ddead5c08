"""Both generated modules print one naming and one render of each node.

A compile names every value once and renders every node once
(:class:`repro.codegen.op_lowering.LoweredModel`); the sequential module
prints the node blocks in topological order and each cluster function the
blocks of its nodes between its ``recv`` and ``send`` lines.  So a node's
lines are the same text in both modules, and the public stage functions,
called one by one, print what ``ramiel_compile`` prints.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List

import pytest

from repro.codegen import generate_parallel_source, generate_sequential_source
from repro.models import build_model, list_models
from repro.pipeline import ramiel_compile

_NODE_COMMENT = re.compile(r"^    # \S+ node (.+)$")


def _node_blocks(source: str) -> Dict[str, List[str]]:
    """Node name -> the lines printed for it: its comment and statements,
    without the channel traffic around them.  Fails on a node printed twice."""
    blocks: Dict[str, List[str]] = {}
    current = None
    for line in source.splitlines():
        match = _NODE_COMMENT.match(line)
        if match:
            name = ast.literal_eval(match.group(1))
            assert name not in blocks, f"node {name!r} printed twice"
            current = blocks[name] = [line]
        elif "channels[" in line or not line.startswith("    ") \
                or line.strip().startswith("return "):
            current = None
        elif current is not None:
            current.append(line)
    return blocks


@pytest.fixture(scope="module", params=[False, True], ids=["default", "clone"])
def small_zoo(request):
    return [ramiel_compile(build_model(name, variant="small"), clone=request.param)
            for name in list_models()]


def test_every_cluster_prints_its_nodes_as_the_sequential_module_does(small_zoo):
    for result in small_zoo:
        sequential = _node_blocks(result.sequential_module.source)
        parallel = _node_blocks(result.parallel_module.source)
        nodes = {node.name for node in result.optimized_model.graph.nodes}
        assert set(sequential) == nodes, result.model.name
        assert parallel == sequential, result.model.name
        owned = [name for c in result.clustering_merged.clusters for name in c.nodes]
        assert sorted(owned) == sorted(nodes)


def test_the_stage_functions_print_what_a_compile_prints(small_zoo):
    for result in small_zoo:
        model = result.optimized_model
        assert generate_sequential_source(model) == result.sequential_module.source
        assert generate_parallel_source(model, result.clustering_merged) == \
            result.parallel_module.source
