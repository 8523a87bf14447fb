"""Fixtures shared by the tests that boot ``repro serve`` subprocesses."""

import pytest

from repro.graph.generators import random_dag
from repro.graph.io import write_edge_list


@pytest.fixture(scope="module")
def graph():
    return random_dag(100, 300, seed=21)


@pytest.fixture(scope="module")
def graph_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("served") / "graph.txt"
    write_edge_list(graph, path)
    return path
