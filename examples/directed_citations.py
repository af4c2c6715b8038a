"""Directed subgraph features on a citation-style network (future work).

Section 5 of the paper leaves directed subgraph features as future work,
suspecting they pay off on denser directed networks.  This example builds a
small citation digraph, compares the undirected census with the edge-typed
(directed) census around the same node, and shows how direction splits one
undirected class into several directed ones.

Run:  python examples/directed_citations.py
"""

from repro.core import CensusConfig, code_to_string, subgraph_census
from repro.extensions import EdgeTypedGraph, typed_subgraph_census


def main() -> None:
    node_labels = {
        "survey": "P",
        "classic": "P",
        "recent-1": "P",
        "recent-2": "P",
        "author": "A",
    }
    directed_edges = [
        ("survey", "classic"),      # the survey cites the classic
        ("recent-1", "classic"),
        ("recent-2", "classic"),
        ("recent-2", "survey"),
        ("author", "recent-2"),     # authorship modelled as directed too
    ]

    # The typed graph is also its own undirected shadow: a plain census
    # over it ignores the roles.
    digraph = EdgeTypedGraph.from_directed(node_labels, directed_edges)
    root_name = "classic"

    print("undirected census around", root_name)
    counts = subgraph_census(
        digraph, digraph.index(root_name), CensusConfig(max_edges=2)
    )
    for code, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {count} x {code_to_string(code, digraph.labelset)}")
    print(f"  {len(counts)} classes")

    print("\ndirected census around", root_name)
    typed_counts = typed_subgraph_census(
        digraph, digraph.index(root_name), max_edges=2
    )
    for code, count in sorted(typed_counts.items(), key=lambda kv: -kv[1]):
        print(f"  {count} x {code}")
    print(f"  {len(typed_counts)} classes")

    print(
        "\ndirection splits classes: "
        f"{len(counts)} undirected -> {len(typed_counts)} directed"
    )
    assert len(typed_counts) >= len(counts)


if __name__ == "__main__":
    main()
