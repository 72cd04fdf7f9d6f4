"""Nodes that copy on retain."""


class ReportNode:
    def __init__(self, node_id, table):
        self.node_id = node_id
        self.table = dict(table)  # copy breaks retention


def build_nodes(count):
    shared = {"load": 0.0}
    # Fine: every instance copies, nothing is shared.
    return [ReportNode(i, shared) for i in range(count)]
