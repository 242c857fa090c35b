"""Switched-network substrate: messages, NICs, nodes, and the fabric."""
