"""Zoned disk model: geometry, service times, simulated drives, failures."""
