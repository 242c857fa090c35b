"""Tiger's core: the distributed schedule and the machines that run it."""
