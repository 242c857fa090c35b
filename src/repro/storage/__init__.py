"""Storage substrate: striping, catalog, block index, mirroring, restripe."""
