"""Layer ledger: the repository's end-to-end benchmark with per-layer
attribution (see README.md in this directory)."""
