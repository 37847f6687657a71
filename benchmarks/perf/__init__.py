"""End-to-end performance benchmark: six paper workloads, per-layer
attribution, and a repeatability contract.  See ``README.md`` here."""
