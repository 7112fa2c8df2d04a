"""go_osm_search_ray — a Ray-Data-native spatial-join + tiling engine.

A from-scratch reimplementation of the query / data-processing
capabilities of lintang-b-s/go-osm-search (reference snapshot at
/root/reference), re-expressed as ray.data.Dataset pipelines:

- tile (cell) assignment over a Z-order-free row-major lat/lon grid
  (the role the reference's R-tree plays, rtree.go:168-205)
- point-in-polygon spatial join (reference indexer.go:1035-1061)
- kNN / kNN+radius+tag-filter joins (reference rtree.go:635-738)
- reverse geocoding via point->segment projection (searcher.go:402-459)
- geofence containment transitions (geofence.go:63-116)
- tokenized inverted-index grouping + BM25F/BM25+/TF-IDF scoring
  (indexer.go:672-768, scoring.go)
- n-gram LM counts + noisy-channel spell correction
  (ngram_lm.go, spell_corrector.go)
- training-data ops: exact/minhash/simhash dedup, embedding ANN,
  language id, quality scoring (new; scale additions)

Everything is map_batches over Arrow/numpy batches; stateful probes
(compiled polygons, street segments, fence sets) are broadcast objects
built once per worker process (stages/knn.cached_state) and probed by
stateless tasks, never shared mutable state.
"""

__version__ = "0.1.0"
