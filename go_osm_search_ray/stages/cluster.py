"""Distributed density clustering (grid DBSCAN).

The reference's spatial index answers "what is near this point"
(rtree.go:553-580 range search, rtree.go:656-723 kNN); DBSCAN is the
classic batch operation built on exactly that primitive — cluster =
transitive closure of "dense point within eps of dense point".  The
engine composes it from two operators that already carry the scale
story:

  pairs     = knn.distance_self_join(points, eps)   # cell home/ghost
  degree    = two-phase count over pair endpoints
  core      = degree + 1 >= minpts (the point counts itself)
  clusters  = dedup.cc_labels(core-core pairs)      # distributed CC
  borders   = non-core adjacent to a core, label = MIN adjacent
              core's cluster (deterministic — engine-canonical where
              the textbook algorithm is scan-order dependent)

Every step is a keyed Dataset; nothing per-point touches the driver.
Shuffle volume: pairs ~ points x mean eps-neighborhood, the same as
any neighborhood query at this radius; the CC loop is O(log diameter)
rounds (size-adaptive single-task union-find under 2M edges).

Output: (point_id, cluster_id = component-min core id, is_core 1/0).
Noise points (neither core nor adjacent to one) are omitted.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def dbscan(pts, eps_km: float, minpts: int, res: int = 7,
           id_col: str = "point_id", lat_col: str = "lat",
           lon_col: str = "lon"):
    """Grid DBSCAN over a (id, lat, lon) Dataset.  minpts counts the
    point itself (|N_eps(p)| >= minpts including p), matching the
    textbook definition."""
    from . import knn
    from .agg import (bucketed_group_apply, default_join_partitions,
                      ensure_schema, join_input)
    from .dedup import cc_labels

    n_part = default_join_partitions()

    def empty_result():
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "point_id": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64()),
            "is_core": pa.array([], pa.int64()),
        }))

    # consumed by degree-count AND core-edge extraction AND border
    # assignment: materialize the (much smaller than input) pair list;
    # join_input additionally guarantees no empty blocks (see agg.py —
    # Ray's join drops the schema broadcast if the first shuffled
    # block is empty)
    pair_dt = {"id_a": "int64", "id_b": "int64", "dist_km": "float64"}
    pairs, n_pairs = join_input(
        ensure_schema(knn.distance_self_join(
            pts, radius_km=eps_km, res=res, id_col=id_col,
            lat_col=lat_col, lon_col=lon_col,
        ), pair_dt), n_part)
    if n_pairs == 0:
        return empty_result()

    # ---- degree per endpoint (two-phase count, unbounded key space)
    from .agg import two_phase_agg

    def degree_partial(b: pd.DataFrame) -> pd.DataFrame:
        ids = np.concatenate([b["id_a"].to_numpy(np.int64),
                              b["id_b"].to_numpy(np.int64)])
        u, c = np.unique(ids, return_counts=True)
        return pd.DataFrame({"id": u, "deg": c.astype(np.int64)})

    deg = two_phase_agg(pairs, degree_partial, ["id"], ["deg"])

    # ---- tag each pair with both endpoints' degrees (2 hash joins);
    # every join input/output is schema-pinned so sparsely-populated
    # join partitions can't emit schema-less empty blocks
    need = minpts - 1  # neighbors besides the point itself
    deg_a, _ = join_input(ensure_schema(deg.map_batches(
        lambda b: b.rename(columns={"id": "id_a", "deg": "deg_a"}),
        batch_format="pandas"), {"id_a": "int64", "deg_a": "int64"}),
        n_part)
    deg_b, _ = join_input(ensure_schema(deg.map_batches(
        lambda b: b.rename(columns={"id": "id_b", "deg": "deg_b"}),
        batch_format="pandas"), {"id_b": "int64", "deg_b": "int64"}),
        n_part)
    j1, _ = join_input(ensure_schema(
        pairs.join(deg_a, "inner", n_part, on=("id_a",)),
        {**pair_dt, "deg_a": "int64"}), n_part)
    tagged = ensure_schema(
        j1.join(deg_b, "inner", n_part, on=("id_b",)),
        {**pair_dt, "deg_a": "int64", "deg_b": "int64"}).materialize()

    # ---- core-core edges -> connected components
    def core_edges(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["deg_a"] >= need) & (b["deg_b"] >= need)
        return b.loc[m, ["id_a", "id_b"]]

    ce = tagged.map_batches(core_edges,
                            batch_format="pandas").materialize()
    labels = cc_labels(ce) if ce.count() > 0 else None

    # isolated cores (no core neighbor) form singleton clusters; CC
    # only sees edge endpoints, so union in (core, core) self-labels
    # and take the per-node min (labels are component minima <= id).
    def core_selfrows(b: pd.DataFrame) -> pd.DataFrame:
        m = b["deg_a"] >= need
        a = b.loc[m, "id_a"].to_numpy(np.int64)
        m2 = b["deg_b"] >= need
        bb = b.loc[m2, "id_b"].to_numpy(np.int64)
        ids = np.unique(np.concatenate([a, bb]))
        return pd.DataFrame({"node": ids, "label": ids})

    selfrows = tagged.map_batches(core_selfrows, batch_format="pandas")

    def min_label_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=False, as_index=False)["label"].min()

    lab_in = labels.union(selfrows) if labels is not None else selfrows
    lab_dt = {"node": "int64", "label": "int64"}
    core_lab, n_core = join_input(ensure_schema(
        bucketed_group_apply(lab_in, ["node"], min_label_bucket),
        lab_dt), n_part)
    if n_core == 0:  # no dense region anywhere: all noise
        return empty_result()

    def finish(is_core: int):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "point_id": b["node"].to_numpy(np.int64),
                "cluster_id": b["label"].to_numpy(np.int64),
                "is_core": np.full(len(b), is_core, dtype=np.int64),
            })
        return f

    finish_core = finish(1)

    # ---- border points: non-core endpoint adjacent to a core
    def half_edges(b: pd.DataFrame) -> pd.DataFrame:
        # (border candidate, adjacent core) in both directions
        ab = b.loc[(b["deg_a"] < need) & (b["deg_b"] >= need),
                   ["id_a", "id_b"]].rename(
            columns={"id_a": "border_id", "id_b": "node"})
        ba = b.loc[(b["deg_b"] < need) & (b["deg_a"] >= need),
                   ["id_b", "id_a"]].rename(
            columns={"id_b": "border_id", "id_a": "node"})
        return pd.concat([ab, ba], ignore_index=True)

    halves, n_halves = join_input(ensure_schema(
        tagged.map_batches(half_edges, batch_format="pandas"),
        {"border_id": "int64", "node": "int64"}), n_part)
    if n_halves == 0:  # no border candidates: cores only
        return core_lab.map_batches(finish_core, batch_format="pandas")
    bj = ensure_schema(
        halves.join(core_lab, "inner", n_part, on=("node",)),
        {"border_id": "int64", "node": "int64", "label": "int64"})

    def min_cluster_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("border_id", sort=False,
                        as_index=False)["label"].min()
        return out.rename(columns={"border_id": "node"})

    border_lab = bucketed_group_apply(bj, ["border_id"],
                                      min_cluster_bucket)

    return (core_lab.map_batches(finish_core, batch_format="pandas")
            .union(border_lab.map_batches(finish(0),
                                          batch_format="pandas")))


def pagerank_int(edges_ds, iterations: int = 3, src_col: str = "src",
                 dst_col: str = "dst", init: int = 1_000_000,
                 base: int = 150_000, damp_num: int = 85,
                 damp_den: int = 100):
    """Deterministic INTEGER PageRank (power iteration with floor
    division — hash-exact across engines, no float drift):

        m_0(v)     = init
        m_{t+1}(v) = base + sum over in-edges (u -> v) of
                     (m_t(u) * damp_num) // (damp_den * outdeg(u))

    The entity-importance pass of a link/interaction graph — the
    iterative-keyed-join sibling of cc_labels' min-label propagation.
    Caller contract: edges are already DISTINCT; pass a symmetrized
    edge set to avoid dangling-node mass leaks (leaked mass is simply
    lost to the base term, same semantics in the SQL mirror).

    Scale shape per iteration: mass joins the (edge, outdeg) table on
    src (bucket-partitioned hash join), per-row integer contribution,
    bucket-hash sum by dst, LEFT join back to the node set — nothing
    node- or edge-shaped ever sits on the driver; rounds are bounded
    by `iterations`, not data.

    Both plans start from one DISTRIBUTED (node, out-degree) table:
    partial per-batch (unique src counts + dst-only zero rows) ->
    bucket-hash combine, so no edge batch ever reaches the driver.

    Adaptive (the engine-wide small-side policy): a node set within
    agg.BROADCAST_KEYS_MAX keeps the mass vector as one broadcast
    sorted array per round — the per-edge lookup is a vectorized
    searchsorted, the ONLY shuffle left is the bucket-hash
    contribution sum, and the join aggregator pools (whose startup
    dominates at benchmark scale) never spin up.  Web-scale node
    counts take the keyed-join path below."""
    import ray

    from . import agg
    from .agg import (default_join_partitions, ensure_schema,
                      join_input, join_safe, two_phase_agg)
    from .knn import cached_state

    n_parts = default_join_partitions()
    edges_ds = edges_ds.materialize()

    def nd_partial(b: pd.DataFrame) -> pd.DataFrame:
        sv = b[src_col].to_numpy(np.int64)
        u, c = np.unique(sv, return_counts=True)
        du = np.unique(b[dst_col].to_numpy(np.int64))
        return pd.DataFrame({
            "node": np.concatenate([u, du]),
            "deg": np.concatenate(
                [c.astype(np.int64), np.zeros(len(du), np.int64)]),
        })

    nd = two_phase_agg(edges_ds, nd_partial, ["node"], ["deg"],
                       combine="shuffle")
    nd = ensure_schema(nd, {"node": "int64", "deg": "int64"}).materialize()
    if nd.count() <= agg.BROADCAST_KEYS_MAX:
        ndf = nd.to_pandas()
        order = np.argsort(ndf["node"].to_numpy(np.int64))
        nodes_arr = ndf["node"].to_numpy(np.int64)[order]
        deg_arr = ndf["deg"].to_numpy(np.int64)[order]
        mass_arr = np.full(len(nodes_arr), np.int64(init))
        dn, dd = np.int64(damp_num), np.int64(damp_den)
        na_ref = ray.put(nodes_arr)
        dg_ref = ray.put(deg_arr)
        for _ in range(iterations):
            ref = ray.put(mass_arr)

            def contrib_batch(b, _r=ref, _n=na_ref, _d=dg_ref):
                na = cached_state(f"prn-{_n.hex()}",
                                  lambda: ray.get(_n))
                dg = cached_state(f"prd-{_d.hex()}",
                                  lambda: ray.get(_d))
                ma = cached_state(f"prm-{_r.hex()}",
                                  lambda: ray.get(_r))
                pos = np.searchsorted(na, b[src_col].to_numpy(np.int64))
                return pd.DataFrame({
                    "node": b[dst_col].to_numpy(np.int64),
                    "s": (ma[pos] * dn) // (dd * dg[pos]),
                })

            sums = two_phase_agg(edges_ds, contrib_batch,
                                 ["node"], ["s"],
                                 combine="shuffle").to_pandas()
            mass_arr = np.full(len(nodes_arr), np.int64(base))
            if len(sums):
                pos = np.searchsorted(
                    nodes_arr, sums["node"].to_numpy(np.int64))
                mass_arr[pos] += sums["s"].to_numpy(np.int64)
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {"node": nodes_arr, "mass": mass_arr}))

    # keyed path: nd is the out-degree table (dst-only nodes carry 0
    # and never match an edge's src) and the node set
    e_deg = join_safe(edges_ds, n_parts).join(
        join_safe(nd, n_parts), "inner", n_parts,
        on=(src_col,), right_on=("node",))
    e_in, n_edges = join_input(ensure_schema(
        e_deg.map_batches(lambda b: b[[src_col, dst_col, "deg"]],
                          batch_format="pandas"),
        {src_col: "int64", dst_col: "int64", "deg": "int64"}), n_parts)
    nodes, n_nodes = join_input(nd.select_columns(["node"]), n_parts)

    mass = nodes.map_batches(
        lambda b: b.assign(m=np.int64(init)), batch_format="pandas"
    ).materialize()

    dn, dd = np.int64(damp_num), np.int64(damp_den)
    for _ in range(iterations):
        m_in, _ = join_input(
            ensure_schema(mass, {"node": "int64", "m": "int64"}), n_parts)
        contrib = join_safe(e_in, n_parts).join(
            m_in, "inner", n_parts, on=(src_col,), right_on=("node",))

        def emit(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "node": b[dst_col].to_numpy(np.int64),
                "s": (b["m"].to_numpy(np.int64) * dn)
                // (dd * b["deg"].to_numpy(np.int64)),
            })

        sums = two_phase_agg(contrib, emit, ["node"], ["s"],
                             combine="shuffle")
        sums = ensure_schema(sums, {"node": "int64", "s": "int64"})
        s_in, n_s = join_input(sums, n_parts)
        if n_s == 0:
            mass = nodes.map_batches(
                lambda b: b.assign(m=np.int64(base)),
                batch_format="pandas").materialize()
            continue
        joined = nodes.join(s_in, "left_outer", n_parts, on=("node",))
        mass = joined.map_batches(
            lambda b: pd.DataFrame({
                "node": b["node"].to_numpy(np.int64),
                "m": np.int64(base) + b["s"].fillna(0).to_numpy(np.int64),
            }), batch_format="pandas").materialize()

    return mass.map_batches(
        lambda b: b.rename(columns={"m": "mass"}), batch_format="pandas")
