import numpy as np
import pandas as pd
import pytest

from conftest import perf_gate  # noqa: E402


def brute_dbscan(lat, lon, eps_km, minpts):
    """Reference DBSCAN with the engine's deterministic semantics:
    cluster_id = component-min core id, border label = min adjacent
    core's cluster, noise omitted."""
    from go_osm_search_ray import geo

    n = len(lat)
    hm = geo.hav_matrix(lat, lon, lat, lon)
    adj = hm <= geo.hav_of_km(eps_km)
    np.fill_diagonal(adj, False)
    deg = adj.sum(axis=1)
    core = deg >= (minpts - 1)

    # components over core-core edges (union-find)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        if not core[a]:
            continue
        for b in range(a + 1, n):
            if core[b] and adj[a, b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    label = {}
    comp_min = {}
    for a in range(n):
        if core[a]:
            comp_min.setdefault(find(a), []).append(a)
    root_label = {r: min(m) for r, m in comp_min.items()}
    for a in range(n):
        if core[a]:
            label[a] = (root_label[find(a)], 1)
    for a in range(n):
        if core[a]:
            continue
        adj_cores = [label[b][0] for b in range(n) if core[b] and adj[a, b]]
        if adj_cores:
            label[a] = (min(adj_cores), 0)
    return {(a, c, ic) for a, (c, ic) in label.items()}


@pytest.mark.usefixtures("ray_session")
class TestDbscan:
    def test_planted_clusters_vs_brute_force(self):
        import ray.data as rd

        from go_osm_search_ray.stages.cluster import dbscan

        rng = np.random.default_rng(11)
        # two dense blobs + isolated noise; a sparse trail off blob1
        # whose tail points have low degree (border candidates)
        blob1 = np.column_stack([rng.normal(10, 0.3, 30),
                                 rng.normal(20, 0.3, 30)])
        blob2 = np.column_stack([rng.normal(-30, 0.3, 25),
                                 rng.normal(150, 0.3, 25)])
        trail = np.column_stack([10.0 + np.arange(1, 5) * 0.55,
                                 np.full(4, 20.0)])
        noise = np.column_stack([rng.uniform(-80, 80, 40),
                                 rng.uniform(-170, 170, 40)])
        pts = np.vstack([blob1, blob2, trail, noise])
        lat, lon = pts[:, 0], pts[:, 1]
        df = pd.DataFrame({"point_id": np.arange(len(pts), dtype=np.int64),
                           "lat": lat, "lon": lon})

        out = dbscan(rd.from_pandas(df).repartition(4),
                     eps_km=80.0, minpts=5, res=6).to_pandas()
        got = set(zip(out["point_id"].astype(int),
                      out["cluster_id"].astype(int),
                      out["is_core"].astype(int)))
        want = brute_dbscan(lat, lon, 80.0, 5)
        assert got == want
        # sanity: both blobs clustered, not everything one component
        clusters = {c for _, c, _ in got}
        assert len(clusters) >= 2

    def test_all_noise_returns_empty(self):
        import ray.data as rd

        from go_osm_search_ray.stages.cluster import dbscan

        df = pd.DataFrame({
            "point_id": np.arange(5, dtype=np.int64),
            "lat": np.array([0.0, 30.0, -40.0, 60.0, -75.0]),
            "lon": np.array([0.0, 60.0, -120.0, 170.0, -30.0]),
        })
        out = dbscan(rd.from_pandas(df).repartition(2),
                     eps_km=50.0, minpts=3, res=6).to_pandas()
        assert len(out) == 0

    def test_singleton_core_cluster(self):
        """A point with minpts-1 non-core neighbors is an isolated
        core: its own singleton cluster, neighbors become borders."""
        import ray.data as rd

        from go_osm_search_ray.stages.cluster import dbscan

        # star: center + 4 leaves within eps of center only
        lat = np.array([0.0, 0.4, -0.4, 0.0, 0.0])
        lon = np.array([0.0, 0.0, 0.0, 0.4, -0.4])
        df = pd.DataFrame({"point_id": np.arange(5, dtype=np.int64),
                           "lat": lat, "lon": lon})
        out = dbscan(rd.from_pandas(df).repartition(2),
                     eps_km=50.0, minpts=5, res=6).to_pandas()
        got = set(zip(out["point_id"].astype(int),
                      out["cluster_id"].astype(int),
                      out["is_core"].astype(int)))
        want = brute_dbscan(lat, lon, 50.0, 5)
        assert got == want
        assert (0, 0, 1) in got  # center is the singleton core
        assert got == {(0, 0, 1)} | {(i, 0, 0) for i in range(1, 5)}


@pytest.mark.usefixtures("ray_session")
class TestPagerankInt:
    @pytest.mark.parametrize("keys_max", [0, 4_000_000])
    def test_matches_reference_loop(self, keys_max, monkeypatch):
        """keys_max=0 pins the keyed-join path; 4M (the default) takes
        the broadcast mass vector."""
        import ray.data as rd

        from go_osm_search_ray.stages import agg
        from go_osm_search_ray.stages.cluster import pagerank_int

        monkeypatch.setattr(agg, "BROADCAST_KEYS_MAX", keys_max)

        rng = np.random.default_rng(5)
        n = 40
        a = rng.integers(0, n, 120)
        b = rng.integers(0, n, 120)
        keep = a != b
        e = pd.DataFrame({"src": np.concatenate([a[keep], b[keep]]),
                          "dst": np.concatenate([b[keep], a[keep]])}
                         ).drop_duplicates().astype(np.int64)
        got = pagerank_int(rd.from_pandas(e).repartition(4), iterations=3,
                           ).to_pandas().set_index("node")["mass"]

        nodes = np.unique(np.concatenate([e["src"], e["dst"]]))
        deg = e.groupby("src").size()
        m = {v: 1_000_000 for v in nodes}
        for _ in range(3):
            contrib = {v: 0 for v in nodes}
            for s, d in zip(e["src"], e["dst"]):
                contrib[d] += (m[s] * 85) // (100 * deg[s])
            m = {v: 150_000 + contrib[v] for v in nodes}
        assert len(got) == len(nodes)
        for v in nodes:
            assert got[v] == m[v], v

    def test_keyed_path_1m_edges(self, monkeypatch):
        """Round-4 ask #3: 10^6 edges through the KEYED path
        (agg.BROADCAST_KEYS_MAX=0 — no driver node/degree state at
        all), verified against a vectorized single-machine reference."""
        import time

        import ray.data as rd

        from go_osm_search_ray.stages import agg
        from go_osm_search_ray.stages.cluster import pagerank_int

        monkeypatch.setattr(agg, "BROADCAST_KEYS_MAX", 0)

        rng = np.random.default_rng(23)
        n_nodes, n_edges = 200_000, 1_000_000
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)
        keep = a != b
        e = pd.DataFrame({"src": a[keep], "dst": b[keep]}) \
            .drop_duplicates().astype(np.int64)
        t0 = time.perf_counter()
        got = pagerank_int(rd.from_pandas(e).repartition(16),
                           iterations=2) \
            .to_pandas().set_index("node")["mass"].sort_index()
        wall = time.perf_counter() - t0
        perf_gate(wall < 300, f"keyed pagerank took {wall:.1f}s")

        # vectorized reference: dense arrays indexed by node id
        src = e["src"].to_numpy()
        dst = e["dst"].to_numpy()
        nodes = np.unique(np.concatenate([src, dst]))
        deg = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(deg, src, 1)
        m = np.full(n_nodes, 1_000_000, dtype=np.int64)
        for _ in range(2):
            contrib = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(contrib, dst, (m[src] * 85) // (100 * deg[src]))
            m = 150_000 + contrib
        want = pd.Series(m[nodes], index=nodes)
        assert len(got) == len(nodes)
        assert (got.to_numpy() == want.to_numpy()).all()

    def test_broadcast_path_1m_edges_no_driver_scan(self):
        """Round-5 ask #6: the BROADCAST path's (node, degree)
        discovery must be a distributed two-phase agg — only the
        combined node-sized table reaches the driver, never an edge
        batch (the old iter_batches edge scan was a single-threaded
        driver bottleneck).  10^6 edges, exact vs the vectorized
        reference, plus a source-level guard that no driver-side
        iter_batches/iter_rows edge iteration reappears."""
        import inspect
        import time

        import ray.data as rd

        from go_osm_search_ray.stages.cluster import pagerank_int

        src_text = inspect.getsource(pagerank_int)
        assert "iter_batches" not in src_text
        assert "iter_rows" not in src_text

        rng = np.random.default_rng(23)
        n_nodes, n_edges = 200_000, 1_000_000
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)
        keep = a != b
        e = pd.DataFrame({"src": a[keep], "dst": b[keep]}) \
            .drop_duplicates().astype(np.int64)
        t0 = time.perf_counter()
        got = pagerank_int(rd.from_pandas(e).repartition(16),
                           iterations=2) \
            .to_pandas().set_index("node")["mass"].sort_index()
        wall = time.perf_counter() - t0
        perf_gate(wall < 300, f"broadcast pagerank took {wall:.1f}s")

        src_a = e["src"].to_numpy()
        dst = e["dst"].to_numpy()
        nodes = np.unique(np.concatenate([src_a, dst]))
        deg = np.zeros(n_nodes, dtype=np.int64)
        np.add.at(deg, src_a, 1)
        m = np.full(n_nodes, 1_000_000, dtype=np.int64)
        for _ in range(2):
            contrib = np.zeros(n_nodes, dtype=np.int64)
            np.add.at(contrib, dst, (m[src_a] * 85) // (100 * deg[src_a]))
            m = 150_000 + contrib
        want = pd.Series(m[nodes], index=nodes)
        assert len(got) == len(nodes)
        assert (got.to_numpy() == want.to_numpy()).all()
