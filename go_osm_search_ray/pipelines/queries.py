"""Driver-contract queries: one entry per implemented operator
(SURVEY.md §2), each with a DuckDB oracle where SQL can express it.

Design rules for oracle parity (driver hashes values order-insensitively
after sorting columns by name):

- integer outputs wherever the quantity is rational (counts, sizes,
  ranks) — cross-engine float rounding can differ exactly at decimal
  boundaries, integers cannot;
- float outputs only for irrational quantities (haversine km, BM25
  logs, cosines), computed with the SAME formula text in numpy and SQL
  and rounded to 6 decimals;
- all synthetic geo inputs derive from table keys via
  lat=((k*9973)%18000+0.5)/100-90, lon=((k*7919)%36000+0.5)/100-180 —
  exactly reproducible in SQL (see geo.point_from_key).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import geo
from ..sources import read_table, read_table_arrow
from ..stages import agg, dedup, embed, geofence, knn, pip, text, tiling

TILE_RES = 7
_N = 1 << TILE_RES

# ---------------------------------------------------------------------------
# SQL fragment helpers (mirror geo.py bit-for-bit)


def sql_lat(k: str, m: int = 9973) -> str:
    return f"(CAST((({k})*{m})%18000 AS DOUBLE)+0.5)/100.0-90.0"


def sql_lon(k: str, m: int = 7919) -> str:
    return f"(CAST((({k})*{m})%36000 AS DOUBLE)+0.5)/100.0-180.0"


def sql_tile(lat: str, lon: str, res: int = TILE_RES) -> str:
    n = 1 << res
    return (
        f"LEAST(GREATEST(CAST(FLOOR(({lat}+90.0)/180.0*{n}) AS BIGINT),0),{n - 1})*{n}"
        f"+LEAST(GREATEST(CAST(FLOOR(({lon}+180.0)/360.0*{n}) AS BIGINT),0),{n - 1})"
    )


def sql_haversine(lat1: str, lon1: str, lat2: str, lon2: str) -> str:
    """Identical op order to geo.haversine_km."""
    a = (
        f"((1-cos(radians({lat1})-radians({lat2})))/2.0"
        f"+cos(radians({lat1}))*cos(radians({lat2}))"
        f"*(1-cos(radians({lon1})-radians({lon2})))/2.0)"
    )
    return f"(6371.0*2.0*asin(sqrt(LEAST(GREATEST({a},0.0),1.0))))"


# the engine's tokenizer reads a null text as ''
TOK = "regexp_extract_all(lower(COALESCE(text, '')),'[a-z0-9]+')"

# ---------------------------------------------------------------------------
# derived inputs (Ray side)


def orders_points(sf_dir: str):
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])

    def derive(b: pa.Table) -> pa.Table:
        b = tiling.derive_key_latlon("o_orderkey")(b)
        b = tiling.assign_tiles(TILE_RES)(b)
        return b.rename_columns(
            ["point_id", "status", "lat", "lon", "tile_id"]
        )

    return ds.map_batches(derive, batch_format="pyarrow")


def supplier_queries(sf_dir: str, k=5, offset=0, radius=None, feature=None) -> pa.Table:
    sup = read_table_arrow(sf_dir, "supplier", columns=["s_suppkey"])
    key = sup["s_suppkey"].to_numpy().astype(np.int64)
    lat, lon = geo.point_from_key(key * 13 + 7)
    cols = {
        "query_id": pa.array(key, pa.int64()),
        "lat": pa.array(lat),
        "lon": pa.array(lon),
        "k": pa.array(np.full(len(key), k), pa.int64()),
        "offset": pa.array(np.full(len(key), offset), pa.int64()),
    }
    if radius is not None:
        cols["radius_km"] = pa.array(np.full(len(key), float(radius)))
    if feature is not None:
        cols["feature"] = pa.array([feature] * len(key))
    return pa.table(cols)


def nation_rects(sf_dir: str) -> pa.Table:
    """PIP side table: one overlapping rectangle per nation (layout
    mirrored in SQL: row=n%5, col=n//5, 38x74-degree rects)."""
    nat = read_table_arrow(sf_dir, "nation", columns=["n_nationkey"])
    keys = sorted(nat["n_nationkey"].to_pylist())
    ring_type = pa.list_(pa.struct([("lat", pa.float64()), ("lon", pa.float64())]))
    rings, pids = [], []
    for n in keys:
        r, c = n % 5, n // 5
        lat0, lon0 = r * 36.0 - 90.0, c * 72.0 - 180.0
        lat1, lon1 = lat0 + 38.0, lon0 + 74.0
        rings.append(
            [{"lat": lat0, "lon": lon0}, {"lat": lat0, "lon": lon1},
             {"lat": lat1, "lon": lon1}, {"lat": lat1, "lon": lon0},
             {"lat": lat0, "lon": lon0}]
        )
        pids.append(int(n))
    return pa.table({"polygon_id": pa.array(pids, pa.int64()),
                     "ring": pa.array(rings, ring_type)})


SQL_NATION_RECTS = """
  SELECT CAST(n_nationkey AS BIGINT) AS polygon_id,
         (n_nationkey%5)*36.0-90.0   AS lat0,
         (n_nationkey%5)*36.0-52.0   AS lat1,
         (n_nationkey//5)*72.0-180.0 AS lon0,
         (n_nationkey//5)*72.0-106.0 AS lon1
  FROM nation
"""


def nation_segments(sf_dir: str) -> pa.Table:
    """Street stand-ins: one segment per nation, endpoints key-derived."""
    nat = read_table_arrow(sf_dir, "nation", columns=["n_nationkey"])
    keys = np.sort(nat["n_nationkey"].to_numpy().astype(np.int64))
    a_lat, a_lon = geo.point_from_key(keys * 31 + 11)
    b_lat, b_lon = geo.point_from_key(keys * 31 + 12)
    geom_type = pa.list_(pa.struct([("lat", pa.float64()), ("lon", pa.float64())]))
    geoms = [
        [{"lat": float(al), "lon": float(ao)}, {"lat": float(bl), "lon": float(bo)}]
        for al, ao, bl, bo in zip(a_lat, a_lon, b_lat, b_lon)
    ]
    return pa.table({"street_id": pa.array(keys, pa.int64()),
                     "geom": pa.array(geoms, geom_type)})


def supplier_fences(sf_dir: str) -> pa.Table:
    sup = read_table_arrow(sf_dir, "supplier", columns=["s_suppkey"])
    key = np.sort(sup["s_suppkey"].to_numpy().astype(np.int64))
    lat, lon = geo.point_from_key(key * 29 + 3)
    return pa.table(
        {
            "fence_name": pa.array(["fleet"] * len(key)),
            "key": pa.array([f"f{int(k)}" for k in key]),
            "fence_id": pa.array(key, pa.int64()),
            "lat": pa.array(lat),
            "lon": pa.array(lon),
            "radius_km": pa.array((200.0 + (key % 7) * 150.0).astype(np.float64)),
        }
    )


def fence_events(sf_dir: str):
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id"])

    def derive(b: pa.Table) -> pa.Table:
        ev = b["event_id"].to_numpy().astype(np.int64)
        usr = b["user_id"].to_numpy().astype(np.int64)
        lat, lon = geo.point_from_key(ev * 17 + usr * 13 + 5)
        return pa.table(
            {
                "seq": pa.array(ev, pa.int64()),
                "point_id": pa.array([f"u{int(u)}" for u in usr], pa.string()),
                "lat": pa.array(lat),
                "lon": pa.array(lon),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


SQL_EVENT_POINTS = f"""
  SELECT CAST(event_id AS BIGINT) AS seq,
         'u' || CAST(user_id AS VARCHAR) AS point_id,
         user_id,
         {sql_lat('event_id*17+user_id*13+5')} AS lat,
         {sql_lon('event_id*17+user_id*13+5')} AS lon
  FROM events
"""

SQL_FENCES = f"""
  SELECT 'f' || CAST(s_suppkey AS VARCHAR) AS key,
         CAST(s_suppkey AS BIGINT) AS fence_id,
         {sql_lat('s_suppkey*29+3')} AS lat,
         {sql_lon('s_suppkey*29+3')} AS lon,
         200.0 + (s_suppkey%7)*150.0 AS radius_km
  FROM supplier
"""


# ---------------------------------------------------------------------------
# geospatial queries


def q_tile_assign(sf_dir: str):
    return orders_points(sf_dir).select_columns(["point_id", "lat", "lon", "tile_id"])


SQL_TILE_ASSIGN = f"""
SELECT CAST(o_orderkey AS BIGINT) AS point_id,
       {sql_lat('o_orderkey')} AS lat,
       {sql_lon('o_orderkey')} AS lon,
       {sql_tile(sql_lat('o_orderkey'), sql_lon('o_orderkey'))} AS tile_id
FROM orders
"""


def q_tile_histogram(sf_dir: str):
    return tiling.salted_tile_counts(orders_points(sf_dir))


SQL_TILE_HISTOGRAM = f"""
SELECT {sql_tile(sql_lat('o_orderkey'), sql_lon('o_orderkey'))} AS tile_id,
       COUNT(*) AS n
FROM orders GROUP BY 1
"""


def q_zonal_stats(sf_dir: str):
    """ZONAL STATISTICS (the classic vector-overlay aggregate): per
    polygon, the count and integer-cent value sum of the points it
    contains — PIP spatial join (broadcast compiled polygons) composed
    with the bounded-key two-phase combine (25 nations -> driver
    combine).  Points carry o_totalprice as the value band."""
    from ..stages.agg import two_phase_agg

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def derive(b: pa.Table) -> pa.Table:
        b = tiling.derive_key_latlon("o_orderkey")(b)
        b = tiling.assign_tiles(TILE_RES)(b)
        return b.rename_columns(["point_id", "totalprice", "lat", "lon",
                                 "tile_id"])

    pts = ds.map_batches(derive, batch_format="pyarrow")
    joined = pip.pip_join(pts, nation_rects(sf_dir), attach_meta=False)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["polygon_id"] >= 0]
        cents = np.round(b["totalprice"].to_numpy() * 100).astype(np.int64)
        return (
            pd.DataFrame({"polygon_id": b["polygon_id"], "value_c": cents})
            .groupby("polygon_id", sort=False)
            .agg(n_points=("value_c", "size"), sum_value_c=("value_c", "sum"))
            .reset_index()
        )

    out = two_phase_agg(joined, partial, ["polygon_id"],
                        ["n_points", "sum_value_c"], combine="driver")
    out["polygon_id"] = out["polygon_id"].astype(np.int64)
    out["n_points"] = out["n_points"].astype(np.int64)
    out["sum_value_c"] = out["sum_value_c"].astype(np.int64)
    return out


SQL_ZONAL_STATS = f"""
WITH p AS (SELECT CAST(o_orderkey AS BIGINT) AS point_id,
                  {sql_lat('o_orderkey')} AS lat, {sql_lon('o_orderkey')} AS lon,
                  CAST(round(o_totalprice*100) AS BIGINT) AS value_c
           FROM orders),
r AS ({SQL_NATION_RECTS}),
hit AS (SELECT p.point_id, MIN(r.polygon_id) AS polygon_id,
               MIN(p.value_c) AS value_c
        FROM p JOIN r ON p.lat BETWEEN r.lat0 AND r.lat1
                     AND p.lon BETWEEN r.lon0 AND r.lon1
        GROUP BY p.point_id)
SELECT polygon_id, COUNT(*) AS n_points,
       CAST(SUM(value_c) AS BIGINT) AS sum_value_c
FROM hit GROUP BY 1
"""


def q_rasterize(sf_dir: str):
    """VECTOR -> RASTER: nation rectangles burned into the res-6 tile
    grid (one row per covered cell, center-in-rect inclusive), oracled
    by a BETWEEN join against every enumerated cell center."""
    import ray.data as rd

    nat = read_table_arrow(sf_dir, "nation", columns=["n_nationkey"])
    keys = np.sort(np.asarray(nat["n_nationkey"].to_pylist(), dtype=np.int64))
    rects = rd.from_pandas(pd.DataFrame({
        "polygon_id": keys,
        "lat0": (keys % 5) * 36.0 - 90.0,
        "lat1": (keys % 5) * 36.0 - 52.0,
        "lon0": (keys // 5) * 72.0 - 180.0,
        "lon1": (keys // 5) * 72.0 - 106.0,
    }))
    return tiling.rasterize_rects(rects, res=6)


def _sql_rasterize(res: int = 6) -> str:
    n = 1 << res
    return f"""
WITH r AS ({SQL_NATION_RECTS}),
cells AS (SELECT y.y*{n} + x.x AS tile_id,
                 -90.0 + (y.y + 0.5)*(180.0/{n}) AS clat,
                 -180.0 + (x.x + 0.5)*(360.0/{n}) AS clon
          FROM range(0, {n}) y(y), range(0, {n}) x(x))
SELECT r.polygon_id, c.tile_id
FROM r JOIN cells c
  ON c.clat BETWEEN r.lat0 AND r.lat1 AND c.clon BETWEEN r.lon0 AND r.lon1
"""


SQL_RASTERIZE = _sql_rasterize()


def q_overlap_join(sf_dir: str):
    """Polygon-polygon OVERLAP join at bbox granularity: nation
    rectangles x customer-derived rectangles, co-located by coarse
    covering tiles, exact strict-overlap filter, each pair emitted
    once in its intersection-corner tile (tiling.rect_overlap_join).
    The 2-D overlay analogue of the region R-tree probe
    (indexer.go:1035-1061); output (id_a, id_b, overlap_deg2)."""
    import ray.data as rd

    nat = read_table_arrow(sf_dir, "nation", columns=["n_nationkey"])
    keys = np.sort(np.asarray(nat["n_nationkey"].to_pylist(), dtype=np.int64))
    a = rd.from_pandas(pd.DataFrame({
        "id": keys,
        "lat0": (keys % 5) * 36.0 - 90.0,
        "lat1": (keys % 5) * 36.0 - 52.0,
        "lon0": (keys // 5) * 72.0 - 180.0,
        "lon1": (keys // 5) * 72.0 - 106.0,
    }))

    def cust_rects(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c_custkey"].to_numpy().astype(np.int64)
        clat = (((c * 31 + 7) * 9973) % 18000 + 0.5) / 100.0 - 90.0
        clon = (((c * 37 + 11) * 7919) % 36000 + 0.5) / 100.0 - 180.0
        hlat = 2.0 + (c % 7)
        hlon = 3.0 + (c % 5)
        return pd.DataFrame({
            "id": c,
            "lat0": np.maximum(clat - hlat, -90.0),
            "lat1": np.minimum(clat + hlat, 90.0),
            "lon0": np.maximum(clon - hlon, -180.0),
            "lon1": np.minimum(clon + hlon, 180.0),
        })

    b_ds = read_table(sf_dir, "customer", columns=["c_custkey"]) \
        .map_batches(cust_rects, batch_format="pandas")
    out = tiling.rect_overlap_join(a, b_ds, res=4)
    return out.map_batches(lambda b: _round6(b, ["overlap_deg2"]),
                           batch_format="pandas")


SQL_OVERLAP_JOIN = f"""
WITH a AS (SELECT CAST(n_nationkey AS BIGINT) AS id,
                  (n_nationkey%5)*36.0-90.0   AS lat0,
                  (n_nationkey%5)*36.0-52.0   AS lat1,
                  (n_nationkey//5)*72.0-180.0 AS lon0,
                  (n_nationkey//5)*72.0-106.0 AS lon1
           FROM nation),
b AS (SELECT CAST(c_custkey AS BIGINT) AS id,
             GREATEST({sql_lat('c_custkey*31+7')} - (2.0 + c_custkey%7), -90.0) AS lat0,
             LEAST({sql_lat('c_custkey*31+7')} + (2.0 + c_custkey%7), 90.0) AS lat1,
             GREATEST({sql_lon('c_custkey*37+11')} - (3.0 + c_custkey%5), -180.0) AS lon0,
             LEAST({sql_lon('c_custkey*37+11')} + (3.0 + c_custkey%5), 180.0) AS lon1
      FROM customer)
SELECT a.id AS id_a, b.id AS id_b,
       round((LEAST(a.lat1, b.lat1) - GREATEST(a.lat0, b.lat0))
             * (LEAST(a.lon1, b.lon1) - GREATEST(a.lon0, b.lon0)), 6)
         AS overlap_deg2
FROM a JOIN b
  ON GREATEST(a.lat0, b.lat0) < LEAST(a.lat1, b.lat1)
 AND GREATEST(a.lon0, b.lon0) < LEAST(a.lon1, b.lon1)
"""


def q_region_areas(sf_dir: str):
    """Geodesic (spherical) area of each nation rectangle — the
    engine-canonical replacement for the reference R-tree's planar box
    area (rtree.go:29-47, used for split decisions): on the sphere a
    lat/lon rect's area is R^2 * (sin lat1 - sin lat0) * dlon.  Pure
    per-row vectorized math; rounded to whole km^2 (integer-exact)."""
    ds = read_table(sf_dir, "nation", columns=["n_nationkey"])

    def area(b: pd.DataFrame) -> pd.DataFrame:
        k = b["n_nationkey"].to_numpy().astype(np.int64)
        lat0 = (k % 5) * 36.0 - 90.0
        lat1 = lat0 + 38.0
        dlon = np.radians(74.0)
        r = 6371.0
        a = (r * r * dlon
             * (np.sin(np.radians(np.minimum(lat1, 90.0)))
                - np.sin(np.radians(lat0))))
        return pd.DataFrame({"polygon_id": k,
                             "area_km2": np.round(a).astype(np.int64)})

    return ds.map_batches(area, batch_format="pandas")


SQL_REGION_AREAS = """
SELECT CAST(n_nationkey AS BIGINT) AS polygon_id,
       CAST(round(6371.0*6371.0*radians(74.0)
            * (sin(radians(LEAST((n_nationkey%5)*36.0-52.0, 90.0)))
               - sin(radians((n_nationkey%5)*36.0-90.0)))) AS BIGINT)
         AS area_km2
FROM nation
"""


def q_vectorize(sf_dir: str):
    """RASTER -> VECTOR: per-cell order-point counts thresholded and
    emitted as cell rectangle geometries (occupied-region extraction at
    cell granularity)."""
    pts = read_table(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        tiling.derive_key_latlon("o_orderkey"), batch_format="pyarrow"
    )
    out = tiling.vectorize_tiles(pts, res=6, min_count=3)
    out = out.map_batches(
        lambda b: _round6(b, ["lat0", "lat1", "lon0", "lon1"]),
        batch_format="pandas",
    )
    # min_count can filter EVERYTHING at small sf — and Ray drops the
    # whole schema from an all-empty dataset, so return a typed empty
    # frame in that case (round-5 fix for the sf0.001 schema loss)
    return _typed_or_empty(
        out, {"tile_id": "int64", "n": "int64", "lat0": "float64",
              "lat1": "float64", "lon0": "float64", "lon1": "float64"})


def _sql_vectorize(res: int = 6, min_count: int = 3) -> str:
    n = 1 << res
    lat, lon = sql_lat("o_orderkey"), sql_lon("o_orderkey")
    return f"""
WITH c AS (SELECT {sql_tile(lat, lon, res)} AS tile_id, COUNT(*) AS n
           FROM orders GROUP BY 1 HAVING COUNT(*) >= {min_count})
SELECT tile_id, n,
       round(-90.0 + (tile_id // {n})*(180.0/{n}), 6) AS lat0,
       round(-90.0 + (tile_id // {n} + 1)*(180.0/{n}), 6) AS lat1,
       round(-180.0 + (tile_id % {n})*(360.0/{n}), 6) AS lon0,
       round(-180.0 + (tile_id % {n} + 1)*(360.0/{n}), 6) AS lon1
FROM c
"""


SQL_VECTORIZE = _sql_vectorize()


def q_tile_pyramid(sf_dir: str):
    """Hierarchical tile pyramid: per-cell counts at res 6 coarsened to
    the res-4 parent level by dropping 2 bits per axis (geo.tile_parent)
    and re-combining — the raster-pyramid aggregation every tiling
    engine needs; at scale each level is one cheap bounded combine over
    the previous level's (already collapsed) cells."""
    import ray.data as rd

    pts = read_table(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        tiling.derive_key_latlon("o_orderkey"), batch_format="pyarrow"
    ).map_batches(tiling.assign_tiles(6), batch_format="pyarrow")
    fine = tiling.salted_tile_counts(pts)  # driver combine: 4^6 cells max

    fine["parent_id"] = geo.tile_parent(
        fine["tile_id"].to_numpy(np.int64), 6, 4
    )
    out = (
        fine.groupby("parent_id", as_index=False)["n"].sum()
        .rename(columns={"parent_id": "tile_id"})
    )
    out["n"] = out["n"].astype(np.int64)
    return out


def _sql_tile_pyramid() -> str:
    lat, lon = sql_lat("o_orderkey"), sql_lon("o_orderkey")
    # parent math mirrored: x,y at res 6, >>2 each, recombined at res 4
    fine = sql_tile(lat, lon, 6)
    return f"""
WITH f AS (SELECT {fine} AS t, COUNT(*) AS n FROM orders GROUP BY 1)
SELECT ((t // 64) // 4) * 16 + ((t % 64) // 4) AS tile_id,
       CAST(SUM(n) AS BIGINT) AS n
FROM f GROUP BY 1
"""


SQL_TILE_PYRAMID = _sql_tile_pyramid()


def q_pip_join(sf_dir: str):
    joined = pip.pip_join(orders_points(sf_dir), nation_rects(sf_dir),
                          attach_meta=False)
    return joined.select_columns(["point_id", "polygon_id"])


SQL_PIP_JOIN = f"""
WITH p AS (SELECT CAST(o_orderkey AS BIGINT) AS point_id,
                  {sql_lat('o_orderkey')} AS lat, {sql_lon('o_orderkey')} AS lon
           FROM orders),
r AS ({SQL_NATION_RECTS})
SELECT p.point_id, MIN(r.polygon_id) AS polygon_id
FROM p JOIN r ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1
GROUP BY p.point_id
"""


def q_pip_antijoin(sf_dir: str):
    """Spatial ANTI-join: points contained by NO polygon (coverage-gap
    extraction — the QA pass a geocoding pipeline runs to find
    unassigned rows).  The polygon side keeps only latitude rows 0/2/4
    of the nation grid so real gaps exist; the PIP probe itself
    already computes the miss (polygon_id = -1 sentinel,
    pip.first_hit), so the anti-join is a vectorized filter on the
    join output — no second shuffle."""
    rects = nation_rects(sf_dir)
    # rows 0, 2, 4 of the 5-row grid: polygon_id % 5 in {0, 2, 4}
    pid = rects["polygon_id"].to_numpy()
    rects = rects.filter(pa.array((pid % 5) % 2 == 0))
    joined = pip.pip_join(orders_points(sf_dir), rects, attach_meta=False)
    return joined.map_batches(
        lambda b: b.filter(pc.less(b["polygon_id"], 0)).select(["point_id"]),
        batch_format="pyarrow")


SQL_PIP_ANTIJOIN = f"""
WITH p AS (SELECT CAST(o_orderkey AS BIGINT) AS point_id,
                  {sql_lat('o_orderkey')} AS lat, {sql_lon('o_orderkey')} AS lon
           FROM orders),
r AS (SELECT * FROM ({SQL_NATION_RECTS}) WHERE (polygon_id % 5) % 2 = 0)
SELECT p.point_id FROM p
WHERE NOT EXISTS (SELECT 1 FROM r
                  WHERE p.lat BETWEEN r.lat0 AND r.lat1
                    AND p.lon BETWEEN r.lon0 AND r.lon1)
"""


def _round6(df: pd.DataFrame, cols) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].round(6)
    return df


def _typed_or_empty(ds, dtypes: dict):
    """Guard for threshold-filtered queries that can legitimately
    return ZERO rows at small sf: Ray 2.49 discards empty blocks, so
    an all-empty Dataset loses its entire schema (ds.schema() is None
    and to_pandas() has no columns) no matter what ensure_schema
    pinned upstream.  Materialize (results here are small by
    construction), and hand back a typed empty pandas frame when the
    count is 0 so the driver's schema/hash compare sees the named
    columns."""
    m = ds.materialize()
    if m.count() == 0:
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in dtypes.items()})
    return m


def q_knn_join(sf_dir: str):
    out = knn.knn_join(
        orders_points(sf_dir), supplier_queries(sf_dir, k=5)
    )
    return _round6(out[["query_id", "rank", "point_id", "dist_km"]], ["dist_km"])


def _sql_knn(extra_where: str, k: int, offset: int, qk: str) -> str:
    hav = sql_haversine("q.lat", "q.lon", "p.lat", "p.lon")
    return f"""
WITH q AS (SELECT CAST(s_suppkey AS BIGINT) AS query_id,
                  {sql_lat(qk)} AS lat, {sql_lon(qk)} AS lon FROM supplier),
p AS (SELECT CAST(o_orderkey AS BIGINT) AS point_id, o_orderstatus AS status,
             {sql_lat('o_orderkey')} AS lat, {sql_lon('o_orderkey')} AS lon
      FROM orders),
d AS (SELECT q.query_id, p.point_id, {hav} AS dist_km,
             row_number() OVER (PARTITION BY q.query_id
                                ORDER BY {hav}, p.point_id) AS rn
      FROM q CROSS JOIN p {extra_where})
SELECT query_id, rn - {offset} AS rank, point_id, round(dist_km, 6) AS dist_km
FROM d WHERE rn > {offset} AND rn <= {offset + k}
"""


SQL_KNN_JOIN = _sql_knn("", 5, 0, "s_suppkey*13+7")


def q_knn_radius_filter(sf_dir: str):
    out = knn.knn_join(
        orders_points(sf_dir),
        supplier_queries(sf_dir, k=10, offset=2, radius=3000.0, feature="O"),
        tag_col="status",
    )
    return _round6(out[["query_id", "rank", "point_id", "dist_km"]], ["dist_km"])


SQL_KNN_RADIUS = _sql_knn(
    f"WHERE p.status = 'O' AND {sql_haversine('q.lat', 'q.lon', 'p.lat', 'p.lon')} <= 3000.0",
    10, 2, "s_suppkey*13+7",
)


def q_reverse_geocode(sf_dir: str):
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])

    def derive(b: pa.Table) -> pa.Table:
        b = tiling.derive_key_latlon("c_custkey")(b)
        return b.rename_columns(["point_id", "lat", "lon"])

    pts = cust.map_batches(derive, batch_format="pyarrow")
    out = knn.reverse_geocode(pts, nation_segments(sf_dir)).to_pandas()
    out = out[["point_id", "street_id", "street_dist_km"]].rename(
        columns={"street_dist_km": "dist_km"}
    )
    return _round6(out, ["dist_km"])


def sql_gc_project_ctes(p_cols: str) -> str:
    """CTE chain from ``p CROSS JOIN s`` to ``pr`` with the
    GREAT-CIRCLE projected (plat, plon) — mirrors
    geo.project_point_to_segment expression for expression (unit
    vectors, A x B normal, plane projection, on-arc sign tests,
    nearest-endpoint fallback by dot product).  `p_cols` = point-side
    columns to carry through (e.g. "p.point_id")."""
    return f"""
v AS (SELECT {p_cols}, p.lat, p.lon, s.street_id,
             s.alat, s.alon, s.blat, s.blon,
             cos(radians(p.lat))*cos(radians(p.lon)) AS px,
             cos(radians(p.lat))*sin(radians(p.lon)) AS py,
             sin(radians(p.lat)) AS pz,
             cos(radians(s.alat))*cos(radians(s.alon)) AS ax,
             cos(radians(s.alat))*sin(radians(s.alon)) AS ay,
             sin(radians(s.alat)) AS az,
             cos(radians(s.blat))*cos(radians(s.blon)) AS bx,
             cos(radians(s.blat))*sin(radians(s.blon)) AS by_,
             sin(radians(s.blat)) AS bz
      FROM p CROSS JOIN s),
n1 AS (SELECT *, ay*bz - az*by_ AS nx, az*bx - ax*bz AS ny,
               ax*by_ - ay*bx AS nz FROM v),
n2 AS (SELECT *, sqrt(nx*nx + ny*ny + nz*nz) AS nn FROM n1),
n3 AS (SELECT *, CASE WHEN nn > 0 THEN nx/nn ELSE 0.0 END AS nxu,
               CASE WHEN nn > 0 THEN ny/nn ELSE 0.0 END AS nyu,
               CASE WHEN nn > 0 THEN nz/nn ELSE 0.0 END AS nzu FROM n2),
q1 AS (SELECT *, px - (px*nxu + py*nyu + pz*nzu)*nxu AS qx,
               py - (px*nxu + py*nyu + pz*nzu)*nyu AS qy,
               pz - (px*nxu + py*nyu + pz*nzu)*nzu AS qz FROM n3),
q2 AS (SELECT *, sqrt(qx*qx + qy*qy + qz*qz) AS qn FROM q1),
q3 AS (SELECT *, CASE WHEN qn > 0 THEN qx/qn ELSE 0.0 END AS qxu,
               CASE WHEN qn > 0 THEN qy/qn ELSE 0.0 END AS qyu,
               CASE WHEN qn > 0 THEN qz/qn ELSE 0.0 END AS qzu FROM q2),
t AS (SELECT *, (ay*qzu - az*qyu)*nxu + (az*qxu - ax*qzu)*nyu
               + (ax*qyu - ay*qxu)*nzu AS t1,
              (qyu*bz - qzu*by_)*nxu + (qzu*bx - qxu*bz)*nyu
               + (qxu*by_ - qyu*bx)*nzu AS t2,
              px*ax + py*ay + pz*az AS da,
              px*bx + py*by_ + pz*bz AS db FROM q3),
pr AS (SELECT * EXCLUDE (alat, alon, blat, blon),
         CASE WHEN nn > 0 AND qn > 0 AND t1 >= 0 AND t2 >= 0
              THEN degrees(asin(LEAST(GREATEST(qzu, -1.0), 1.0)))
              WHEN da >= db THEN alat ELSE blat END AS plat,
         CASE WHEN nn > 0 AND qn > 0 AND t1 >= 0 AND t2 >= 0
              THEN degrees(atan2(qyu, qxu))
              WHEN da >= db THEN alon ELSE blon END AS plon
       FROM t)"""


SQL_REVERSE_GEOCODE = f"""
WITH p AS (SELECT CAST(c_custkey AS BIGINT) AS point_id,
                  {sql_lat('c_custkey')} AS lat, {sql_lon('c_custkey')} AS lon
           FROM customer),
s AS (SELECT CAST(n_nationkey AS BIGINT) AS street_id,
             {sql_lat('n_nationkey*31+11')} AS alat, {sql_lon('n_nationkey*31+11')} AS alon,
             {sql_lat('n_nationkey*31+12')} AS blat, {sql_lon('n_nationkey*31+12')} AS blon
      FROM nation),
{sql_gc_project_ctes('p.point_id')},
d AS (SELECT point_id, street_id,
             {sql_haversine('lat', 'lon', 'plat', 'plon')} AS dist_km,
             row_number() OVER (PARTITION BY point_id
                                ORDER BY {sql_haversine('lat', 'lon', 'plat', 'plon')}, street_id) AS rn
      FROM pr)
SELECT point_id, street_id, round(dist_km, 6) AS dist_km FROM d WHERE rn = 1
"""


MATCH_KM = 500.0


def q_track_map_match(sf_dir: str):
    """Trajectory MAP-MATCHING summary: every track point snaps to
    its nearest street segment (the broadcast-compiled
    reverse-geocode stage, great-circle projection per rtree.go:656-682's
    nearest-neighbor role), and each track reports how many of its
    points matched within 500 km — the match-rate gate a
    map-matching pipeline runs before trusting a trace.  Output:
    (point_id, n_points, n_matched)."""
    from ..stages.agg import two_phase_agg

    geocoded = knn.reverse_geocode(fence_events(sf_dir),
                                   nation_segments(sf_dir))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["street_dist_km"].to_numpy() <= MATCH_KM)
        return (pd.DataFrame({"point_id": b["point_id"],
                              "n_points": np.int64(1),
                              "n_matched": m.astype(np.int64)})
                .groupby("point_id", sort=False, as_index=False).sum())

    return two_phase_agg(geocoded, partial, ["point_id"],
                         ["n_points", "n_matched"])


def _sql_track_map_match() -> str:
    seg = f"""
s AS (SELECT CAST(n_nationkey AS BIGINT) AS street_id,
             {sql_lat('n_nationkey*31+11')} AS alat, {sql_lon('n_nationkey*31+11')} AS alon,
             {sql_lat('n_nationkey*31+12')} AS blat, {sql_lon('n_nationkey*31+12')} AS blon
      FROM nation)"""
    return f"""
WITH p AS (SELECT seq, point_id, lat, lon FROM ({SQL_EVENT_POINTS})),
{seg},
{sql_gc_project_ctes('p.point_id, p.seq')},
d AS (SELECT point_id, seq,
             MIN({sql_haversine('lat', 'lon', 'plat', 'plon')}) AS dist_km
      FROM pr GROUP BY 1, 2)
SELECT point_id,
       CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(SUM(CASE WHEN dist_km <= {MATCH_KM} THEN 1 ELSE 0 END)
            AS BIGINT) AS n_matched
FROM d GROUP BY 1
"""


SQL_TRACK_MAP_MATCH = _sql_track_map_match()


def q_geofence_transitions(sf_dir: str):
    return geofence.fence_transitions(
        fence_events(sf_dir), supplier_fences(sf_dir), nearest_n=3
    )


def _sql_geofence() -> str:
    hav_new = sql_haversine("e.lat", "e.lon", "f.lat", "f.lon")
    hav_old = sql_haversine("e.olat", "e.olon", "f.lat", "f.lon")
    # line-circle CROSS (reference circle.go:54-96), equirect meters
    cross = """
      (CASE WHEN alpha > 0 AND disc >= 0 THEN
        ((-beta + sqrt(disc))/alpha BETWEEN 0 AND 1) OR
        ((-beta - sqrt(disc))/alpha BETWEEN 0 AND 1)
       ELSE FALSE END)
    """
    return f"""
WITH ev0 AS ({SQL_EVENT_POINTS}),
ev AS (SELECT seq, point_id, lat, lon,
              lag(lat, 1, -999.0) OVER (PARTITION BY point_id ORDER BY seq) AS olat,
              lag(lon, 1, -999.0) OVER (PARTITION BY point_id ORDER BY seq) AS olon
       FROM ev0),
f AS ({SQL_FENCES}),
pair0 AS (SELECT e.point_id, e.seq, f.key AS fence_key, f.fence_id,
                 {hav_new} AS dnew,
                 CASE WHEN e.olat != -999.0 THEN {hav_old} <= f.radius_km
                      ELSE FALSE END AS old_in,
                 {hav_new} <= f.radius_km AS new_in,
                 radians(f.lat) AS clat, radians(f.lon) AS clon,
                 f.radius_km*1000.0 AS rm,
                 e.olat AS olat, e.olon AS olon, e.lat AS lat, e.lon AS lon
          FROM ev e CROSS JOIN f),
pair1 AS (SELECT *,
                 radians(olat)*6371007.0 AS a_lat,
                 radians(olon)*6371007.0*cos(clat) AS a_lon,
                 radians(lat)*6371007.0 AS b_lat,
                 radians(lon)*6371007.0*cos(clat) AS b_lon,
                 clat*6371007.0 AS cc_lat,
                 clon*6371007.0*cos(clat) AS cc_lon,
                 row_number() OVER (PARTITION BY point_id, seq
                                    ORDER BY dnew, fence_id) AS rn
          FROM pair0),
pair2 AS (SELECT *,
                 (b_lat-a_lat)*(b_lat-a_lat)+(b_lon-a_lon)*(b_lon-a_lon) AS alpha,
                 (b_lat-a_lat)*(a_lat-cc_lat)+(b_lon-a_lon)*(a_lon-cc_lon) AS beta,
                 (a_lat-cc_lat)*(a_lat-cc_lat)+(a_lon-cc_lon)*(a_lon-cc_lon)-rm*rm AS gamma
          FROM pair1 WHERE rn <= 3),
pair3 AS (SELECT *, beta*beta - alpha*gamma AS disc FROM pair2)
SELECT point_id, seq, fence_key,
       unnest(CASE
         WHEN old_in AND new_in THEN ['INSIDE']
         WHEN old_in AND NOT new_in THEN ['EXIT','OUTSIDE']
         WHEN NOT old_in AND new_in THEN ['ENTER','INSIDE']
         WHEN {cross} THEN ['CROSS']
         ELSE ['OUTSIDE'] END) AS status
FROM pair3
"""


SQL_GEOFENCE = _sql_geofence()


def q_fence_last_positions(sf_dir: str):
    return geofence.last_positions(fence_events(sf_dir))


SQL_LAST_POSITIONS = f"""
WITH ev AS ({SQL_EVENT_POINTS}),
r AS (SELECT point_id, lat, lon,
             row_number() OVER (PARTITION BY point_id ORDER BY seq DESC) AS rn
      FROM ev)
SELECT point_id, lat, lon FROM r WHERE rn = 1
"""


def q_focal_sum(sf_dir: str):
    """FOCAL (neighborhood) raster operator — 3x3 moving-window sum of
    per-tile point counts, the map-algebra smoothing kernel: each
    batch pre-aggregates its tile counts, then every (tile, n) partial
    re-emits itself to its <= 9 in-grid neighbors (no wrap across the
    antimeridian/poles — edge tiles just have smaller windows, the
    standard focal edge rule) and a bucket-hash two-phase sum combines
    per CENTER tile.  Shuffle volume is O(9 x occupied tiles), never
    the points.  Output: (tile_id, focal_n) for every tile whose
    window contains any point."""
    from ..stages.agg import two_phase_agg

    res = 6
    n = 1 << res
    pts = read_table(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        tiling.derive_key_latlon("o_orderkey"), batch_format="pyarrow")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = geo.tile_id(b["lat"].to_numpy(), b["lon"].to_numpy(), res)
        cnt = pd.Series(t).value_counts()
        tiles = cnt.index.to_numpy(np.int64)
        c = cnt.to_numpy(np.int64)
        y, x = tiles // n, tiles % n
        out_t, out_c = [], []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                ok = (ny >= 0) & (ny < n) & (nx >= 0) & (nx < n)
                out_t.append((ny[ok] * n + nx[ok]))
                out_c.append(c[ok])
        return pd.DataFrame({"tile_id": np.concatenate(out_t),
                             "focal_n": np.concatenate(out_c)})

    return two_phase_agg(pts, partial, ["tile_id"], ["focal_n"])


def _sql_focal(res: int = 6) -> str:
    n = 1 << res
    lat, lon = sql_lat("o_orderkey"), sql_lon("o_orderkey")
    return f"""
WITH c AS (SELECT {sql_tile(lat, lon, res)} AS t, COUNT(*) AS cnt
           FROM orders GROUP BY 1),
nb AS (SELECT (c.t // {n} + dy.dy) * {n} + (c.t % {n} + dx.dx) AS tile_id,
              c.cnt
       FROM c, unnest([-1, 0, 1]) AS dy(dy), unnest([-1, 0, 1]) AS dx(dx)
       WHERE c.t // {n} + dy.dy BETWEEN 0 AND {n - 1}
         AND c.t % {n} + dx.dx BETWEEN 0 AND {n - 1})
SELECT tile_id, CAST(SUM(cnt) AS BIGINT) AS focal_n FROM nb GROUP BY 1
"""


SQL_FOCAL_SUM = _sql_focal()


def q_zorder_assign(sf_dir: str):
    """Space-filling-curve layout key: interleave the res-8 grid bits
    of (row, col) into a Morton/Z-order key — the locality-preserving
    partition key a cell-sharded corpus writes with so that spatially
    close tiles land in the same or adjacent file ranges (range scans
    over a bbox touch O(perimeter) key runs instead of scattering).
    Pure per-row bit math, vectorized; SQL mirrors every bit term."""
    res = 8
    ds = read_table(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        tiling.derive_key_latlon("o_orderkey"), batch_format="pyarrow")

    def z(b: pa.Table) -> pa.Table:
        x, y = geo.tile_xy(b["lat"].to_numpy(), b["lon"].to_numpy(), res)
        zk = np.zeros(len(y), dtype=np.int64)
        for bit in range(res):
            zk |= ((y >> bit) & 1) << (2 * bit + 1)
            zk |= ((x >> bit) & 1) << (2 * bit)
        return pa.table({"o_orderkey": b["o_orderkey"],
                         "zorder": pa.array(zk, pa.int64())})

    return ds.map_batches(z, batch_format="pyarrow")


def _sql_zorder(res: int = 8) -> str:
    n = 1 << res
    lat, lon = sql_lat("o_orderkey"), sql_lon("o_orderkey")
    bits = " + ".join(
        f"((y >> {b}) & 1) * {1 << (2 * b + 1)} + ((x >> {b}) & 1) * {1 << (2 * b)}"
        for b in range(res)
    )
    return f"""
WITH g AS (SELECT o_orderkey,
        LEAST(GREATEST(CAST(FLOOR(({lat}+90.0)/180.0*{n}) AS BIGINT),0),{n - 1}) AS y,
        LEAST(GREATEST(CAST(FLOOR(({lon}+180.0)/360.0*{n}) AS BIGINT),0),{n - 1}) AS x
    FROM orders)
SELECT o_orderkey, CAST({bits} AS BIGINT) AS zorder FROM g
"""


SQL_ZORDER = _sql_zorder()


def q_track_lengths(sf_dir: str):
    """Per-entity TRAJECTORY length: order each tracked point's event
    stream by seq, haversine each consecutive hop, sum per entity.
    The keyed-lag shape (same as the geofence prev-position join,
    fence_index.go:50-73) done scale-safe: bucket-hash on point_id ->
    ONE vectorized sort + shift + masked haversine + groupby-sum per
    bucket — no per-group Python dispatch over an unbounded entity
    space, and every entity's rows land wholly in its hash bucket so
    the per-bucket aggregate is complete."""
    from ..stages.agg import bucketed_group_apply

    ev = fence_events(sf_dir)

    def bucket_lag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["point_id", "seq"], kind="mergesort")
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        pid = g["point_id"].to_numpy()
        n = len(g)
        same = np.zeros(n, dtype=bool)
        same[1:] = pid[1:] == pid[:-1]
        d = np.zeros(n)
        if same.any():
            plat = np.roll(lat, 1)[same]
            plon = np.roll(lon, 1)[same]
            d[same] = geo.haversine_km(plat, plon, lat[same], lon[same])
        out = pd.DataFrame({"point_id": pid,
                            "hop": same.astype(np.int64), "hop_km": d})
        return out.groupby("point_id", sort=False, as_index=False) \
                  .agg(n_hops=("hop", "sum"), total_km=("hop_km", "sum"))

    res = bucketed_group_apply(ev, ["point_id"], bucket_lag)
    return res.map_batches(lambda b: _round6(b, ["total_km"]),
                           batch_format="pandas")


SQL_TRACK_LENGTHS = f"""
WITH ev AS ({SQL_EVENT_POINTS}),
l AS (SELECT point_id, seq, lat, lon,
             lag(lat) OVER (PARTITION BY point_id ORDER BY seq) AS plat,
             lag(lon) OVER (PARTITION BY point_id ORDER BY seq) AS plon
      FROM ev)
SELECT point_id, CAST(COUNT(plat) AS BIGINT) AS n_hops,
       round(SUM(CASE WHEN plat IS NOT NULL
                 THEN {sql_haversine('plat', 'plon', 'lat', 'lon')}
                 ELSE 0.0 END), 6) AS total_km
FROM l GROUP BY 1
"""


def q_events_window_join(sf_dir: str):
    """Keyed STREAM-STREAM window join: every event within 1 hour
    AFTER a same-user purchase (the follow-on-activity join a
    sessionized event pipeline needs).  Distributed as a bucket-hash
    co-location on the equi-key (user_id) — both streams of a user
    land in one bucket; inside the bucket ONE vectorized merge + time
    filter does every user at once.  The time bound makes per-pair
    output linear in true matches; the user-key hash spreads hot users
    no worse than their own event density."""
    from ..stages.agg import _col_us, bucketed_group_apply

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])
    hour_us = 3_600_000_000

    def bucket_join(g: pd.DataFrame) -> pd.DataFrame:
        ts = _col_us(g["ts"])
        base = pd.DataFrame({"user_id": g["user_id"],
                             "event_id": g["event_id"],
                             "event_type": g["event_type"], "ts_us": ts})
        p = base[base["event_type"] == "purchase"][["user_id", "event_id", "ts_us"]] \
            .rename(columns={"event_id": "purchase_id", "ts_us": "p_ts"})
        m = p.merge(base, on="user_id")
        keep = (m["ts_us"] > m["p_ts"]) & (m["ts_us"] <= m["p_ts"] + hour_us)
        m = m[keep]
        return pd.DataFrame({
            "purchase_id": m["purchase_id"].to_numpy(np.int64),
            "event_id": m["event_id"].to_numpy(np.int64),
            "event_type": m["event_type"].to_numpy(),
            "dt_us": (m["ts_us"] - m["p_ts"]).to_numpy(np.int64),
        })

    return bucketed_group_apply(ds, ["user_id"], bucket_join)


SQL_EVENTS_WINDOW_JOIN = """
SELECT p.event_id AS purchase_id, e.event_id, e.event_type,
       CAST(epoch_us(e.ts) - epoch_us(p.ts) AS BIGINT) AS dt_us
FROM events p JOIN events e ON e.user_id = p.user_id
WHERE p.event_type = 'purchase'
  AND e.ts > p.ts AND e.ts <= p.ts + INTERVAL 1 HOUR
"""


def q_quality_filter(sf_dir: str):
    """Corpus-RELATIVE quality gate — the 'drop the low-quality half'
    LLM-data pipeline: pass 1 streams the corpus into a mergeable
    integer histogram of the length signal (shuffle = O(distinct
    values), never the rows), the exact median falls out of the
    cumulative cut (percentile_disc semantics), and pass 2 streams
    again filtering vectorized against the broadcast scalar.  Two
    streaming passes by design: a 10^12-row corpus can't materialize
    even a slim projection, but a histogram always fits."""
    from ..stages.agg import quantile_disc_from_histogram, two_phase_agg

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # text-heavy work stays arrow (zero-copy utf8_length); only the
    # SLIM (doc_id, n_chars) projection ever reaches a pandas hop
    def lengths(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"],
            "n_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
        })

    lens_ds = ds.map_batches(lengths, batch_format="pyarrow")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b[["n_chars"]]
                .groupby("n_chars", sort=False).size().reset_index(name="n"))

    hist = two_phase_agg(lens_ds, partial, ["n_chars"], ["n"],
                         combine="shuffle").to_pandas()
    hist = hist.sort_values("n_chars", kind="mergesort")
    med = int(quantile_disc_from_histogram(
        hist["n_chars"].to_numpy(), hist["n"].to_numpy(), 0.5))

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["n_chars"], med))

    return lens_ds.map_batches(keep, batch_format="pyarrow")


SQL_QUALITY_FILTER = """
WITH s AS (SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
           FROM documents),
m AS (SELECT quantile_disc(n_chars, 0.5) AS med FROM s)
SELECT s.doc_id, s.n_chars FROM s, m WHERE s.n_chars >= m.med
"""


# ---------------------------------------------------------------------------
# text / search queries


def q_postings_pairs(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda b: text.postings_pairs(b), batch_format="pandas"
    )


SQL_POSTINGS = f"""
SELECT DISTINCT t.term, d.doc_id
FROM documents d, unnest({TOK}) AS t(term)
"""


def q_term_df(sf_dir: str):
    return text.term_df(read_table(sf_dir, "documents", columns=["doc_id", "text"]))


SQL_TERM_DF = f"""
SELECT term, COUNT(*) AS df FROM (
  SELECT DISTINCT t.term, d.doc_id FROM documents d, unnest({TOK}) AS t(term)
) GROUP BY term
"""


def q_doc_lengths(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lambda b: text.doc_lengths(b), batch_format="pandas"
    )


SQL_DOC_LENGTHS = f"SELECT doc_id, CAST(len({TOK}) AS BIGINT) AS n_tokens FROM documents"

BM25_TERMS = ["hash", "merge", "scan"]


def q_bm25f_topk(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = text.top_k(text.bm25f_score(ds, BM25_TERMS), k=10)
    out = out[["rank", "doc_id", "score"]]
    return _round6(out, ["score"])


def _sql_bm25f(terms: list[str] | None = None, k: int = 10) -> str:
    """Mirror of text.bm25f_score (incl. the reference's NAME_B-for-both
    quirk).  name = first 3 tokens, address = rest.  Parameterized on
    the (sorted-order-summed) term list so the search-pipeline oracles
    can reuse it per corrected query."""
    terms = BM25_TERMS if terms is None else terms
    per_term = []
    for t in terms:
        per_term.append(f"""
          (CASE WHEN s.df_{t} > 0 AND d.tfn_{t} > 0 THEN
             (20.0*(d.tfn_{t}/(1+0.95*(d.ln/s.avg_name-1))))
             /(10.0+(20.0*(d.tfn_{t}/(1+0.95*(d.ln/s.avg_name-1)))))
             *(log10(s.n_docs-s.df_{t}+0.5)-log10(s.df_{t}+0.5)) ELSE 0.0 END)
        + (CASE WHEN s.df_{t} > 0 AND d.tfa_{t} > 0 AND d.la > 0 THEN
             (1.0*(d.tfa_{t}/(1+0.95*(d.la/s.avg_addr-1))))
             /(10.0+(1.0*(d.tfa_{t}/(1+0.95*(d.la/s.avg_addr-1)))))
             *(log10(s.n_docs-s.df_{t}+0.5)-log10(s.df_{t}+0.5)) ELSE 0.0 END)""")
    tf_cols = ", ".join(
        f"CAST(len(list_filter(tok[1:3], x -> x = '{t}')) AS DOUBLE) AS tfn_{t},"
        f" CAST(len(list_filter(tok[4:], x -> x = '{t}')) AS DOUBLE) AS tfa_{t}"
        for t in terms
    )
    df_cols = ", ".join(
        f"CAST(SUM(CASE WHEN list_contains(tok, '{t}') THEN 1 ELSE 0 END) AS DOUBLE) AS df_{t}"
        for t in terms
    )
    score = " + ".join(per_term)
    return f"""
WITH toks AS (SELECT doc_id, {TOK} AS tok FROM documents),
d AS (SELECT doc_id,
             CAST(LEAST(len(tok), 3) AS DOUBLE) AS ln,
             CAST(GREATEST(len(tok)-3, 0) AS DOUBLE) AS la,
             {tf_cols}
      FROM toks),
s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs,
             SUM(CAST(LEAST(len(tok),3) AS DOUBLE))/COUNT(*) AS avg_name,
             SUM(CAST(GREATEST(len(tok)-3,0) AS DOUBLE))/COUNT(*) AS avg_addr,
             {df_cols}
      FROM toks),
scored AS (SELECT d.doc_id, ({score}) AS score FROM d CROSS JOIN s),
ranked AS (SELECT doc_id, score,
                  row_number() OVER (ORDER BY score DESC, doc_id) AS rank
           FROM scored WHERE score != 0.0)
SELECT rank, doc_id, round(score, 6) AS score FROM ranked WHERE rank <= {k}
"""


SQL_BM25F = _sql_bm25f()


def q_bm25plus_topk(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = text.top_k(
        text.score_multi(ds, {0: BM25_TERMS}, scoring="bm25plus"), k=10)
    return _round6(out[["rank", "doc_id", "score"]], ["score"])


def _sql_bm25plus() -> str:
    """Mirror of text.score_multi(scoring="bm25plus") incl. the
    reference's (K1+1)+tf numerator (scoring.go:163-166).  K1=1.2,
    B=0.98, DELTA=1."""
    per_term = []
    for t in BM25_TERMS:
        per_term.append(f"""
          (CASE WHEN s.df_{t} > 0 AND d.tf_{t} > 0 THEN
             (log10(s.n_docs+1)-log10(s.df_{t}))
             * (1.0 + ((1.2+1)+d.tf_{t})
                      /(1.2*(1-0.98+0.98*d.dl/s.avg_doc)+d.tf_{t}))
           ELSE 0.0 END)""")
    tf_cols = ", ".join(
        f"CAST(len(list_filter(tok, x -> x = '{t}')) AS DOUBLE) AS tf_{t}"
        for t in BM25_TERMS
    )
    df_cols = ", ".join(
        f"CAST(SUM(CASE WHEN list_contains(tok, '{t}') THEN 1 ELSE 0 END) AS DOUBLE) AS df_{t}"
        for t in BM25_TERMS
    )
    score = " + ".join(per_term)
    return f"""
WITH toks AS (SELECT doc_id, {TOK} AS tok FROM documents),
d AS (SELECT doc_id, CAST(len(tok) AS DOUBLE) AS dl, {tf_cols} FROM toks),
s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs,
             SUM(CAST(len(tok) AS DOUBLE))/COUNT(*) AS avg_doc,
             {df_cols}
      FROM toks),
scored AS (SELECT d.doc_id, ({score}) AS score FROM d CROSS JOIN s),
ranked AS (SELECT doc_id, score,
                  row_number() OVER (ORDER BY score DESC, doc_id) AS rank
           FROM scored WHERE score != 0.0)
SELECT rank, doc_id, round(score, 6) AS score FROM ranked WHERE rank <= 10
"""


SQL_BM25PLUS = _sql_bm25plus()


TFIDF_TERMS = ["hash", "scan", "hash"]  # duplicate exercises query-tf


def q_tfidf_topk(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = text.top_k(
        text.score_multi(ds, {0: TFIDF_TERMS}, scoring="tfidf"), k=10)
    return _round6(out[["rank", "doc_id", "score"]], ["score"])


def _sql_tfidf() -> str:
    """Mirror of text.score_multi(scoring="tfidf") — the reference's
    dot-product-only TF-IDF (norms computed but never divided by,
    scoring.go:183-228)."""
    q_count = {}
    for t in TFIDF_TERMS:
        q_count[t] = q_count.get(t, 0) + 1
    per_term = []
    for t in sorted(q_count):  # same FP sum order as the numpy side
        per_term.append(f"""
          (CASE WHEN s.df_{t} > 0 AND d.tf_{t} > 0 THEN
             ((1 + log10(d.tf_{t})) * (log10(s.n_docs)-log10(s.df_{t})))
             * ((1 + log10({float(q_count[t])})) * (log10(s.n_docs)-log10(s.df_{t})))
           ELSE 0.0 END)""")
    tf_cols = ", ".join(
        f"CAST(len(list_filter(tok, x -> x = '{t}')) AS DOUBLE) AS tf_{t}"
        for t in sorted(q_count)
    )
    df_cols = ", ".join(
        f"CAST(SUM(CASE WHEN list_contains(tok, '{t}') THEN 1 ELSE 0 END) AS DOUBLE) AS df_{t}"
        for t in sorted(q_count)
    )
    score = " + ".join(per_term)
    return f"""
WITH toks AS (SELECT doc_id, {TOK} AS tok FROM documents),
d AS (SELECT doc_id, {tf_cols} FROM toks),
s AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs, {df_cols} FROM toks),
scored AS (SELECT d.doc_id, ({score}) AS score FROM d CROSS JOIN s),
ranked AS (SELECT doc_id, score,
                  row_number() OVER (ORDER BY score DESC, doc_id) AS rank
           FROM scored WHERE score != 0.0)
SELECT rank, doc_id, round(score, 6) AS score FROM ranked WHERE rank <= 10
"""


SQL_TFIDF = _sql_tfidf()


def q_ngram_bigrams(sf_dir: str):
    return text.ngram_counts(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]), 2
    )


SQL_BIGRAMS = f"""
WITH l AS (SELECT ['<s>','<s>'] || {TOK} || ['</s>'] AS t FROM documents),
g AS (SELECT t[i] || ' ' || t[i+1] AS ngram
      FROM l, unnest(range(1, len(t))) AS u(i))
SELECT ngram, COUNT(*) AS n FROM g GROUP BY ngram
"""


def q_vocab_min_freq(sf_dir: str):
    return text.vocab_with_min_freq(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]), 2
    )


SQL_VOCAB = f"""
SELECT t.term, COUNT(*) AS freq
FROM documents d, unnest({TOK}) AS t(term)
GROUP BY t.term HAVING COUNT(*) >= 2
"""


def q_quality_signals(sf_dir: str):
    """Integer quality signals (`text.quality_signals`; ratios stay
    library-side in `text.quality_metrics`, ints hash identically
    across engines)."""
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(text.quality_signals, batch_format="pyarrow")


_EN = ", ".join(f"'{w}'" for w in text.STOPWORDS["en"])

SQL_QUALITY = f"""
SELECT doc_id,
       CAST(len({TOK}) AS BIGINT) AS n_tokens,
       CAST(length(COALESCE(text, '')) AS BIGINT) AS n_chars,
       CAST(length(regexp_replace(COALESCE(text, ''), '[^a-zA-Z0-9 ]', '', 'g')) AS BIGINT) AS alnum_space_chars,
       CAST(length(regexp_replace(lower(COALESCE(text, '')), '[^a-z0-9]', '', 'g')) AS BIGINT) AS token_chars,
       CAST(len(list_filter({TOK}, x -> x IN ({_EN}))) AS BIGINT) AS stop_hits
FROM documents
"""


def q_lang_id(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        text.lang_id, batch_format="pyarrow"
    )


def _sql_lang_id() -> str:
    langs = sorted(text.STOPWORDS)
    hits = ", ".join(
        f"CAST(len(list_filter({TOK}, x -> x IN ({', '.join(repr(w) for w in text.STOPWORDS[l])}))) AS BIGINT) AS h_{l}"
        for l in langs
    )
    mx = "GREATEST(" + ", ".join(f"h_{l}" for l in langs) + ")"
    pick = " ".join(f"WHEN h_{l} = {mx} THEN '{l}'" for l in langs)
    return f"""
WITH h AS (SELECT doc_id, {hits} FROM documents)
SELECT doc_id,
       CASE WHEN {mx} = 0 THEN 'unknown' ELSE CASE {pick} END END AS pred_lang
FROM h
"""


SQL_LANG_ID = _sql_lang_id()


def q_token_counts(sf_dir: str):
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        text.token_counts, batch_format="pyarrow"
    )


SQL_TOKEN_COUNTS = r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS ws_tokens,
       CAST(len(regexp_extract_all(lower(text), '[a-z0-9]+|[^a-z0-9\s]')) AS BIGINT) AS bpe_ish_tokens
FROM documents
"""


def q_repetition_signals(sf_dir: str):
    """Gopher-style per-document repetition signals (Rae et al. 2021):
    distinct-token fraction + top-unigram / top-bigram coverage as
    integer numerator/denominator pairs (text.repetition_signals).
    A pure map stage — streams at any scale."""
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(text.repetition_signals, batch_format="pyarrow")


SQL_REPETITION = f"""
WITH t AS (SELECT doc_id, {TOK} AS toks FROM documents),
w AS (SELECT doc_id, unnest(toks) AS w FROM t),
u AS (SELECT doc_id, w, COUNT(*) AS c FROM w GROUP BY 1, 2),
uni AS (SELECT doc_id, COUNT(*) AS n_distinct, MAX(c) AS top_uni FROM u GROUP BY 1),
bg AS (SELECT doc_id, toks[i] || ' ' || toks[i + 1] AS b
       FROM t, unnest(range(1, len(toks))) AS r(i)),
bgm AS (SELECT doc_id, MAX(c) AS top_bg
        FROM (SELECT doc_id, b, COUNT(*) AS c FROM bg GROUP BY 1, 2)
        GROUP BY 1)
SELECT t.doc_id,
       CAST(len(t.toks) AS BIGINT) AS n_tokens,
       CAST(COALESCE(uni.n_distinct, 0) AS BIGINT) AS n_distinct,
       CAST(COALESCE(uni.top_uni, 0) AS BIGINT) AS top_unigram_n,
       CAST(COALESCE(bgm.top_bg, 0) AS BIGINT) AS top_bigram_n,
       CAST(GREATEST(len(t.toks) - 1, 0) AS BIGINT) AS n_bigrams
FROM t LEFT JOIN uni ON uni.doc_id = t.doc_id
       LEFT JOIN bgm ON bgm.doc_id = t.doc_id
"""


def q_repetition_filter(sf_dir: str):
    """Repetition GATE: keep documents whose top-bigram coverage is
    <= 20% of bigrams AND whose distinct-token count is >= 30% of
    tokens (the Gopher thresholds, integer cross-multiplied so no
    float enters the predicate).  Output: surviving doc_ids."""
    sig = q_repetition_signals(sf_dir)

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        keep = (5 * b["top_bigram_n"] <= b["n_bigrams"]) & \
               (10 * b["n_distinct"] >= 3 * b["n_tokens"])
        return b.loc[keep, ["doc_id"]]

    return sig.map_batches(gate, batch_format="pandas")


SQL_REPETITION_FILTER = f"""
WITH s AS ({SQL_REPETITION})
SELECT doc_id FROM s
WHERE 5 * top_bigram_n <= n_bigrams AND 10 * n_distinct >= 3 * n_tokens
"""


CHUNK_SIZE, CHUNK_STRIDE = 32, 24


def q_chunk_windows(sf_dir: str):
    """Sequence-packing chunker: overlapping token windows per
    document (size 32, stride 24) as integer chunk coordinates
    (text.chunk_windows) — the training-data export step that turns
    documents into model context windows."""
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(lambda b: text.chunk_windows(
            b, size=CHUNK_SIZE, stride=CHUNK_STRIDE),
            batch_format="pandas")


SQL_CHUNK_WINDOWS = f"""
WITH t AS (SELECT doc_id, len({TOK}) AS n FROM documents),
c AS (SELECT doc_id, n,
             unnest(range(0, CAST(ceil(n / {CHUNK_STRIDE}.0) AS BIGINT))) AS i
      FROM t WHERE n > 0)
SELECT doc_id, CAST(i AS BIGINT) AS chunk_id,
       CAST(i * {CHUNK_STRIDE} AS BIGINT) AS start_tok,
       CAST(LEAST({CHUNK_SIZE}, n - i * {CHUNK_STRIDE}) AS BIGINT) AS n_tok
FROM c
"""


# ---------------------------------------------------------------------------
# dedup queries


def q_dedup_exact(sf_dir: str):
    return dedup.exact_dedup(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


SQL_DEDUP_EXACT = """
SELECT md5(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS text_hash,
       MIN(doc_id) AS doc_id
FROM documents GROUP BY 1
"""


def q_dedup_incremental(sf_dir: str):
    """CROSS-EPOCH incremental dedup end to end: the corpus splits
    into two deterministic epochs (doc_id parity — "yesterday's crawl"
    and "today's"), epoch 0 dedupes and persists its (hash, id) state
    as an immutable epoch partition, epoch 1 dedupes internally then
    hash-ANTI-JOINs against the persisted state — yesterday's text is
    never re-read (dedup.incremental_exact_dedup).  Earlier epoch
    wins, then min id; output (doc_id, epoch) for every survivor.
    The SQL oracle is the batch-equivalent row_number over
    (epoch, doc_id) per hash — incremental must equal batch."""
    import shutil
    import tempfile

    state = tempfile.mkdtemp(prefix="graft_incdedup_")
    try:
        ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

        def split(par):
            return ds.map_batches(
                lambda b, p=par: b[b["doc_id"] % 2 == p],
                batch_format="pandas")

        k0 = dedup.incremental_exact_dedup(state, split(0), 0).to_pandas()
        k1 = dedup.incremental_exact_dedup(state, split(1), 1).to_pandas()
        out = pd.concat([k0, k1], ignore_index=True)
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["epoch"] = out["epoch"].astype(np.int64)
        return out[["doc_id", "epoch"]]
    finally:
        shutil.rmtree(state, ignore_errors=True)


SQL_DEDUP_INCREMENTAL = """
WITH h AS (SELECT doc_id, doc_id % 2 AS epoch,
                  md5(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'))
                    AS text_hash
           FROM documents),
r AS (SELECT doc_id, epoch,
             row_number() OVER (PARTITION BY text_hash
                                ORDER BY epoch, doc_id) AS rn
      FROM h)
SELECT doc_id, CAST(epoch AS BIGINT) AS epoch FROM r WHERE rn = 1
"""


def _shingle_common_impl(sf_dir: str):
    """(id_a, id_b, common, size_a, size_b) for pairs passing
    common*5 >= size_a+size_b-common (jaccard >= 1/5) — thin wrapper
    over dedup.jaccard_pairs(output="sizes"); the SQL oracle below is
    its exact self-join mirror."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup.jaccard_pairs(ds, threshold=0.2, output="sizes")


SQL_SHINGLE_COMMON = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT DISTINCT doc_id,
              CASE WHEN len(t) <= 3 THEN array_to_string(t, ' ')
                   ELSE t[i] || ' ' || t[i+1] || ' ' || t[i+2] END AS shingle
       FROM toks, unnest(range(1, GREATEST(len(t)-1, 2))) AS u(i)
       WHERE len(t) > 0),
sizes AS (SELECT doc_id, COUNT(*) AS sz FROM sh GROUP BY doc_id),
pairs AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS common
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT p.id_a, p.id_b, CAST(p.common AS BIGINT) AS common,
       CAST(sa.sz AS BIGINT) AS size_a, CAST(sb.sz AS BIGINT) AS size_b
FROM pairs p JOIN sizes sa ON sa.doc_id = p.id_a JOIN sizes sb ON sb.doc_id = p.id_b
WHERE p.common * 5 >= sa.sz + sb.sz - p.common
"""


def q_decontaminate(sf_dir: str):
    """Train/test decontamination: parity-split the corpus (even
    doc_id = train, odd = test) and flag every test doc sharing ANY
    5-token shingle with the train split (dedup.decontaminate)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def split(parity):
        return docs.map_batches(
            lambda b, p=parity: b[b["doc_id"] % 2 == p],
            batch_format="pandas")

    return dedup.decontaminate(split(0), split(1), k_shingle=5)


SQL_DECONTAMINATE = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT DISTINCT doc_id,
              CASE WHEN len(t) < 5 THEN array_to_string(t, ' ')
                   ELSE t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' ||
                        t[i+3] || ' ' || t[i+4] END AS s
       FROM toks, unnest(range(1, GREATEST(len(t)-3, 2))) AS u(i)
       WHERE len(t) > 0),
tr AS (SELECT DISTINCT s FROM sh WHERE doc_id % 2 = 0)
SELECT DISTINCT a.doc_id
FROM sh a JOIN tr ON a.s = tr.s
WHERE a.doc_id % 2 = 1
"""


def q_props_extract(sf_dir: str):
    """SEMI-STRUCTURED field extraction (the JSON-props parse every
    log pipeline runs): pull the integer `k` out of the events'
    JSON props with one compiled vectorized regex per batch (no
    per-row json.loads), then a bucket-hash sum/count per event_type.
    Output: (event_type, n_events, sum_k)."""
    from ..stages.agg import two_phase_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        k = (b["props"].str.extract(r'"k":\s*(\d+)', expand=False)
             .fillna(0).astype(np.int64))
        return (pd.DataFrame({"event_type": b["event_type"],
                              "n_events": np.int64(1), "sum_k": k})
                .groupby("event_type", sort=False, as_index=False).sum())

    return two_phase_agg(ds, partial, ["event_type"],
                         ["n_events", "sum_k"])


SQL_PROPS_EXTRACT = r"""
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(COALESCE(CAST(regexp_extract(props, '"k":\s*(\d+)', 1)
                              AS BIGINT), 0)) AS BIGINT) AS sum_k
FROM events GROUP BY 1
"""


def q_char_percentiles(sf_dir: str):
    """EXACT percentile-rank transform WITHOUT a global sort — the
    rank-normalization a scoring pipeline needs at corpus scale: one
    mergeable integer histogram of n_chars (shuffle = O(distinct
    values)), the cumulative-below table broadcasts as two sorted
    arrays, and a second streaming pass maps every doc through one
    searchsorted.  pct_ppm = (#values strictly below) * 1e6 // total,
    an integer (the oracle design rule)."""
    import ray

    from ..stages.agg import two_phase_agg
    from ..stages.knn import cached_state

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        n_chars = b["text"].str.len().astype(np.int64)
        return (pd.DataFrame({"n_chars": n_chars})
                .groupby("n_chars", sort=False).size().reset_index(name="n"))

    hist = two_phase_agg(ds, partial, ["n_chars"], ["n"],
                         combine="shuffle").to_pandas()
    hist = hist.sort_values("n_chars", kind="mergesort")
    vals = hist["n_chars"].to_numpy(np.int64)
    counts = hist["n"].to_numpy(np.int64)
    below = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())
    ref = ray.put((vals, below))

    def rank(b: pd.DataFrame) -> pd.DataFrame:
        v, lt = cached_state(f"pctl-{ref.hex()}", lambda: ray.get(ref))
        n_chars = b["text"].str.len().to_numpy(np.int64)
        cum = lt[np.searchsorted(v, n_chars)]
        return pd.DataFrame({
            "doc_id": b["doc_id"].astype(np.int64),
            "n_chars": n_chars,
            "pct_ppm": (cum * 1_000_000) // total,
        })

    return ds.map_batches(rank, batch_format="pandas")


SQL_CHAR_PERCENTILES = """
WITH s AS (SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
           FROM documents),
t AS (SELECT COUNT(*) AS total FROM s)
SELECT s.doc_id, s.n_chars,
       ((SELECT COUNT(*) FROM s b WHERE b.n_chars < s.n_chars)
        * 1000000) // t.total AS pct_ppm
FROM s, t
"""


def q_corpus_prep(sf_dir: str):
    """END-TO-END LLM corpus preparation — the composed keep-set a
    training-data pipeline ships: a document survives iff it
    (1) passes the corpus-relative quality gate (n_chars >= exact
    streaming median), (2) passes the Gopher repetition gate, and
    (3) is its exact-dedup representative (min doc_id per normalized
    content hash).  One histogram pass (shuffle = O(distinct
    lengths)), one signal+gate map pass, the dedup keep-set as an
    adaptive broadcast/keyed semi-join — the corpus text streams
    twice and never shuffles."""
    from ..stages.agg import (membership_filter,
                              quantile_disc_from_histogram, two_phase_agg)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # arrow-native length projection feeds the histogram; only slim
    # (n_chars) rows reach the pandas combine (round-5 conversion-tax
    # fix — the corpus text never converts to pandas)
    lens_ds = ds.map_batches(
        lambda b: pa.table({"n_chars": pc.utf8_length(b["text"])
                            .cast(pa.int64())}),
        batch_format="pyarrow")

    def hist_partial(b: pd.DataFrame) -> pd.DataFrame:
        return (b[["n_chars"]]
                .groupby("n_chars", sort=False).size().reset_index(name="n"))

    hist = two_phase_agg(lens_ds, hist_partial, ["n_chars"], ["n"],
                         combine="shuffle").to_pandas()
    hist = hist.sort_values("n_chars", kind="mergesort")
    med = int(quantile_disc_from_histogram(
        hist["n_chars"].to_numpy(), hist["n"].to_numpy(), 0.5))

    def gate(b: pa.Table) -> pa.Table:
        sig = text.repetition_signals(b)
        keep = (pc.utf8_length(b["text"]).cast(pa.int64()).to_numpy()
                >= med) \
            & (5 * sig["top_bigram_n"].to_numpy()
               <= sig["n_bigrams"].to_numpy()) \
            & (10 * sig["n_distinct"].to_numpy()
               >= 3 * sig["n_tokens"].to_numpy())
        return b.select(["doc_id"]).filter(pa.array(keep))

    gated = ds.map_batches(gate, batch_format="pyarrow")
    reps = dedup.exact_dedup(ds).map_batches(
        lambda b: b[["doc_id"]], batch_format="pandas")
    return membership_filter(gated, reps, "doc_id", "doc_id", keep=True)


SQL_CORPUS_PREP = f"""
WITH rs AS ({SQL_REPETITION}),
med AS (SELECT quantile_disc(CAST(length(text) AS BIGINT), 0.5) AS m
        FROM documents),
rep AS (SELECT MIN(doc_id) AS doc_id FROM documents
        GROUP BY md5(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')))
SELECT d.doc_id FROM documents d
JOIN rep ON rep.doc_id = d.doc_id
JOIN rs ON rs.doc_id = d.doc_id, med
WHERE CAST(length(d.text) AS BIGINT) >= med.m
  AND 5 * rs.top_bigram_n <= rs.n_bigrams
  AND 10 * rs.n_distinct >= 3 * rs.n_tokens
"""


def q_dup_ngram_coverage(sf_dir: str):
    """Duplicate-5-gram token coverage per document (the third Gopher
    repetition metric: cross-document duplicate n-gram coverage) —
    global shingle DF pass + positional membership + per-doc interval
    union (dedup.dup_ngram_coverage)."""
    return dedup.dup_ngram_coverage(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        k_shingle=5)


SQL_DUP_NGRAM_COVERAGE = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sp AS (SELECT doc_id, i AS pos,
              t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' ||
              t[i+3] || ' ' || t[i+4] AS s
       FROM toks, unnest(range(1, len(t)-3)) AS u(i)
       WHERE len(t) >= 5),
df AS (SELECT s FROM (SELECT s, COUNT(DISTINCT doc_id) AS c
                      FROM sp GROUP BY 1) WHERE c >= 2),
dup AS (SELECT DISTINCT doc_id, pos FROM sp JOIN df USING(s)),
cov AS (SELECT doc_id, COUNT(DISTINCT p) AS covered
        FROM dup, unnest(range(pos, pos+5)) AS r(p) GROUP BY 1)
SELECT t.doc_id, CAST(len(t.t) AS BIGINT) AS n_tokens,
       CAST(COALESCE(c.covered, 0) AS BIGINT) AS covered_tokens
FROM toks t LEFT JOIN cov c ON c.doc_id = t.doc_id
"""


def q_near_dedup_keep(sf_dir: str):
    """End-to-end near-dedup: shingle-Jaccard pairs -> connected
    components -> keep min-id per component.  Oracle = recursive-CTE
    transitive closure in DuckDB."""
    return dedup.near_dedup_keep(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=0.2,
    )


SQL_NEAR_DEDUP_KEEP = f"""
WITH RECURSIVE
toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT DISTINCT doc_id,
              CASE WHEN len(t) <= 3 THEN array_to_string(t, ' ')
                   ELSE t[i] || ' ' || t[i+1] || ' ' || t[i+2] END AS shingle
       FROM toks, unnest(range(1, GREATEST(len(t)-1, 2))) AS u(i)
       WHERE len(t) > 0),
sizes AS (SELECT doc_id, COUNT(*) AS sz FROM sh GROUP BY doc_id),
pairs AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS common
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
near AS (SELECT p.id_a, p.id_b
         FROM pairs p JOIN sizes sa ON sa.doc_id = p.id_a
                      JOIN sizes sb ON sb.doc_id = p.id_b
         WHERE CAST(p.common AS DOUBLE) / (sa.sz + sb.sz - p.common) >= 0.2),
edges AS (SELECT id_a AS a, id_b AS b FROM near
          UNION ALL SELECT id_b, id_a FROM near),
walk(node, reach) AS (
  SELECT a, a FROM (SELECT DISTINCT a FROM edges)
  UNION
  SELECT w.node, e.b FROM walk w JOIN edges e ON e.a = w.reach
),
roots AS (SELECT node, MIN(reach) AS root FROM walk GROUP BY node)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT node FROM roots WHERE root < node)
"""


def q_cc_labels(sf_dir: str):
    """Distributed connected components DIRECTLY oracled: min-label
    propagation over the exact-Jaccard pair graph vs a recursive-CTE
    transitive closure computing each node's component-minimum id."""
    pairs = dedup.jaccard_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=0.2,
    )
    out = dedup.cc_labels(pairs)

    def cast(b: pd.DataFrame) -> pd.DataFrame:
        b["node"] = b["node"].astype(np.int64)
        b["label"] = b["label"].astype(np.int64)
        return b

    return out.map_batches(cast, batch_format="pandas")


SQL_CC_LABELS = f"""
WITH RECURSIVE
toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT DISTINCT doc_id,
              CASE WHEN len(t) <= 3 THEN array_to_string(t, ' ')
                   ELSE t[i] || ' ' || t[i+1] || ' ' || t[i+2] END AS shingle
       FROM toks, unnest(range(1, GREATEST(len(t)-1, 2))) AS u(i)
       WHERE len(t) > 0),
sizes AS (SELECT doc_id, COUNT(*) AS sz FROM sh GROUP BY doc_id),
pairs AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS common
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
near AS (SELECT p.id_a, p.id_b
         FROM pairs p JOIN sizes sa ON sa.doc_id = p.id_a
                      JOIN sizes sb ON sb.doc_id = p.id_b
         WHERE CAST(p.common AS DOUBLE) / (sa.sz + sb.sz - p.common) >= 0.2),
edges AS (SELECT id_a AS a, id_b AS b FROM near
          UNION ALL SELECT id_b, id_a FROM near),
walk(node, reach) AS (
  SELECT a, a FROM (SELECT DISTINCT a FROM edges)
  UNION
  SELECT w.node, e.b FROM walk w JOIN edges e ON e.a = w.reach
)
SELECT node, CAST(MIN(reach) AS BIGINT) AS label FROM walk GROUP BY node
"""


def q_near_dedup_minhash(sf_dir: str):
    """near_dedup_keep through the MINHASH pair path end to end
    (signatures -> banding -> keyed exact verify -> distributed CC ->
    anti-join).  Shares the exact-Jaccard transitive-closure oracle:
    the exact verify guarantees precision 1 and LSH recall is
    empirically 1 on this corpus at these parameters, so the kept sets
    coincide — a recall regression hash-mismatches."""
    return dedup.near_dedup_keep(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=0.2, method="minhash",
    )


def q_fingerprints(sf_dir: str):
    """Rolling-hash winnowing fingerprints (MOSS scheme) — distinct
    selected hashes per doc, SQL-mirrored digit by digit."""
    return text.winnow_fingerprints(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


def _sql_h32(hx: str = "hx") -> str:
    """Low 32 bits (little-endian) of an md5 hex string, decoded via
    strpos — mirrors int.from_bytes(digest[:4], 'little')."""
    terms = []
    for j in range(4):
        hi = f"(strpos('0123456789abcdef', substr({hx}, {2 * j + 1}, 1)) - 1)"
        lo = f"(strpos('0123456789abcdef', substr({hx}, {2 * j + 2}, 1)) - 1)"
        terms.append(f"(({hi}) * 16 + ({lo})) * {256 ** j}")
    return "(" + " + ".join(terms) + ")"


SQL_FINGERPRINTS = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT doc_id, i AS p,
              CASE WHEN len(t) < 3 THEN array_to_string(t, ' ')
                   ELSE t[i] || ' ' || t[i+1] || ' ' || t[i+2] END AS shingle
       FROM toks, unnest(range(1, GREATEST(len(t)-1, 2))) AS u(i)
       WHERE len(t) > 0),
h AS (SELECT doc_id, p, {_sql_h32('md5(shingle)')} AS h FROM sh),
n AS (SELECT doc_id, COUNT(*) AS cnt FROM h GROUP BY doc_id),
w AS (SELECT a.doc_id, a.p - o.o AS ws, a.p, a.h
      FROM h a, unnest(range(0, 4)) AS o(o)
      WHERE a.p - o.o >= 1),
r AS (SELECT w.doc_id, w.ws, w.p, w.h,
             row_number() OVER (PARTITION BY w.doc_id, w.ws
                                ORDER BY w.h, w.p DESC) AS rn,
             COUNT(*) OVER (PARTITION BY w.doc_id, w.ws) AS wn
      FROM w)
SELECT DISTINCT r.doc_id, CAST(r.h AS BIGINT) AS fingerprint
FROM r JOIN n ON n.doc_id = r.doc_id
WHERE n.cnt <= 4 OR (r.wn = 4 AND r.rn = 1)
"""


def q_fingerprint_pairs(sf_dir: str):
    """MOSS-style match detection end to end: winnowing fingerprints
    -> fingerprint-key shuffle (max_df boilerplate cap) -> pairs
    sharing >= 2 distinct selected fingerprints.  The
    plagiarism-detection companion to the Jaccard/MinHash dedup legs,
    oracled by a self-join over the digit-exact fingerprint SQL."""
    fp = text.winnow_fingerprints(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))
    return dedup.fingerprint_pairs(fp, min_common=2, max_df=50)


SQL_FINGERPRINT_PAIRS = f"""
WITH fp AS ({SQL_FINGERPRINTS}),
df AS (SELECT fingerprint FROM fp GROUP BY 1 HAVING COUNT(*) <= 50),
f AS (SELECT fp.doc_id, fp.fingerprint FROM fp JOIN df USING (fingerprint))
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(COUNT(*) AS BIGINT) AS n_common
FROM f a JOIN f b ON a.fingerprint = b.fingerprint AND a.doc_id < b.doc_id
GROUP BY 1, 2 HAVING COUNT(*) >= 2
"""


def q_sample_stratified(sf_dir: str):
    """STRATIFIED deterministic sampling: a per-stratum rate applied
    through the same Knuth multiplicative hash as sample_hash — the
    class-balancing split a training pipeline uses (downsample the
    majority classes, keep the rare ones), reproducible with no RNG
    state and no shuffle (pure per-row filter)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"])
    rates = {"click": 50, "view": 300, "purchase": 200,
             "signup": 100, "error": 150}

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        k = b["event_id"].to_numpy(np.int64)
        h = (k * 2654435761) % 1000
        cut = b["event_type"].map(rates).fillna(150).to_numpy(np.int64)
        return b[h < cut][["event_id", "event_type"]]

    return ds.map_batches(keep, batch_format="pandas")


SQL_SAMPLE_STRATIFIED = """
SELECT event_id, event_type FROM events
WHERE (CAST(event_id AS BIGINT) * 2654435761) % 1000 <
      CASE event_type WHEN 'click' THEN 50 WHEN 'view' THEN 300
                      WHEN 'purchase' THEN 200 WHEN 'signup' THEN 100
                      ELSE 150 END
"""


# ---------------------------------------------------------------------------
# embedding queries


def q_embedding_knn(sf_dir: str):
    emb = read_table_arrow(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qn = 5
    queries = {
        "query_id": emb["vec_id"].to_pylist()[:qn],
        "embedding": emb["embedding"].to_pylist()[:qn],
    }
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embed.cosine_topk(ds, queries, k=5)
    return _round6(out[["query_id", "rank", "vec_id", "cosine"]], ["cosine"])


SQL_EMBEDDING_KNN = """
WITH v AS (SELECT vec_id, i, CAST(embedding[i] AS DOUBLE) AS x
           FROM embeddings, unnest(range(1, len(embedding)+1)) AS u(i)),
norms AS (SELECT vec_id, sqrt(SUM(x*x)) AS nrm FROM v GROUP BY vec_id),
q AS (SELECT vec_id AS query_id, i, x FROM v WHERE vec_id < 5),
dot AS (SELECT q.query_id, v.vec_id, SUM(q.x*v.x) AS d
        FROM q JOIN v ON q.i = v.i GROUP BY 1, 2),
sim AS (SELECT d.query_id, d.vec_id,
               d.d/(nq.nrm*nv.nrm) AS cosine,
               row_number() OVER (PARTITION BY d.query_id
                                  ORDER BY d.d/(nq.nrm*nv.nrm) DESC, d.vec_id) AS rank
        FROM dot d JOIN norms nq ON nq.vec_id = d.query_id
                   JOIN norms nv ON nv.vec_id = d.vec_id
        WHERE d.vec_id != d.query_id)
SELECT query_id, rank, vec_id, round(cosine, 6) AS cosine FROM sim WHERE rank <= 5
"""


def q_hybrid_search_rrf(sf_dir: str):
    """HYBRID retrieval with Reciprocal Rank Fusion (Cormack et al.
    2009 — public): BM25F lexical top-10 over documents + embedding
    cosine top-10 (vec 0 as the query vector; vec_id is doc-aligned),
    fused by score = sum over lists of 1/(60 + rank).  Both legs are
    the engine's existing k-bounded partial top-ks (no global sort);
    the fusion itself is O(k) driver work on 20 rows.  Output is
    integer-only (the oracle design rule): (fused_rank, doc_id,
    bm25_rank, cos_rank), rank 0 = absent from that leg; ordering
    score DESC then doc_id, identical float expression in the SQL."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    lex = text.top_k(text.bm25f_score(docs, BM25_TERMS), k=10)
    lex = lex[["rank", "doc_id"]].rename(columns={"rank": "bm25_rank"})

    emb_t = read_table_arrow(sf_dir, "embeddings",
                             columns=["vec_id", "embedding"])
    q0 = {"query_id": emb_t["vec_id"].to_pylist()[:1],
          "embedding": emb_t["embedding"].to_pylist()[:1]}
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    vec = embed.cosine_topk(ds, q0, k=10)
    vec = vec[["rank", "vec_id"]].rename(
        columns={"rank": "cos_rank", "vec_id": "doc_id"})

    f = lex.merge(vec, on="doc_id", how="outer").fillna(0)
    br = f["bm25_rank"].to_numpy(np.int64)
    cr = f["cos_rank"].to_numpy(np.int64)
    score = np.where(br > 0, 1.0 / (60.0 + br), 0.0) + \
        np.where(cr > 0, 1.0 / (60.0 + cr), 0.0)
    f = agg.page(f.assign(_s=score), ["_s", "doc_id"], 10,
                 descending=("_s",)).rename(columns={"rank": "fused_rank"})
    return f[["fused_rank", "doc_id", "bm25_rank", "cos_rank"]].astype(np.int64)


SQL_HYBRID_RRF = f"""
WITH lex AS (SELECT rank AS bm25_rank, doc_id FROM ({SQL_BM25F})),
vec AS (
  SELECT rank AS cos_rank, vec_id AS doc_id FROM (
    WITH v AS (SELECT vec_id, i, CAST(embedding[i] AS DOUBLE) AS x
               FROM embeddings, unnest(range(1, len(embedding)+1)) AS u(i)),
    norms AS (SELECT vec_id, sqrt(SUM(x*x)) AS nrm FROM v GROUP BY vec_id),
    q AS (SELECT vec_id AS query_id, i, x FROM v WHERE vec_id = 0),
    dot AS (SELECT q.query_id, v.vec_id, SUM(q.x*v.x) AS d
            FROM q JOIN v ON q.i = v.i GROUP BY 1, 2),
    sim AS (SELECT d.vec_id, d.d/(nq.nrm*nv.nrm) AS cosine,
                   row_number() OVER (ORDER BY d.d/(nq.nrm*nv.nrm) DESC,
                                      d.vec_id) AS rank
            FROM dot d JOIN norms nq ON nq.vec_id = d.query_id
                       JOIN norms nv ON nv.vec_id = d.vec_id
            WHERE d.vec_id != d.query_id)
    SELECT rank, vec_id FROM sim WHERE rank <= 10)),
f AS (SELECT COALESCE(l.doc_id, v.doc_id) AS doc_id,
             COALESCE(l.bm25_rank, 0) AS bm25_rank,
             COALESCE(v.cos_rank, 0) AS cos_rank
      FROM lex l FULL OUTER JOIN vec v ON l.doc_id = v.doc_id),
s AS (SELECT doc_id, bm25_rank, cos_rank,
             (CASE WHEN bm25_rank > 0 THEN 1.0/(60.0 + bm25_rank) ELSE 0.0 END)
           + (CASE WHEN cos_rank > 0 THEN 1.0/(60.0 + cos_rank) ELSE 0.0 END) AS sc
      FROM f)
SELECT CAST(row_number() OVER (ORDER BY sc DESC, doc_id) AS BIGINT) AS fused_rank,
       doc_id, CAST(bm25_rank AS BIGINT) AS bm25_rank,
       CAST(cos_rank AS BIGINT) AS cos_rank
FROM s ORDER BY sc DESC, doc_id LIMIT 10
"""


def q_embedding_near_pairs(sf_dir: str):
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embed.embedding_dup_pairs(ds, threshold=0.4).to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                             "id_b": pd.Series([], dtype=np.int64)})
    return out[["id_a", "id_b"]]


SQL_EMBEDDING_PAIRS = """
WITH v AS (SELECT vec_id, i, CAST(embedding[i] AS DOUBLE) AS x
           FROM embeddings, unnest(range(1, len(embedding)+1)) AS u(i)),
norms AS (SELECT vec_id, sqrt(SUM(x*x)) AS nrm FROM v GROUP BY vec_id),
dot AS (SELECT a.vec_id AS id_a, b.vec_id AS id_b, SUM(a.x*b.x) AS d
        FROM v a JOIN v b ON a.i = b.i AND a.vec_id < b.vec_id GROUP BY 1, 2)
SELECT d.id_a, d.id_b
FROM dot d JOIN norms na ON na.vec_id = d.id_a JOIN norms nb ON nb.vec_id = d.id_b
WHERE d.d/(na.nrm*nb.nrm) >= 0.4
"""


# ---------------------------------------------------------------------------
# relational operator coverage (groupby/join/sort/window)


def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-style grouped aggregate with per-batch partial combine.

    The shipdate predicate is PUSHED TO THE READ (pyarrow dataset
    filter -> row-group/page pruning at storage); the in-map filter
    stays as the exact row-level guard (pushdown is allowed to be
    coarse)."""
    import pyarrow.dataset as pds

    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount", "l_shipdate"],
        filter=(pds.field("l_shipdate")
                <= pa.scalar(pd.Timestamp("1998-09-01"))),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] <= pd.Timestamp("1998-09-01")]
        # money -> exact integer units BEFORE summing: per-row products
        # are bit-identical across engines, so the rounded ints are too,
        # and integer sums are order-independent (unlike float sums)
        g = (
            b.assign(
                qty_c=np.round(b["l_quantity"].to_numpy() * 100).astype(np.int64),
                base_c=np.round(b["l_extendedprice"].to_numpy() * 100).astype(np.int64),
                disc_c=np.round(
                    b["l_extendedprice"].to_numpy()
                    * (1 - b["l_discount"].to_numpy()) * 10000
                ).astype(np.int64),
            )
            .groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(sum_qty_c=("qty_c", "sum"), sum_base_c=("base_c", "sum"),
                 sum_disc_price_e4=("disc_c", "sum"), n=("qty_c", "size"))
            .reset_index()
        )
        return g

    from ..stages.agg import two_phase_agg

    # (returnflag, linestatus) is an enum-like bounded key space (<= 9
    # combos): partials collapse each block to <= 9 rows, so the driver
    # combine skips the native sort-groupby's fixed all-to-all cost
    out = two_phase_agg(
        ds, partial, ["l_returnflag", "l_linestatus"],
        ["sum_qty_c", "sum_base_c", "sum_disc_price_e4", "n"],
        combine="driver",
    )
    for c in ["sum_qty_c", "sum_base_c", "sum_disc_price_e4", "n"]:
        out[c] = out[c].astype(np.int64)
    return out


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_c,
       CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_c,
       CAST(SUM(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) AS BIGINT) AS sum_disc_price_e4,
       COUNT(*) AS n
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""


def q_segment_revenue(sf_dir: str):
    """Broadcast hash join (customer dim -> orders fact) + aggregate.

    The dim side is broadcast as an ARROW TABLE (`ray.put` once, read
    zero-copy once per worker process) and joined with a vectorized
    pandas hash merge — not a Python dict + Series.map, whose per-key
    hashing and ~GBs of dict overhead fall over at dim cardinalities
    like sf100's 15M customers."""
    import ray

    cust = read_table_arrow(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    ref = ray.put(cust)

    class Join:
        def __init__(self):
            import ray as _r

            self.dim = _r.get(ref).to_pandas()

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            j = b.merge(self.dim, left_on="o_custkey", right_on="c_custkey",
                        how="inner")
            cents = np.round(j["o_totalprice"].to_numpy() * 100).astype(np.int64)
            g = (
                pd.DataFrame({"c_mktsegment": j["c_mktsegment"], "price_c": cents})
                .groupby("c_mktsegment", sort=False)
                .agg(revenue_c=("price_c", "sum"), n_orders=("price_c", "size"))
                .reset_index()
            )
            return g

    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    # 5 market segments -> each block collapses to <= 5 partial rows;
    # driver combine beats the native sort-groupby's fixed cost
    parts = knn.map_with_state(ds, f"segjoin/{ref.hex()}", Join, None,
                               batch_format="pandas").to_pandas()
    out = (
        parts.groupby("c_mktsegment", sort=True, as_index=False)[
            ["revenue_c", "n_orders"]
        ].sum()
    )
    out["revenue_c"] = out["revenue_c"].astype(np.int64)
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out


SQL_SEGMENT_REVENUE = """
SELECT c.c_mktsegment,
       CAST(SUM(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_c,
       COUNT(*) AS n_orders
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


def q_top_orders(sf_dir: str):
    """Global top-10 by price: per-block partial top-10 + a tiny driver
    merge of O(blocks x 10) rows (`agg.driver_page`) — never an
    all-to-all sort for a k=10 answer."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return agg.driver_page(ds, ["o_totalprice", "o_orderkey"], 10,
                           descending=("o_totalprice",))


SQL_TOP_ORDERS = """
SELECT o_orderkey, o_totalprice,
       row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rank
FROM orders ORDER BY rank LIMIT 10
"""


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window aggregate per user (stream-shaped op)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(
            hour=b["ts"].dt.floor("h"),
            value_c=np.round(b["value"].to_numpy() * 100).astype(np.int64),
        )
        return (
            b.groupby(["user_id", "hour"], sort=False)
            .agg(n=("value_c", "size"), sum_value_c=("value_c", "sum"))
            .reset_index()
        )

    from ..stages.agg import two_phase_agg

    # (user_id, hour) is an unbounded keyspace -> distributed combine
    out = two_phase_agg(ds, partial, ["user_id", "hour"], ["n", "sum_value_c"],
                        combine="shuffle")

    def cast(b: pd.DataFrame) -> pd.DataFrame:
        b["n"] = b["n"].astype(np.int64)
        b["sum_value_c"] = b["sum_value_c"].astype(np.int64)
        return b

    return out.map_batches(cast, batch_format="pandas")


SQL_EVENTS_WINDOW = """
SELECT user_id, date_trunc('hour', ts) AS hour, COUNT(*) AS n,
       CAST(SUM(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1, 2
"""


def q_events_sessionize(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — the
    stream-shaped op Ray Data expresses as an ordered per-key group
    (SURVEY.md §2.10 pattern; ordering: (ts, event_id) per user).

    Users are co-located by the bucket shuffle (`bucketed_group_apply`)
    and each bucket sessionizes ALL its users in one vectorized pass
    (sort + shift + cumsum with user boundaries) — no per-user task."""
    from ..stages.agg import bucketed_group_apply

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = (g["ts"].diff() > pd.Timedelta(minutes=30)) | new_user
        sid = gap.groupby(g["user_id"].to_numpy()).cumsum().astype(np.int64)
        out = (
            pd.DataFrame({"user_id": g["user_id"], "session_id": sid})
            .groupby(["user_id", "session_id"], sort=True)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return out

    return bucketed_group_apply(ds, ["user_id"], sessionize_bucket)


SQL_SESSIONIZE = """
WITH e AS (
  SELECT user_id, ts, event_id,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (SELECT user_id,
             SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) AS session_id
      FROM e)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id, COUNT(*) AS n
FROM s GROUP BY 1, 2
"""


def q_sample_hash(sf_dir: str):
    """Deterministic hash sampling (the reproducible train/eval split a
    training pipeline needs): keep rows where a Knuth multiplicative
    hash of the key lands under the rate cutoff — identical expression
    in SQL, stable across runs/processes, no RNG state."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey"])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        k = b["o_orderkey"].to_numpy(np.int64)
        h = (k * 2654435761) % 1000
        return b[h < 100][["o_orderkey"]]

    return ds.map_batches(keep, batch_format="pandas")


SQL_SAMPLE_HASH = """
SELECT o_orderkey FROM orders
WHERE (CAST(o_orderkey AS BIGINT) * 2654435761) % 1000 < 100
"""


COHORT_EPOCH = np.datetime64("2024-01-01")


def q_retention_cohorts(sf_dir: str):
    """RETENTION COHORT matrix: cohort_week = week of a user's first
    event (weeks since 2024-01-01, the event log's epoch), and for
    each (cohort_week, week_offset) the count of cohort users active
    that week.  The activity signal is deterministically hash-sampled
    purchases (10%) so the matrix is a real retention triangle, not a
    saturated grid.  Bucket-hash on user_id (each user's history lands
    in exactly one bucket, so per-bucket counts are disjoint partial
    sums), vectorized distinct + transform-min per bucket, then a
    bounded-key (weeks x weeks) driver combine."""
    from ..stages.agg import bucketed_group_apply, two_phase_agg

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def sample(b: pd.DataFrame) -> pd.DataFrame:
        h = (b["event_id"].to_numpy(np.int64) * 2654435761) % 1000
        keep = (b["event_type"] == "purchase") & (h < 100)
        return b.loc[keep, ["user_id", "ts"]]

    ds = ds.map_batches(sample, batch_format="pandas")

    def cohort_bucket(g: pd.DataFrame) -> pd.DataFrame:
        wk = (g["ts"].to_numpy("datetime64[D]") - COHORT_EPOCH
              ).astype(np.int64) // 7
        d = pd.DataFrame({"u": g["user_id"].to_numpy(np.int64),
                          "wk": wk}).drop_duplicates()
        first = d.groupby("u")["wk"].transform("min")
        out = pd.DataFrame({"cohort_week": first.to_numpy(np.int64),
                            "week_offset": (d["wk"] - first).to_numpy(np.int64)})
        return (out.groupby(["cohort_week", "week_offset"], sort=False,
                            as_index=False).size()
                   .rename(columns={"size": "n_users"}))

    partials = bucketed_group_apply(ds, ["user_id"], cohort_bucket)
    out = two_phase_agg(partials, lambda b: b,
                        ["cohort_week", "week_offset"], ["n_users"],
                        combine="driver")
    return out.astype(np.int64)


SQL_RETENTION = """
WITH e AS (SELECT user_id, ts FROM events
           WHERE event_type = 'purchase'
             AND (CAST(event_id AS BIGINT) * 2654435761) % 1000 < 100),
w AS (SELECT DISTINCT user_id,
             date_diff('day', DATE '2024-01-01', ts) // 7 AS wk
      FROM e),
f AS (SELECT user_id, MIN(wk) AS cohort FROM w GROUP BY 1)
SELECT CAST(f.cohort AS BIGINT) AS cohort_week,
       CAST(w.wk - f.cohort AS BIGINT) AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM w JOIN f ON f.user_id = w.user_id
GROUP BY 1, 2
"""


def q_pagerank(sf_dir: str):
    """Integer PageRank over the customer-supplier interaction graph:
    edges from the orders x lineitem keyed join (who bought from
    whom), symmetrized, node ids disambiguated by parity
    (customer*2, supplier*2+1); 3 deterministic integer power
    iterations (cluster.pagerank_int) — every float replaced by
    floor division so the SQL mirror is hash-exact."""
    import ray

    from ..stages.agg import bucketed_group_apply
    from ..stages.cluster import pagerank_int
    from ..stages.knn import cached_state

    # orders -> custkey is a sorted int64 map well inside the
    # broadcast budget: one searchsorted per lineitem batch replaces
    # the keyed hash join (the engine-wide small-side policy)
    ot = read_table_arrow(sf_dir, "orders",
                          columns=["o_orderkey", "o_custkey"])
    ok = np.asarray(ot["o_orderkey"].to_numpy(), dtype=np.int64)
    oc = np.asarray(ot["o_custkey"].to_numpy(), dtype=np.int64)
    order = np.argsort(ok, kind="stable")
    ref = ray.put((ok[order], oc[order]))

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        k, c = cached_state(f"pr-omap-{ref.hex()}", lambda: ray.get(ref))
        cust = c[np.searchsorted(k, b["l_orderkey"].to_numpy(np.int64))]
        cn = cust * 2
        sn = b["l_suppkey"].to_numpy(np.int64) * 2 + 1
        return pd.DataFrame({
            "src": np.concatenate([cn, sn]),
            "dst": np.concatenate([sn, cn]),
        }).drop_duplicates()

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey"])
    edges = bucketed_group_apply(
        li.map_batches(to_edges, batch_format="pandas"),
        ["src", "dst"], lambda g: g.drop_duplicates())
    return pagerank_int(edges, iterations=3)


def _sql_pagerank(iters: int = 3) -> str:
    head = """
WITH eraw AS (SELECT DISTINCT CAST(o_custkey AS BIGINT)*2 AS src,
                     CAST(l_suppkey AS BIGINT)*2 + 1 AS dst
              FROM orders JOIN lineitem ON l_orderkey = o_orderkey),
e AS (SELECT src, dst FROM eraw UNION SELECT dst, src FROM eraw),
nodes AS (SELECT DISTINCT src AS node FROM e),
deg AS (SELECT src, COUNT(*) AS d FROM e GROUP BY 1),
m0 AS (SELECT node, CAST(1000000 AS BIGINT) AS m FROM nodes)"""
    body = []
    for t in range(1, iters + 1):
        body.append(f"""
c{t} AS (SELECT e.dst AS node, SUM((m{t-1}.m * 85) // (100 * deg.d)) AS s
         FROM e JOIN m{t-1} ON m{t-1}.node = e.src
                JOIN deg ON deg.src = e.src GROUP BY 1),
m{t} AS (SELECT n.node, CAST(150000 + COALESCE(c{t}.s, 0) AS BIGINT) AS m
         FROM nodes n LEFT JOIN c{t} ON c{t}.node = n.node)""")
    return (head + "," + ",".join(body)
            + f"\nSELECT node, m AS mass FROM m{iters}")


SQL_PAGERANK = _sql_pagerank()


def q_dict_encode(sf_dir: str):
    """Categorical dictionary encoding of event_type (dense
    lexicographic-rank ids, agg.dictionary_encode) — the columnar
    re-expression of the reference's feature-tag encode (SURVEY M10;
    osm tag id maps).  Output: (event_id, event_type_id)."""
    from ..stages.agg import dictionary_encode

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type"])
    return dictionary_encode(ds, "event_type", "event_type_id",
                             id_cols=["event_id"])


SQL_DICT_ENCODE = """
WITH d AS (SELECT event_type,
                  CAST(dense_rank() OVER (ORDER BY event_type) - 1
                       AS BIGINT) AS event_type_id
           FROM (SELECT DISTINCT event_type FROM events))
SELECT e.event_id, d.event_type_id
FROM events e JOIN d ON d.event_type = e.event_type
"""


def q_source_mix_sample(sf_dir: str):
    """CORPUS MIXTURE REBALANCING (the source/language mixing step of
    a training-data pipeline): downsample every language stratum to
    the smallest stratum's size via DETERMINISTIC hash sampling.
    Acceptance rates are data-derived integers
    (ppm = min_count * 1e6 // count_lang, exactly mirrored in SQL);
    the per-stratum count is a bounded-key driver combine (languages,
    not documents), the rate map rides into one streaming hash-filter
    map — two scans, no shuffle of the corpus."""
    from ..stages.agg import two_phase_agg

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("lang", sort=False, as_index=False).size()
        return out.rename(columns={"size": "n"})

    counts = two_phase_agg(ds, partial, ["lang"], ["n"], combine="driver")
    mn = int(counts["n"].min())
    ppm = {l: (mn * 1_000_000) // int(n)
           for l, n in zip(counts["lang"], counts["n"])}

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        r = b["lang"].map(ppm).to_numpy(np.int64)
        h = (b["doc_id"].to_numpy(np.int64) * 2654435761) % 1_000_000
        return b[h < r][["doc_id", "lang"]]

    return ds.map_batches(keep, batch_format="pandas")


SQL_SOURCE_MIX = """
WITH c AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY 1),
r AS (SELECT lang, (m.mn * 1000000) // n AS ppm
      FROM c, (SELECT MIN(n) AS mn FROM c) m)
SELECT d.doc_id, d.lang FROM documents d JOIN r ON r.lang = d.lang
WHERE (CAST(d.doc_id AS BIGINT) * 2654435761) % 1000000 < r.ppm
"""


def q_grouped_quantiles(sf_dir: str):
    """EXACT distributed quantiles per group via mergeable integer
    histograms: per-batch (group, value-in-cents) partial counts ->
    bucket-hash combine -> per-group cumulative cut at
    ceil(q*n) (percentile_disc semantics).  Exact because the value
    domain is integer cents — the histogram IS the sorted multiset;
    shuffle volume is O(distinct (group, cent) pairs), never the rows.
    The same shape with fixed-width bins is the approximate-quantile
    path for unbounded domains."""
    from ..stages.agg import two_phase_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        c = np.round(b["value"].to_numpy() * 100).astype(np.int64)
        return (
            pd.DataFrame({"event_type": b["event_type"], "value_c": c})
            .groupby(["event_type", "value_c"], sort=False)
            .size().reset_index(name="n")
        )

    from ..stages.agg import quantile_disc_from_histogram

    hist = two_phase_agg(ds, partial, ["event_type", "value_c"], ["n"],
                         combine="shuffle").to_pandas()
    # finalize: histogram is O(groups x distinct cents) — driver-sized
    rows = []
    for et, g in hist.groupby("event_type", sort=True):
        g = g.sort_values("value_c", kind="mergesort")
        total = int(g["n"].sum())
        for q in (0.25, 0.5, 0.9):
            v = int(quantile_disc_from_histogram(
                g["value_c"].to_numpy(), g["n"].to_numpy(), q))
            rows.append((et, q, v, total))
    out = pd.DataFrame(rows, columns=["event_type", "q", "value_c", "n_rows"])
    out["value_c"] = out["value_c"].astype(np.int64)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    return out


SQL_GROUPED_QUANTILES = """
WITH v AS (SELECT event_type,
                  CAST(round(value*100) AS BIGINT) AS value_c
           FROM events),
a AS (SELECT event_type, COUNT(*) AS n_rows,
             quantile_disc(value_c, 0.25) AS q25,
             quantile_disc(value_c, 0.50) AS q50,
             quantile_disc(value_c, 0.90) AS q90
      FROM v GROUP BY 1)
SELECT event_type, 0.25 AS q, CAST(q25 AS BIGINT) AS value_c, n_rows FROM a
UNION ALL
SELECT event_type, 0.50 AS q, CAST(q50 AS BIGINT) AS value_c, n_rows FROM a
UNION ALL
SELECT event_type, 0.90 AS q, CAST(q90 AS BIGINT) AS value_c, n_rows FROM a
"""


def q_events_asof(sf_dir: str):
    """Backward AS-OF join on the event log: each purchase matched to
    the user's latest prior click (bucket-hash on user_id + one
    vectorized merge_asof per bucket), vs DuckDB's native ASOF JOIN.
    Lag emitted as integer microseconds (hash-exact)."""
    from ..stages.agg import asof_join_tagged

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])
    out = asof_join_tagged(ds, key="user_id", ts_col="ts",
                           side_col="event_type", left_val="purchase",
                           right_val="click", right_cols=["event_id", "ts"])

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"event_id_r": "click_event_id",
                              "ts_r": "click_ts"})
        lag = (b["ts"].to_numpy("datetime64[us]")
               - b["click_ts"].to_numpy("datetime64[us]"))
        b["lag_us"] = lag.astype("timedelta64[us]").astype(np.int64)
        b["click_event_id"] = b["click_event_id"].astype(np.int64)
        return b[["event_id", "user_id", "ts", "click_event_id",
                  "click_ts", "lag_us"]]

    return out.map_batches(finish, batch_format="pandas")


SQL_EVENTS_ASOF = """
WITH p AS (SELECT event_id, user_id, ts FROM events
           WHERE event_type = 'purchase'),
c AS (SELECT event_id AS click_event_id, user_id, ts AS click_ts
      FROM events WHERE event_type = 'click')
SELECT p.event_id, p.user_id, p.ts, c.click_event_id, c.click_ts,
       CAST(date_diff('microsecond', c.click_ts, p.ts) AS BIGINT) AS lag_us
FROM p ASOF JOIN c ON p.user_id = c.user_id AND p.ts >= c.click_ts
"""


FUNNEL_STEPS = ["view", "click", "purchase"]
FUNNEL_HORIZON_US = 86_400_000_000  # 24 h per consecutive step


def q_events_funnel(sf_dir: str):
    """FUNNEL analysis (earliest-anchor greedy matching, the classic
    product-analytics semantics): per user, t1 = earliest 'view',
    t2 = earliest 'click' in (t1, t1+24h], t3 = earliest 'purchase'
    in (t2, t2+24h]; output (user_id, steps_completed in 0..3).
    Bucket-hash on user_id; inside a bucket each funnel step is ONE
    vectorized map-prev + filter + groupby-min — no per-user Python
    (agg.funnel_steps).  The keyed sequential-pattern analogue of the
    geofence transition matrix (fence_index.go:50-73)."""
    from ..stages.agg import funnel_steps

    ds = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "event_type"])
    return funnel_steps(ds, key="user_id", ts_col="ts",
                        type_col="event_type", steps=FUNNEL_STEPS,
                        horizon_us=FUNNEL_HORIZON_US)


SQL_EVENTS_FUNNEL = f"""
WITH s1 AS (SELECT user_id, MIN(ts) AS t1 FROM events
            WHERE event_type = '{FUNNEL_STEPS[0]}' GROUP BY 1),
s2 AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
       JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = '{FUNNEL_STEPS[1]}' AND e.ts > s1.t1
         AND e.ts <= s1.t1 + to_microseconds({FUNNEL_HORIZON_US})
       GROUP BY 1),
s3 AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
       JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = '{FUNNEL_STEPS[2]}' AND e.ts > s2.t2
         AND e.ts <= s2.t2 + to_microseconds({FUNNEL_HORIZON_US})
       GROUP BY 1)
SELECT u.user_id,
       CAST(CASE WHEN s3.t3 IS NOT NULL THEN 3
                 WHEN s2.t2 IS NOT NULL THEN 2
                 WHEN s1.t1 IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
           AS steps_completed
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN s1 ON s1.user_id = u.user_id
LEFT JOIN s2 ON s2.user_id = u.user_id
LEFT JOIN s3 ON s3.user_id = u.user_id
"""


def q_distance_join(sf_dir: str):
    """All-pairs spatial θ-join: every customer pair within 200 km,
    with NO broadcast side — cell-partitioned home/ghost replication +
    vectorized per-bucket merge (stages/knn.distance_self_join).  The
    symmetric generalization of the R-tree range search
    (rtree.go:553-580); dist emitted rounded to 6 (same formula text
    both sides)."""
    ds = read_table(sf_dir, "customer", columns=["c_custkey"])

    def derive(b: pa.Table) -> pa.Table:
        b = tiling.derive_key_latlon("c_custkey")(b)
        return b.rename_columns(["point_id", "lat", "lon"])

    pts = ds.map_batches(derive, batch_format="pyarrow")
    out = knn.distance_self_join(pts, radius_km=200.0, res=TILE_RES)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b["dist_km"] = np.round(b["dist_km"], 6)
        return b

    return out.map_batches(finish, batch_format="pandas")


SQL_DISTANCE_JOIN = f"""
WITH p AS (SELECT CAST(c_custkey AS BIGINT) AS id,
                  {sql_lat('c_custkey')} AS lat, {sql_lon('c_custkey')} AS lon
           FROM customer)
SELECT a.id AS id_a, b.id AS id_b,
       round({sql_haversine('a.lat', 'a.lon', 'b.lat', 'b.lon')}, 6) AS dist_km
FROM p a JOIN p b ON a.id < b.id
WHERE {sql_haversine('a.lat', 'a.lon', 'b.lat', 'b.lon')} <= 200.0
"""


def q_dbscan(sf_dir: str):
    """Grid DBSCAN (eps=200 km, minpts=5) over customer-derived
    points: eps-pairs via the cell home/ghost self-join, two-phase
    degree count, distributed CC over core-core edges, deterministic
    border assignment (MIN adjacent core's cluster).  The density
    generalization of the reference's range search
    (rtree.go:553-580); cluster_id = component-min core id."""
    from ..stages.cluster import dbscan

    ds = read_table(sf_dir, "customer", columns=["c_custkey"])

    def derive(b: pa.Table) -> pa.Table:
        b = tiling.derive_key_latlon("c_custkey")(b)
        return b.rename_columns(["point_id", "lat", "lon"])

    pts = ds.map_batches(derive, batch_format="pyarrow")
    out = dbscan(pts, eps_km=200.0, minpts=5, res=TILE_RES)
    # at small sf no cell reaches minpts -> all-empty result loses its
    # schema in Ray; return the typed empty frame instead
    return _typed_or_empty(
        out, {"point_id": "int64", "cluster_id": "int64",
              "is_core": "int64"})


SQL_DBSCAN = f"""
WITH RECURSIVE
p AS (SELECT CAST(c_custkey AS BIGINT) AS id,
             {sql_lat('c_custkey')} AS lat, {sql_lon('c_custkey')} AS lon
      FROM customer),
e AS (SELECT a.id AS id_a, b.id AS id_b FROM p a JOIN p b ON a.id < b.id
      WHERE {sql_haversine('a.lat', 'a.lon', 'b.lat', 'b.lon')} <= 200.0),
bi AS (SELECT id_a AS a, id_b AS b FROM e
       UNION ALL SELECT id_b, id_a FROM e),
deg AS (SELECT a AS id, COUNT(*) AS n FROM bi GROUP BY 1),
core AS (SELECT id FROM deg WHERE n >= 4),
ced AS (SELECT a, b FROM bi
        WHERE a IN (SELECT id FROM core) AND b IN (SELECT id FROM core)),
walk(node, reach) AS (
  SELECT id, id FROM core
  UNION
  SELECT w.node, d.b FROM walk w JOIN ced d ON d.a = w.reach
),
lab AS (SELECT node, MIN(reach) AS cluster_id FROM walk GROUP BY node),
borders AS (SELECT bi.a AS node, MIN(l.cluster_id) AS cluster_id
            FROM bi JOIN lab l ON l.node = bi.b
            WHERE bi.a NOT IN (SELECT id FROM core) GROUP BY 1)
SELECT CAST(node AS BIGINT) AS point_id,
       CAST(cluster_id AS BIGINT) AS cluster_id,
       CAST(1 AS BIGINT) AS is_core
FROM lab
UNION ALL
SELECT node, cluster_id, CAST(0 AS BIGINT) FROM borders
"""


def q_heavy_hitters(sf_dir: str):
    """EXACT frequent terms (count >= 200) via a Count-Min sketch:
    per-block CM partials tree-SUM-merged (the only global state is
    the fixed d x w counter matrix), broadcast back, per-batch
    CM-estimate filter (overestimate -> zero false negatives), exact
    two-phase recount of the surviving tiny key set.  The vocabulary
    itself is never shuffled — the 100-TB path for term stats."""
    from ..stages.sketch import heavy_hitters

    ds = read_table(sf_dir, "documents", columns=["text"])
    out = heavy_hitters(ds, "text", threshold=200)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b["n"] = b["n"].astype(np.int64)
        return b

    return out.map_batches(finish, batch_format="pandas")


SQL_HEAVY_HITTERS = f"""
SELECT t.term, CAST(COUNT(*) AS BIGINT) AS n
FROM documents d, unnest({TOK}) AS t(term)
GROUP BY 1 HAVING COUNT(*) >= 200
"""


def q_bloom_semijoin(sf_dir: str):
    """EXACT semi-join with a Bloom pre-filter: lineitem rows whose
    order is 1-URGENT, aggregated per returnflag.  The key side builds
    a tree-merged Bloom bitmap (broadcast once per worker process);
    the probe side drops ~80% of its rows vectorized BEFORE the exact
    left_semi hash join — the 100-TB pattern for keeping a semi-join
    from shuffling the full probe table.  Exactness restored by the
    verify join, so the SQL oracle is a plain IN-subquery."""
    from ..stages.agg import two_phase_agg
    from ..stages.sketch import bloom_semi_join

    import pyarrow.parquet as pq

    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderpriority"])
    urgent = orders.map_batches(
        lambda b: b[b["o_orderpriority"] == "1-URGENT"][["o_orderkey"]],
        batch_format="pandas")
    # metadata-derived key-count hint (5 priorities, uniform-ish): at
    # scale this comes from table stats, never a counting pre-pass
    n_hint = max(64, pq.ParquetFile(
        f"{sf_dir}/orders.parquet").metadata.num_rows // 5)

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_returnflag", "l_extendedprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"],
            "l_returnflag": b["l_returnflag"],
            "price_c": np.round(
                b["l_extendedprice"].to_numpy() * 100).astype(np.int64),
        })

    probe = li.map_batches(prep, batch_format="pandas")
    sj = bloom_semi_join(probe, urgent, "l_orderkey", "o_orderkey",
                         n_keys_hint=n_hint)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("l_returnflag", sort=False)
            .agg(n_rows=("price_c", "size"), sum_price_c=("price_c", "sum"))
            .reset_index()
        )

    out = two_phase_agg(sj, partial, ["l_returnflag"],
                        ["n_rows", "sum_price_c"], combine="driver")
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["sum_price_c"] = out["sum_price_c"].astype(np.int64)
    return out


SQL_BLOOM_SEMIJOIN = """
SELECT l_returnflag, COUNT(*) AS n_rows,
       CAST(SUM(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT)
         AS sum_price_c
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')
GROUP BY 1
"""


def q_range_join(sf_dir: str):
    """RANGE (interval-containment) JOIN with no equi-key: events
    joined to 25 overlapping promo windows derived from the nation
    table (window k = [epoch + 30h*k, +72h)), aggregated to per-window
    event count + integer-cent value sum.  Exercises the distributed
    bucketized interval join (interval replicated per day-bucket,
    native hash join on bucket, exact containment filter) — the 1-D
    analogue of the R-tree range search (rtree.go:553-580)."""
    from ..stages.agg import interval_join, two_phase_agg

    EPOCH = np.datetime64("2024-01-01", "us").astype(np.int64)
    H_US = 3_600_000_000

    ev = read_table(sf_dir, "events", columns=["event_id", "ts", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"],
            "ts": b["ts"],
            "value_c": np.round(b["value"].to_numpy() * 100).astype(np.int64),
        })

    pts = ev.map_batches(prep, batch_format="pandas")

    na = read_table(sf_dir, "nation", columns=["n_nationkey"])

    def mk_iv(b: pd.DataFrame) -> pd.DataFrame:
        k = b["n_nationkey"].to_numpy(np.int64)
        t0 = EPOCH + k * 30 * H_US
        return pd.DataFrame({"interval_id": k, "t0": t0, "t1": t0 + 72 * H_US})

    iv = na.map_batches(mk_iv, batch_format="pandas")
    joined = interval_join(pts, iv, "ts", "t0", "t1",
                           bucket_us=86_400_000_000)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("interval_id", sort=False)
            .agg(n_events=("value_c", "size"), sum_value_c=("value_c", "sum"))
            .reset_index()
        )

    out = two_phase_agg(joined, partial, ["interval_id"],
                        ["n_events", "sum_value_c"], combine="driver")
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


SQL_RANGE_JOIN = """
WITH iv AS (SELECT n_nationkey AS interval_id,
                   TIMESTAMP '2024-01-01' + n_nationkey * INTERVAL 30 HOUR AS t0,
                   TIMESTAMP '2024-01-01' + n_nationkey * INTERVAL 30 HOUR
                     + INTERVAL 72 HOUR AS t1
            FROM nation)
SELECT iv.interval_id, COUNT(*) AS n_events,
       CAST(SUM(CAST(round(e.value*100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events e JOIN iv ON e.ts >= iv.t0 AND e.ts < iv.t1
GROUP BY 1
"""


def q_event_type_users(sf_dir: str):
    """COUNT DISTINCT, fully distributed: per-batch distinct pairs ->
    bucket shuffle on the pair key (`bucketed_group_apply`; every pair
    lands in exactly one bucket) -> per-bucket vectorized distinct +
    partial counts -> tiny 5-key sum.  Nothing unbounded ever lands on
    the driver (the pair space is O(users x types))."""
    from ..stages.agg import bucketed_group_apply, two_phase_agg

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    pairs = ds.map_batches(lambda b: b.drop_duplicates(), batch_format="pandas")

    def distinct_partial(g: pd.DataFrame) -> pd.DataFrame:
        vc = g.drop_duplicates()["event_type"].value_counts()
        return pd.DataFrame({"event_type": vc.index,
                             "n_users": vc.to_numpy(np.int64)})

    partials = bucketed_group_apply(pairs, ["event_type", "user_id"],
                                    distinct_partial)
    out = two_phase_agg(partials, lambda b: b, ["event_type"], ["n_users"],
                        combine="shuffle")
    return out.map_batches(
        lambda b: b.assign(n_users=b["n_users"].astype(np.int64)),
        batch_format="pandas",
    )


SQL_EVENT_TYPE_USERS = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
"""


def q_events_sliding(sf_dir: str):
    """Sliding 1-hour windows hopping every 30 min: each event lands in
    exactly two windows (its 30-min floor and the one before), exploded
    per batch then bucket-hash combined — the hop generalization of the
    tumbling q_events_window."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        w0 = b["ts"].dt.floor("30min")
        frames = []
        for w in (w0, w0 - pd.Timedelta(minutes=30)):
            frames.append(pd.DataFrame({
                "user_id": b["user_id"],
                "window_start": w,
                "value_c": np.round(b["value"].to_numpy() * 100).astype(np.int64),
            }))
        e = pd.concat(frames, ignore_index=True)
        return (
            e.groupby(["user_id", "window_start"], sort=False)
            .agg(n=("value_c", "size"), sum_value_c=("value_c", "sum"))
            .reset_index()
        )

    from ..stages.agg import two_phase_agg

    out = two_phase_agg(ds, partial, ["user_id", "window_start"],
                        ["n", "sum_value_c"], combine="shuffle")

    def cast(b: pd.DataFrame) -> pd.DataFrame:
        b["n"] = b["n"].astype(np.int64)
        b["sum_value_c"] = b["sum_value_c"].astype(np.int64)
        return b

    return out.map_batches(cast, batch_format="pandas")


SQL_EVENTS_SLIDING = """
WITH w0 AS (SELECT user_id,
                   to_timestamp(CAST(floor(epoch(ts)/1800)*1800 AS BIGINT))
                     AT TIME ZONE 'UTC' AS w,
                   CAST(round(value*100) AS BIGINT) AS value_c
            FROM events),
e AS (SELECT user_id, w AS window_start, value_c FROM w0
      UNION ALL
      SELECT user_id, w - INTERVAL 30 MINUTE, value_c FROM w0)
SELECT user_id, window_start, COUNT(*) AS n,
       CAST(SUM(value_c) AS BIGINT) AS sum_value_c
FROM e GROUP BY 1, 2
"""


def q_grouped_topn(sf_dir: str):
    """Per-group top-N without a global sort: per-batch partial top-5
    per event_type -> driver merge of O(blocks * groups * 5) rows (the
    event types are a bounded key space) -> final top-5."""
    ds = read_table(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def value_c(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"], "event_id": b["event_id"],
            "value_c": np.round(b["value"].to_numpy() * 100).astype(np.int64)})

    return agg.driver_page(ds.map_batches(value_c, batch_format="pandas"),
                           ["value_c", "event_id"], 5, key="event_type",
                           descending=("value_c",))


SQL_GROUPED_TOPN = """
WITH r AS (SELECT event_type, event_id,
                  CAST(round(value*100) AS BIGINT) AS value_c,
                  row_number() OVER (PARTITION BY event_type
                                     ORDER BY CAST(round(value*100) AS BIGINT) DESC,
                                              event_id) AS rank
           FROM events)
SELECT event_type, event_id, value_c, rank FROM r WHERE rank <= 5
"""


def q_event_type_users_hll(sf_dir: str):
    """Approximate COUNT DISTINCT via mergeable HyperLogLog sketches
    (stages/sketch.py) — the bounded-memory path when the exact
    distinct-pair shuffle (q_event_type_users) is unaffordable.
    Rows-only by design: the estimate is approximate (~1.6% at p=12),
    so no value-hash oracle can exist; accuracy is pytest-bounded
    against the exact counts (tests/test_text.py)."""
    from ..stages.sketch import approx_count_distinct

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])
    return approx_count_distinct(ds, ["event_type"], "user_id", p=12)


def q_value_quantiles_kll(sf_dir: str):
    """Approximate per-event-type value quantiles via mergeable KLL
    sketches (Karnin-Lang-Liberty 2016; stages/sketch.KLL) — the
    bounded-memory quantile path for CONTINUOUS value domains, where
    the exact mergeable-integer-histogram plan (grouped_quantiles)
    cannot apply.  Rows-only by design (approximate); rank error is
    pytest-bounded against exact quantiles (tests/test_kll.py)."""
    from ..stages.sketch import grouped_quantiles_sketch

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles_sketch(ds, ["event_type"], "value")


def q_event_type_counts(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        read_table(sf_dir, "events", columns=["event_type"])
        .groupby("event_type")
        .aggregate(Count(alias_name="n"))
    )


SQL_EVENT_TYPE_COUNTS = "SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1"


def q_knn_cell(sf_dir: str):
    """J8 scale path: cell-partitioned kNN (both sides shuffled on the
    grid cell instead of broadcasting the query side)."""
    sup = supplier_queries(sf_dir, k=5, radius=1500.0)
    import ray.data as rd

    queries_ds = rd.from_arrow(sup)
    out = knn.knn_cell_join(
        orders_points(sf_dir), queries_ds, radius_km=1500.0, k=5, res=5
    ).to_pandas()
    out = out[["query_id", "rank", "point_id", "dist_km"]]
    out["query_id"] = out["query_id"].astype(np.int64)
    out["point_id"] = out["point_id"].astype(np.int64)
    return _round6(out, ["dist_km"])


SQL_KNN_CELL = _sql_knn(
    f"WHERE {sql_haversine('q.lat', 'q.lon', 'p.lat', 'p.lon')} <= 1500.0",
    5, 0, "s_suppkey*13+7",
)


def q_full_address(sf_dir: str):
    """M12 full-address assembly: nearest street (J2) + containing
    region (J3) composed into an address string."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])

    def derive(b: pa.Table) -> pa.Table:
        b = tiling.derive_key_latlon("c_custkey")(b)
        b = tiling.assign_tiles(TILE_RES)(b)
        return b.rename_columns(["point_id", "lat", "lon", "tile_id"])

    pts = cust.map_batches(derive, batch_format="pyarrow")
    with_street = knn.reverse_geocode(pts, nation_segments(sf_dir))
    with_region = pip.pip_join(with_street, nation_rects(sf_dir),
                               attach_meta=False)

    def assemble(b: pa.Table) -> pa.Table:
        addr = [
            f"street-{s}, region-{p}"
            for s, p in zip(b["street_id"].to_pylist(), b["polygon_id"].to_pylist())
        ]
        return pa.table(
            {
                "point_id": b["point_id"],
                "street_id": b["street_id"],
                "polygon_id": b["polygon_id"],
                "full_address": pa.array(addr, pa.string()),
            }
        )

    return with_region.map_batches(assemble, batch_format="pyarrow")


SQL_FULL_ADDRESS = f"""
WITH p AS (SELECT CAST(c_custkey AS BIGINT) AS point_id,
                  {sql_lat('c_custkey')} AS lat, {sql_lon('c_custkey')} AS lon
           FROM customer),
s AS (SELECT CAST(n_nationkey AS BIGINT) AS street_id,
             {sql_lat('n_nationkey*31+11')} AS alat, {sql_lon('n_nationkey*31+11')} AS alon,
             {sql_lat('n_nationkey*31+12')} AS blat, {sql_lon('n_nationkey*31+12')} AS blon
      FROM nation),
{sql_gc_project_ctes('p.point_id')},
nearest AS (SELECT point_id, street_id, lat, lon,
                   row_number() OVER (PARTITION BY point_id
                                      ORDER BY {sql_haversine('lat', 'lon', 'plat', 'plon')}, street_id) AS rn
            FROM pr),
r AS ({SQL_NATION_RECTS}),
reg AS (SELECT n.point_id, n.street_id, MIN(r.polygon_id) AS polygon_id
        FROM nearest n JOIN r ON n.lat BETWEEN r.lat0 AND r.lat1
                              AND n.lon BETWEEN r.lon0 AND r.lon1
        WHERE n.rn = 1 GROUP BY 1, 2)
SELECT point_id, street_id, polygon_id,
       'street-' || CAST(street_id AS VARCHAR) || ', region-' ||
       CAST(polygon_id AS VARCHAR) AS full_address
FROM reg
"""


def q_boolean_and(sf_dir: str):
    """J5/D1 posting intersection: docs containing ALL query terms."""
    from . import search

    return search.boolean_and(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        ["hash", "scan"],
    )


SQL_BOOLEAN_AND = f"""
SELECT doc_id FROM documents
WHERE list_contains({TOK}, 'hash') AND list_contains({TOK}, 'scan')
"""


def q_boolean_or(sf_dir: str):
    """D2 OR (engine-canonical completion of boolean_query.go:135-141)."""
    from . import search

    return search.boolean_or(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        ["hash", "scan"],
    )


SQL_BOOLEAN_OR = f"""
SELECT doc_id FROM documents
WHERE list_contains({TOK}, 'hash') OR list_contains({TOK}, 'scan')
"""


def q_boolean_and_not(sf_dir: str):
    """D2 AND-NOT (engine-canonical completion)."""
    from . import search

    return search.boolean_and_not(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        ["hash", "merge"], ["scan"],
    )


SQL_BOOLEAN_AND_NOT = f"""
SELECT doc_id FROM documents
WHERE list_contains({TOK}, 'hash') AND list_contains({TOK}, 'merge')
  AND NOT list_contains({TOK}, 'scan')
"""


def q_knn_cell_unbounded(sf_dir: str):
    """K3 unbounded incremental kNN via iterative ring expansion
    (knn_cell_join_unbounded; reference rtree.go:685-723) — no radius
    bound, matched against the plain brute-force SQL kNN."""
    import ray.data as rd

    queries_ds = rd.from_arrow(supplier_queries(sf_dir, k=5))
    out = knn.knn_cell_join_unbounded(
        orders_points(sf_dir), queries_ds, k=5, res=5
    ).to_pandas()
    out = out[["query_id", "rank", "point_id", "dist_km"]]
    out["query_id"] = out["query_id"].astype(np.int64)
    out["point_id"] = out["point_id"].astype(np.int64)
    return _round6(out, ["dist_km"])


SQL_KNN_CELL_UNBOUNDED = _sql_knn("", 5, 0, "s_suppkey*13+7")


# ---------------------------------------------------------------------------
# rows-only queries (no SQL equivalent)


def _corrector(sf_dir: str):
    from .. import synth
    from ..stages import spell as spell_stage

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return spell_stage.build_spell_corrector(
        docs, synth.spell_errors_lines(), min_freq=2
    )


def q_search_fulltext(sf_dir: str):
    """Q1 end-to-end: misspelled queries -> spell-corrected BM25F top-k."""
    from . import search

    corrector = _corrector(sf_dir)
    factory = lambda: read_table(sf_dir, "documents", columns=["doc_id", "text"])
    qs = pd.DataFrame(
        {"query_id": [0, 1], "query": ["hsah merge", "scann tabel"]}
    )
    out = search.full_text_search(factory, qs, corrector, k=10)
    return _round6(out, ["score"])


def q_autocomplete(sf_dir: str):
    """Q2 end-to-end: prefix autocomplete -> candidate queries -> fan-in."""
    from . import search

    corrector = _corrector(sf_dir)
    factory = lambda: read_table(sf_dir, "documents", columns=["doc_id", "text"])
    qs = pd.DataFrame({"query_id": [0], "query": ["hash mer"]})
    out = search.autocomplete(factory, qs, corrector, k=10)
    return _round6(out, ["score"])


# The end-to-end search oracles PIN the deterministic correction the
# spell model produces on this corpus ('hsah merge' -> 'hash merge',
# 'scann tabel' -> 'scan table'; autocomplete 'hash mer' -> the single
# candidate 'hash merge' since 'merge' is the only vocab word with that
# prefix): the SQL replays the post-correction BM25F page, so a silent
# behavior change in the corrector OR the scorer hash-mismatches.
SQL_SEARCH_FULLTEXT = f"""
SELECT CAST(0 AS BIGINT) AS query_id, 'hash merge' AS corrected,
       rank, doc_id, score
FROM ({_sql_bm25f(["hash", "merge"])})
UNION ALL
SELECT CAST(1 AS BIGINT), 'scan table', rank, doc_id, score
FROM ({_sql_bm25f(["scan", "table"])})
"""

SQL_AUTOCOMPLETE = f"""
SELECT CAST(0 AS BIGINT) AS query_id, 'hash merge' AS candidate_query,
       rank, doc_id, score
FROM ({_sql_bm25f(["hash", "merge"])})
"""


def q_simhash_signatures(sf_dir: str):
    return dedup.simhash_signatures(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    )


def _sql_simhash() -> str:
    """Bit-exact SQL mirror of dedup.simhash_signatures: md5-derived
    64-bit token hashes (little-endian first 8 digest bytes, decoded
    from the hex string via strpos), tf-weighted per-bit votes, int64
    two's-complement pack."""
    hexv = "strpos('0123456789abcdef', {c}) - 1"
    hi = hexv.format(c="substr(hx, (u.k // 8) * 2 + 1, 1)")
    lo = hexv.format(c="substr(hx, (u.k // 8) * 2 + 2, 1)")
    return f"""
WITH tf AS (SELECT d.doc_id, t.term, COUNT(*) AS c
            FROM documents d, unnest({TOK}) AS t(term) GROUP BY 1, 2),
hx AS (SELECT doc_id, term, c, md5(term) AS hx FROM tf),
bits AS (SELECT doc_id, u.k AS k,
                ((({hi}) * 16 + ({lo})) >> (u.k % 8)) & 1 AS bit, c
         FROM hx, unnest(range(0, 64)) AS u(k)),
acc AS (SELECT doc_id, k,
               SUM(CASE WHEN bit = 1 THEN c ELSE -c END) AS a
        FROM bits GROUP BY 1, 2),
sig AS (SELECT doc_id, k, CASE WHEN a > 0 THEN 1 ELSE 0 END AS b FROM acc)
SELECT doc_id,
       CAST(SUM(CASE WHEN k < 63
                     THEN b * (CAST(1 AS BIGINT) << CAST(k AS INTEGER))
                     ELSE 0 END)
            - SUM(CASE WHEN k = 63 THEN b ELSE 0 END) * 9223372036854775807
            - SUM(CASE WHEN k = 63 THEN b ELSE 0 END) AS BIGINT) AS simhash
FROM sig GROUP BY doc_id
"""


SQL_SIMHASH = _sql_simhash()


def _key_images(sf_dir: str, table: str, key_col: str):
    """REAL-PNG image rows derived from a parquet table's int keys
    (synth.images_from_keys pixel math is SQL-mirrorable)."""
    from .. import synth

    keys = read_table(sf_dir, table, columns=[key_col])
    return keys.map_batches(
        lambda b: synth.images_from_keys(b[key_col].to_numpy()),
        batch_format="pyarrow",
    )


SQL_IMG_ID = "'img' || lpad(CAST(k AS VARCHAR), 10, '0')"
SQL_IMG_PX = """
  SELECT CAST(p_partkey AS BIGINT) AS k, ux.x AS x, uy.y AS y,
         (CAST(p_partkey AS BIGINT)*3 + ux.x*7  + uy.y*11) % 256 AS r,
         (CAST(p_partkey AS BIGINT)*5 + ux.x*13 + uy.y*3 ) % 256 AS g,
         (CAST(p_partkey AS BIGINT)*7 + ux.x*11 + uy.y*5 ) % 256 AS b
  FROM part, unnest(range(0, 8)) AS ux(x), unnest(range(0, 8)) AS uy(y)
"""


def q_image_decode_stats(sf_dir: str):
    """Multimodal decode proof: key-derived REAL PNG payloads decoded
    through the codec in stateless tasks; integer per-channel pixel
    sums hash-match a pure-SQL pixel-math oracle that never decodes."""
    from ..stages import images

    return knn.map_with_state(
        _key_images(sf_dir, "part", "p_partkey"), "q/decodesums",
        images.DecodeSums, 1024)


SQL_IMAGE_DECODE_STATS = f"""
WITH px AS ({SQL_IMG_PX})
SELECT {SQL_IMG_ID} AS image_id,
       CAST(SUM(r) AS BIGINT) AS sum_r,
       CAST(SUM(g) AS BIGINT) AS sum_g,
       CAST(SUM(b) AS BIGINT) AS sum_b
FROM px GROUP BY 1
"""


def q_image_ahash(sf_dir: str):
    """Integer-exact average hash: decode -> (r+g+b) grid -> threshold
    64*cell > total -> little-endian int64 bit pack (two's complement),
    mirrored bit-for-bit in SQL."""
    from ..stages import images

    out = knn.map_with_state(
        _key_images(sf_dir, "part", "p_partkey"), "q/ahashint",
        images.AverageHashInt, 1024)
    return out.select_columns(["image_id", "ahash_int"])


SQL_IMAGE_AHASH = f"""
WITH px AS ({SQL_IMG_PX}),
g3 AS (SELECT k, y*8 + x AS idx, r + g + b AS v FROM px),
tot AS (SELECT k, SUM(v) AS total FROM g3 GROUP BY k),
bits AS (SELECT g3.k, g3.idx,
                CASE WHEN 64*g3.v > t.total THEN 1 ELSE 0 END AS b
         FROM g3 JOIN tot t ON t.k = g3.k)
SELECT {SQL_IMG_ID} AS image_id,
       CAST(SUM(CASE WHEN idx < 63
                     THEN b * (CAST(1 AS BIGINT) << CAST(idx AS INTEGER))
                     ELSE 0 END)
            - SUM(CASE WHEN idx = 63 THEN b ELSE 0 END) * 9223372036854775807
            - SUM(CASE WHEN idx = 63 THEN b ELSE 0 END) AS BIGINT) AS ahash_int
FROM bits GROUP BY 1
"""


def q_image_edge_energy(sf_dir: str):
    """Integer gradient-energy sharpness metric per image
    (images.EdgeEnergy): decode -> channel-sum plane -> sum |Δx|+|Δy|;
    the blur/quality gate of a multimodal pipeline, mirrored in SQL
    over the same pixel math with self-joins on shifted coordinates."""
    from ..stages import images

    out = knn.map_with_state(
        _key_images(sf_dir, "part", "p_partkey"), "q/edgeenergy",
        images.EdgeEnergy, 1024)
    return out.select_columns(["image_id", "edge_energy"])


SQL_IMAGE_EDGE_ENERGY = f"""
WITH px AS ({SQL_IMG_PX}),
s AS (SELECT k, x, y, r + g + b AS v FROM px),
dx AS (SELECT a.k, SUM(ABS(b.v - a.v)) AS e FROM s a
       JOIN s b ON b.k = a.k AND b.y = a.y AND b.x = a.x + 1 GROUP BY 1),
dy AS (SELECT a.k, SUM(ABS(b.v - a.v)) AS e FROM s a
       JOIN s b ON b.k = a.k AND b.x = a.x AND b.y = a.y + 1 GROUP BY 1)
SELECT {SQL_IMG_ID} AS image_id, CAST(dx.e + dy.e AS BIGINT) AS edge_energy
FROM dx JOIN dy USING (k)
"""


def q_phash_near_pairs(sf_dir: str):
    """Image near-dup pairs by perceptual-hash Hamming distance at
    DISTINCT-SIGNATURE granularity — the scale-honest shape: exact-dup
    clusters collapse FIRST (bucket-hash combine on the 64-bit ahash:
    count + min image_id per signature, so the giant identical-image
    clusters a web corpus always has never reach pair emission), then
    banded LSH over the distinct signatures (8 bands of 8 bits — EXACT
    for hamming <= 7 by pigeonhole) with XOR-popcount verify
    (stages/dedup.hamming_dup_pairs).  The image-payload analogue of
    the reference's name+location dedup (indexer.go:582-618).  All-int
    output: (id_a, id_b, hamming, n_a, n_b), ids = each cluster's min
    image_id, pairs ordered id_a < id_b."""
    from ..stages import dedup, images
    from ..stages.agg import bucketed_group_apply

    ah = knn.map_with_state(
        _key_images(sf_dir, "part", "p_partkey"), "q/ahashint",
        images.AverageHashInt, 1024) \
        .select_columns(["image_id", "ahash_int"])

    def collapse(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("ahash_int", sort=False)
                 .agg(rep_id=("image_id", "min"),
                      n_images=("image_id", "size"))
                 .reset_index())

    sigs = bucketed_group_apply(ah, ["ahash_int"], collapse)
    # max_bucket=None: the SQL oracle's self-join is uncapped, so the
    # query must be too (bounded distinct-signature corpus here; cap
    # when running uncapped-oracle-free at web scale)
    pairs = dedup.hamming_dup_pairs(sigs, id_col="rep_id",
                                    sig_col="ahash_int", max_hamming=7,
                                    n_bands=8, carry_cols=["n_images"],
                                    max_bucket=None)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"n_images_a": "n_a", "n_images_b": "n_b"})
        b["n_a"] = b["n_a"].astype(np.int64)
        b["n_b"] = b["n_b"].astype(np.int64)
        return b[["id_a", "id_b", "hamming", "n_a", "n_b"]]

    return pairs.map_batches(finish, batch_format="pandas")


SQL_PHASH_NEAR_PAIRS = f"""
WITH ah AS ({SQL_IMAGE_AHASH}),
sig AS (SELECT ahash_int AS sig, MIN(image_id) AS rep,
               COUNT(*) AS n
        FROM ah GROUP BY 1)
SELECT a.rep AS id_a, b.rep AS id_b,
       CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming,
       a.n AS n_a, b.n AS n_b
FROM sig a JOIN sig b ON a.rep < b.rep
WHERE bit_count(xor(a.sig, b.sig)) <= 7
"""


def q_phash_dedup_keep(sf_dir: str):
    """END-TO-END image dedup: perceptual aHash -> exact-dup collapse
    to distinct signatures (rep = min numeric image key per sig) ->
    banded Hamming LSH pairs over the distinct sigs -> DISTRIBUTED
    connected components (min-label propagation, dedup.cc_labels) ->
    keep the component-minimum representative (anti-join against
    non-root nodes).  The image analogue of near_dedup_keep, with the
    same recursive-CTE transitive-closure oracle; the image-payload
    completion of the reference's dedup resolution (indexer.go:582-618).
    Output: keep_id (int64 image key), one row per surviving image."""
    from ..stages import dedup, images
    from ..stages.agg import (bucketed_group_apply,
                              default_join_partitions, join_safe,
                              membership_filter)

    ah = knn.map_with_state(
        _key_images(sf_dir, "part", "p_partkey"), "q/ahashint",
        images.AverageHashInt, 1024) \
        .select_columns(["image_id", "ahash_int"])

    def collapse(g: pd.DataFrame) -> pd.DataFrame:
        # numeric key back out of the 'img<k>' id: CC labels need ints
        k = g["image_id"].str.slice(3).astype(np.int64)
        return (pd.DataFrame({"ahash_int": g["ahash_int"], "rep": k})
                  .groupby("ahash_int", sort=False, as_index=False)["rep"]
                  .min())

    # consumed TWICE (pair generation + keep side): materialize so the
    # decode+ahash lineage runs once
    sigs = bucketed_group_apply(ah, ["ahash_int"], collapse).materialize()
    pairs = dedup.hamming_dup_pairs(sigs, id_col="rep",
                                    sig_col="ahash_int", max_hamming=7,
                                    n_bands=8, max_bucket=None)  # uncapped oracle

    pairs = join_safe(pairs, default_join_partitions()).materialize()
    reps = sigs.map_batches(
        lambda b: pd.DataFrame({"keep_id": b["rep"].astype(np.int64)}),
        batch_format="pandas")
    if pairs.count() == 0:
        return reps
    drop = dedup.cc_labels(pairs).map_batches(
        lambda b: b[b["node"] != b["label"]][["node"]],
        batch_format="pandas")
    return membership_filter(reps, drop, "keep_id", "node", keep=False)


SQL_PHASH_DEDUP_KEEP = f"""
WITH RECURSIVE
ah AS ({SQL_IMAGE_AHASH}),
ids AS (SELECT CAST(substr(image_id, 4) AS BIGINT) AS id, ahash_int FROM ah),
sig AS (SELECT ahash_int AS sig, MIN(id) AS rep FROM ids GROUP BY 1),
near AS (SELECT a.rep AS id_a, b.rep AS id_b
         FROM sig a JOIN sig b ON a.rep < b.rep
         WHERE bit_count(xor(a.sig, b.sig)) <= 7),
edges AS (SELECT id_a AS a, id_b AS b FROM near
          UNION ALL SELECT id_b, id_a FROM near),
walk(node, reach) AS (
  SELECT a, a FROM (SELECT DISTINCT a FROM edges)
  UNION
  SELECT w.node, e.b FROM walk w JOIN edges e ON e.a = w.reach
),
roots AS (SELECT node, MIN(reach) AS root FROM walk GROUP BY node)
SELECT rep AS keep_id FROM sig
WHERE rep NOT IN (SELECT node FROM roots WHERE root < node)
"""


def q_image_tile_pipeline(sf_dir: str):
    """The north-rule flagship (tile assignment + PIP join + coarse
    partition key) over key-derived REAL-payload images — SQL-oracled
    end to end, including the phash 2^-32 quantization roundtrip."""
    from . import flagship

    imgs = _key_images(sf_dir, "orders", "o_orderkey")
    joined = flagship.tile_and_join(imgs, nation_rects(sf_dir),
                                    attach_meta=False)
    return joined.select_columns(["image_id", "tile_id", "polygon_id", "part"])


def _sql_image_tile() -> str:
    # phash quantization roundtrip: float op order matches
    # synth.latlon_to_phash -> geo.phash_to_latlon exactly
    lat0, lon0 = sql_lat("k"), sql_lon("k")
    return f"""
WITH keys AS (SELECT CAST(o_orderkey AS BIGINT) AS k FROM orders),
q AS (SELECT k,
        FLOOR(LEAST(GREATEST(({lat0}+90.0)/180.0*4294967296.0, 0), 4294967295)) AS hi,
        FLOOR(LEAST(GREATEST(({lon0}+180.0)/360.0*4294967296.0, 0), 4294967295)) AS lo
      FROM keys),
p AS (SELECT k, hi/4294967296.0*180.0 - 90.0 AS lat,
             lo/4294967296.0*360.0 - 180.0 AS lon FROM q),
t AS (SELECT k, lat, lon, {sql_tile('lat', 'lon', 7)} AS tile_id FROM p),
r AS ({SQL_NATION_RECTS})
SELECT {SQL_IMG_ID} AS image_id, t.tile_id,
       (t.tile_id // 128 // 32) * 4 + ((t.tile_id % 128) // 32) AS part,
       MIN(r.polygon_id) AS polygon_id
FROM t JOIN r ON t.lat BETWEEN r.lat0 AND r.lat1 AND t.lon BETWEEN r.lon0 AND r.lon1
GROUP BY 1, 2, 3
"""


SQL_IMAGE_TILE = _sql_image_tile()


def q_tile_mosaic(sf_dir: str):
    """Per-tile raster MOSAIC aggregate: decode every image landing in
    a tile (phash-derived geo key -> tile assignment) and accumulate
    integer per-channel pixel totals + image count — the raster
    composite a tile server would render, reduced to its SQL-checkable
    integer core.  Decode + tile + per-batch pandas pre-aggregate run
    in ONE pass over each batch (combiner before the shuffle: what
    moves is <= one row per (batch, tile), never per image), then a
    bucket-hash two-phase sum combine.  Raster analogue of
    tile_histogram; tiling per rtree.go:168-205's spatial bucketing."""
    from .. import geo
    from ..stages import images
    from ..stages.agg import two_phase_agg

    imgs = _key_images(sf_dir, "orders", "o_orderkey")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        sums = images.DecodeSums().sums(
            pa.Table.from_pandas(b, preserve_index=False))
        lat, lon = geo.phash_to_latlon(b["phash"].to_numpy())
        df = pd.DataFrame({"tile_id": geo.tile_id(lat, lon, TILE_RES),
                           "n_images": np.ones(len(b), dtype=np.int64),
                           "sum_r": sums[:, 0], "sum_g": sums[:, 1],
                           "sum_b": sums[:, 2]})
        return df.groupby("tile_id", sort=False, as_index=False).sum()

    return two_phase_agg(imgs, partial, ["tile_id"],
                         ["n_images", "sum_r", "sum_g", "sum_b"])


def _sql_tile_mosaic() -> str:
    lat0, lon0 = sql_lat("k"), sql_lon("k")
    return f"""
WITH keys AS (SELECT CAST(o_orderkey AS BIGINT) AS k FROM orders),
q AS (SELECT k,
        FLOOR(LEAST(GREATEST(({lat0}+90.0)/180.0*4294967296.0, 0), 4294967295)) AS hi,
        FLOOR(LEAST(GREATEST(({lon0}+180.0)/360.0*4294967296.0, 0), 4294967295)) AS lo
      FROM keys),
p AS (SELECT k, hi/4294967296.0*180.0 - 90.0 AS lat,
             lo/4294967296.0*360.0 - 180.0 AS lon FROM q),
t AS (SELECT k, {sql_tile('lat', 'lon')} AS tile_id FROM p),
px AS (SELECT k, ux.x AS x, uy.y AS y
       FROM keys, unnest(range(0, 8)) AS ux(x), unnest(range(0, 8)) AS uy(y)),
s AS (SELECT k, SUM((k*3 + x*7  + y*11) % 256) AS sr,
             SUM((k*5 + x*13 + y*3 ) % 256) AS sg,
             SUM((k*7 + x*11 + y*5 ) % 256) AS sb
      FROM px GROUP BY k)
SELECT t.tile_id, COUNT(*) AS n_images,
       CAST(SUM(s.sr) AS BIGINT) AS sum_r,
       CAST(SUM(s.sg) AS BIGINT) AS sum_g,
       CAST(SUM(s.sb) AS BIGINT) AS sum_b
FROM t JOIN s ON s.k = t.k GROUP BY 1
"""


SQL_TILE_MOSAIC = _sql_tile_mosaic()


def q_image_resize_stats(sf_dir: str):
    """Resize stage proven end to end: decode -> nearest-neighbor
    8x8 -> 4x4 -> PNG re-encode -> decode again -> integer channel
    sums; the SQL oracle selects the same source pixels (x*2, y*2)
    without ever touching the codec."""
    from ..stages import images

    resized = images.resize(_key_images(sf_dir, "part", "p_partkey"), 4, 4)
    return knn.map_with_state(
        resized, "q/decodesums", images.DecodeSums, 1024)


SQL_IMAGE_RESIZE_STATS = f"""
WITH px AS (
  SELECT CAST(p_partkey AS BIGINT) AS k, ux.x * 2 AS x, uy.y * 2 AS y
  FROM part, unnest(range(0, 4)) AS ux(x), unnest(range(0, 4)) AS uy(y))
SELECT {SQL_IMG_ID} AS image_id,
       CAST(SUM((k*3 + x*7  + y*11) % 256) AS BIGINT) AS sum_r,
       CAST(SUM((k*5 + x*13 + y*3 ) % 256) AS BIGINT) AS sum_g,
       CAST(SUM((k*7 + x*11 + y*5 ) % 256) AS BIGINT) AS sum_b
FROM px GROUP BY 1
"""


def q_image_embed_sums(sf_dir: str):
    """EmbedImage's pooled-feature core proven end to end: decode ->
    4x4 grid-pooled per-channel integer pixel sums (long format), vs a
    SQL oracle grouping pixels by (x//2, y//2)."""
    from ..stages import images

    return knn.map_with_state(
        _key_images(sf_dir, "part", "p_partkey"), "q/embedsums",
        images.EmbedImageSums, 1024)


SQL_IMAGE_EMBED_SUMS = f"""
WITH px AS ({SQL_IMG_PX})
SELECT {SQL_IMG_ID} AS image_id,
       y // 2 AS grid_y, x // 2 AS grid_x,
       CAST(SUM(r) AS BIGINT) AS sum_r,
       CAST(SUM(g) AS BIGINT) AS sum_g,
       CAST(SUM(b) AS BIGINT) AS sum_b
FROM px GROUP BY 1, 2, 3
"""


def q_video_frame_stats(sf_dir: str):
    """Multimodal VIDEO leg: key-derived FVID containers (real PNG
    frames) -> frame sampling (stride 2) -> per-frame decode ->
    integer channel sums, vs a pure-SQL pixel-math oracle."""
    from .. import synth
    from ..stages import images

    keys = read_table(sf_dir, "part", columns=["p_partkey"])
    vids = keys.map_batches(
        lambda b: synth.videos_from_keys(b["p_partkey"].to_numpy()),
        batch_format="pyarrow",
    )
    frames = knn.map_with_state(
        vids, "q/framesample2", lambda: images.FrameSample(stride=2), 1024)

    def frame_sums(b: pa.Table) -> pa.Table:
        sums = images.DecodeSums().sums(b)
        return pa.table({
            "video_id": b["video_id"],
            "frame_idx": b["frame_idx"],
            "sum_r": pa.array(sums[:, 0], pa.int64()),
            "sum_g": pa.array(sums[:, 1], pa.int64()),
            "sum_b": pa.array(sums[:, 2], pa.int64()),
        })

    return frames.map_batches(frame_sums, batch_format="pyarrow")


SQL_VIDEO_FRAME_STATS = """
WITH px AS (
  SELECT CAST(p_partkey AS BIGINT) AS k, uf.f AS f, ux.x AS x, uy.y AS y
  FROM part, unnest([0, 2, 4]) AS uf(f),
       unnest(range(0, 8)) AS ux(x), unnest(range(0, 8)) AS uy(y))
SELECT 'vid' || lpad(CAST(k AS VARCHAR), 10, '0') AS video_id,
       CAST(f AS BIGINT) AS frame_idx,
       CAST(SUM((k*3 + f*17 + x*7  + y*11) % 256) AS BIGINT) AS sum_r,
       CAST(SUM((k*5 + f*13 + x*13 + y*3 ) % 256) AS BIGINT) AS sum_g,
       CAST(SUM((k*7 + f*19 + x*11 + y*5 ) % 256) AS BIGINT) AS sum_b
FROM px GROUP BY 1, 2
"""


SCENE_CUT_L1 = 5800


def q_video_scene_changes(sf_dir: str):
    """Video shot-boundary detection (images.SceneChanges): decode
    all frames, integer L1 distance between consecutive frames, count
    transitions above the cut threshold — mirrored in SQL over the
    same frame pixel math (the codec round-trip is the proof)."""
    from .. import synth
    from ..stages import images

    keys = read_table(sf_dir, "part", columns=["p_partkey"])
    vids = keys.map_batches(
        lambda b: synth.videos_from_keys(b["p_partkey"].to_numpy()),
        batch_format="pyarrow",
    )
    return knn.map_with_state(
        vids, "q/scenechanges",
        lambda: images.SceneChanges(threshold=SCENE_CUT_L1), 1024)


SQL_VIDEO_SCENES = f"""
WITH px AS (
  SELECT CAST(p_partkey AS BIGINT) AS k, uf.f AS f, ux.x AS x, uy.y AS y
  FROM part, unnest(range(0, 5)) AS uf(f),
       unnest(range(0, 8)) AS ux(x), unnest(range(0, 8)) AS uy(y)),
d AS (SELECT k, f,
        SUM(ABS((k*3 + (f+1)*17 + x*7  + y*11) % 256 - (k*3 + f*17 + x*7  + y*11) % 256)
          + ABS((k*5 + (f+1)*13 + x*13 + y*3 ) % 256 - (k*5 + f*13 + x*13 + y*3 ) % 256)
          + ABS((k*7 + (f+1)*19 + x*11 + y*5 ) % 256 - (k*7 + f*19 + x*11 + y*5 ) % 256)) AS l1
      FROM px GROUP BY 1, 2)
SELECT 'vid' || lpad(CAST(k AS VARCHAR), 10, '0') AS video_id,
       CAST(SUM(CASE WHEN l1 > {SCENE_CUT_L1} THEN 1 ELSE 0 END) AS BIGINT) AS n_cuts,
       CAST(SUM(l1) AS BIGINT) AS total_l1
FROM d GROUP BY 1
"""


def q_audio_features(sf_dir: str):
    """Multimodal AUDIO leg: key-derived PCM16 payloads -> integer
    feature extraction (sum-abs, zero crossings, peak) vs pure-SQL
    sample math."""
    from .. import synth
    from ..stages import images

    keys = read_table(sf_dir, "part", columns=["p_partkey"])
    auds = keys.map_batches(
        lambda b: synth.audio_from_keys(b["p_partkey"].to_numpy()),
        batch_format="pyarrow",
    )
    return knn.map_with_state(
        auds, "q/audiofeat", images.AudioFeatures, 1024)


SQL_AUDIO_FEATURES = """
WITH s AS (SELECT CAST(p_partkey AS BIGINT) AS k, u.t AS t,
                  (CAST(p_partkey AS BIGINT)*31 + u.t*7) % 2048 - 1024 AS v
           FROM part, unnest(range(0, 1024)) AS u(t)),
lagged AS (SELECT k, t, v,
                  lag(v) OVER (PARTITION BY k ORDER BY t) AS pv
           FROM s)
SELECT 'aud' || lpad(CAST(k AS VARCHAR), 10, '0') AS audio_id,
       COUNT(*) AS n_samples,
       CAST(SUM(abs(v)) AS BIGINT) AS sum_abs,
       CAST(SUM(CASE WHEN (v < 0) != (pv < 0) THEN 1 ELSE 0 END) AS BIGINT)
         AS zero_crossings,
       CAST(MAX(abs(v)) AS BIGINT) AS peak
FROM lagged GROUP BY 1
"""


def q_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup pairs in the INTEGER-EXACT output form
    (id_a, id_b, common, size_a, size_b) — the repo's oracle design
    rule (see module docstring): integer columns hash exactly, so the
    driver's value-hash canonicalization of floats can't mis-compare.
    The SQL oracle is the EXACT-Jaccard self-join at the same
    threshold: the engine's exact-verify stage guarantees precision 1,
    and on this corpus (fixed permutation seed, 16 bands x 8 rows) LSH
    recall is empirically 1, so the outputs coincide — a recall
    regression hash-mismatches.  (In general LSH recall < 1; that is
    its contract, not a bug.)"""
    out = dedup.minhash_lsh_pairs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        threshold=0.2, output="sizes",
    )

    def cast(b: pd.DataFrame) -> pd.DataFrame:
        for c in ("id_a", "id_b", "common", "size_a", "size_b"):
            b[c] = b[c].astype(np.int64)
        return b

    return out.map_batches(cast, batch_format="pandas")


SQL_MINHASH_PAIRS = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
sh AS (SELECT DISTINCT doc_id,
              CASE WHEN len(t) <= 3 THEN array_to_string(t, ' ')
                   ELSE t[i] || ' ' || t[i+1] || ' ' || t[i+2] END AS shingle
       FROM toks, unnest(range(1, GREATEST(len(t)-1, 2))) AS u(i)
       WHERE len(t) > 0),
sizes AS (SELECT doc_id, COUNT(*) AS sz FROM sh GROUP BY doc_id),
pairs AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS common
          FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT p.id_a, p.id_b, CAST(p.common AS BIGINT) AS common,
       CAST(sa.sz AS BIGINT) AS size_a, CAST(sb.sz AS BIGINT) AS size_b
FROM pairs p JOIN sizes sa ON sa.doc_id = p.id_a JOIN sizes sb ON sb.doc_id = p.id_b
WHERE CAST(p.common AS DOUBLE) / (sa.sz + sb.sz - p.common) >= 0.2
"""


def q_ivf_assign(sf_dir: str):
    """IVF coarse assignment, ORACLED: training (5 Lloyd iterations on
    the first-200 sample) stays non-SQL, but the trained centroids are
    emitted into the oracle as a literal VALUES table and the argmin
    assignment is verified row for row (the fixed-input technique the
    image oracles use).  The SQL is generated from the sf_dir the
    harness passes to registry() with the IDENTICAL deterministic
    recipe, so query and oracle share centroids exactly at ANY sf."""
    emb = read_table_arrow(sf_dir, "embeddings", columns=["embedding"])
    sample = np.asarray(emb["embedding"].to_pylist()[:200], dtype=np.float64)
    cents = embed.kmeans_centroids(sample, 8, iters=5)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embed.ivf_assign(ds, cents).select_columns(["vec_id", "ivf_bucket"])


_IVF_ASSIGN_SQL_CACHE: dict = {}


def _ivf_assign_sql(sf_dir: str):
    """VALUES-table oracle for q_ivf_assign (see its docstring).
    Keyed by sf_dir (round-5: trained-state oracles are generated
    from the sf actually under test, never pinned to sf0.01)."""
    if sf_dir in _IVF_ASSIGN_SQL_CACHE:
        return _IVF_ASSIGN_SQL_CACHE[sf_dir]
    import os

    f = os.path.join(sf_dir, "embeddings.parquet")
    if not os.path.exists(f):
        _IVF_ASSIGN_SQL_CACHE[sf_dir] = None
        return None
    import pyarrow.parquet as pq

    emb = pq.read_table(f, columns=["embedding"])
    sample = np.asarray(emb["embedding"].to_pylist()[:200], dtype=np.float64)
    cents = embed.kmeans_centroids(sample, 8, iters=5)
    n_c, n_d = cents.shape
    values = ",".join(
        f"({cid},{dim + 1},{float(cents[cid, dim])!r})"
        for cid in range(n_c) for dim in range(n_d)
    )
    sql = f"""
WITH c(cid, dim, val) AS (VALUES {values}),
e AS (SELECT vec_id, u.i AS dim, CAST(embedding[u.i] AS DOUBLE) AS val
      FROM embeddings, unnest(range(1, {n_d + 1})) AS u(i)),
d AS (SELECT e.vec_id, c.cid,
             SUM((e.val - c.val)*(e.val - c.val)) AS dist
      FROM e JOIN c ON c.dim = e.dim GROUP BY 1, 2),
a AS (SELECT vec_id, cid,
             row_number() OVER (PARTITION BY vec_id ORDER BY dist, cid) AS rn
      FROM d)
SELECT vec_id, CAST(cid AS BIGINT) AS ivf_bucket FROM a WHERE rn = 1
"""
    _IVF_ASSIGN_SQL_CACHE[sf_dir] = sql
    return sql


def _pq_books(sf_dir: str) -> np.ndarray:
    """Deterministic PQ training recipe shared by query AND oracle
    generator: first-200 sample, 4 subspaces x 16 codes, 5 Lloyd
    iterations (the q_ivf_assign fixed-input technique)."""
    emb = read_table_arrow(sf_dir, "embeddings", columns=["embedding"])
    sample = np.asarray(emb["embedding"].to_pylist()[:200], dtype=np.float64)
    return embed.pq_codebooks(sample, n_sub=4, n_codes=16, iters=5)


def q_pq_encode(sf_dir: str):
    """Product-quantization encoding ORACLED: codebook training stays
    non-SQL (Lloyd), but the trained codebooks are emitted into the
    oracle as a VALUES table and the per-subspace argmin code
    assignment is verified row for row.  This long (vec_id, subspace,
    code) table is the at-rest form a 10^12-vector corpus stores in
    place of float embeddings (32x smaller reads).

    Like _ivf_assign_sql, the oracle SQL is generated from the sf_dir
    the harness passes to registry() with the IDENTICAL deterministic
    training recipe, so query and oracle share codebooks exactly at
    any sf (round-5 un-pinning; caches keyed by sf_dir)."""
    books = _pq_books(sf_dir)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embed.pq_encode(ds, books)


_PQ_SQL_CACHE: dict = {}


def _pq_values(sf_dir: str) -> str | None:
    """Codebooks as a VALUES table (sub, code, dim, val); dim GLOBAL
    1-based, matching embedding[i] indexing."""
    import os

    if not os.path.exists(os.path.join(sf_dir, "embeddings.parquet")):
        return None
    books = _pq_books(sf_dir)
    n_sub, n_codes, dsub = books.shape
    return ",".join(
        f"({s},{c},{s * dsub + j + 1},{float(books[s, c, j])!r})"
        for s in range(n_sub) for c in range(n_codes) for j in range(dsub)
    )


def _pq_encode_sql(sf_dir: str):
    if ("encode", sf_dir) in _PQ_SQL_CACHE:
        return _PQ_SQL_CACHE[("encode", sf_dir)]
    values = _pq_values(sf_dir)
    sql = None if values is None else f"""
WITH cb(sub, code, dim, val) AS (VALUES {values}),
e AS (SELECT vec_id, u.i AS dim, CAST(embedding[u.i] AS DOUBLE) AS val
      FROM embeddings, unnest(range(1, 65)) AS u(i)),
d AS (SELECT e.vec_id, cb.sub, cb.code,
             SUM((e.val - cb.val)*(e.val - cb.val)) AS dist
      FROM e JOIN cb ON cb.dim = e.dim GROUP BY 1, 2, 3),
a AS (SELECT vec_id, sub, code,
             row_number() OVER (PARTITION BY vec_id, sub
                                ORDER BY dist, code) AS rn
      FROM d)
SELECT vec_id, CAST(sub AS BIGINT) AS subspace, CAST(code AS BIGINT) AS code
FROM a WHERE rn = 1
"""
    _PQ_SQL_CACHE[("encode", sf_dir)] = sql
    return sql


def q_pq_search(sf_dir: str):
    """ADC top-k search over PQ codes, ORACLED end to end: the oracle
    re-derives the same code assignment from the VALUES codebooks,
    computes each query's exact LUT distances in SQL, and ranks by the
    same (adc ASC, vec_id ASC) order.  Queries = first 5 vectors
    (fixed input), k=5."""
    books = _pq_books(sf_dir)
    emb = read_table_arrow(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qn = 5
    queries = {
        "query_id": emb["vec_id"].to_pylist()[:qn],
        "embedding": emb["embedding"].to_pylist()[:qn],
    }
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embed.pq_topk(ds, books, queries, k=5)
    return _round6(out[["query_id", "rank", "vec_id", "adc"]], ["adc"])


def _pq_search_sql(sf_dir: str):
    if ("search", sf_dir) in _PQ_SQL_CACHE:
        return _PQ_SQL_CACHE[("search", sf_dir)]
    values = _pq_values(sf_dir)
    sql = None if values is None else f"""
WITH cb(sub, code, dim, val) AS (VALUES {values}),
e AS (SELECT vec_id, u.i AS dim, CAST(embedding[u.i] AS DOUBLE) AS val
      FROM embeddings, unnest(range(1, 65)) AS u(i)),
d AS (SELECT e.vec_id, cb.sub, cb.code,
             SUM((e.val - cb.val)*(e.val - cb.val)) AS dist
      FROM e JOIN cb ON cb.dim = e.dim GROUP BY 1, 2, 3),
a AS (SELECT vec_id, sub, code, dist,
             row_number() OVER (PARTITION BY vec_id, sub
                                ORDER BY dist, code) AS rn
      FROM d),
codes AS (SELECT vec_id, sub, code FROM a WHERE rn = 1),
lut AS (SELECT q.vec_id AS query_id, cb.sub, cb.code,
               SUM((q.val - cb.val)*(q.val - cb.val)) AS dist
        FROM e q JOIN cb ON cb.dim = q.dim
        WHERE q.vec_id < 5 GROUP BY 1, 2, 3),
adc AS (SELECT l.query_id, c.vec_id, SUM(l.dist) AS adc
        FROM codes c JOIN lut l ON l.sub = c.sub AND l.code = c.code
        GROUP BY 1, 2),
r AS (SELECT query_id, vec_id, adc,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY adc, vec_id) AS rank
      FROM adc)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
       round(adc, 6) AS adc
FROM r WHERE rank <= 5
"""
    _PQ_SQL_CACHE[("search", sf_dir)] = sql
    return sql


def q_ivfpq_search(sf_dir: str):
    """IVF-PQ two-level ANN at FULL probe: bucket pruning is a no-op
    at nprobe = n_centroids, so the result is exactly the PQ ADC
    ranking and shares pq_search's oracle (the ivf_search technique);
    partial-probe recall is pytest-proven
    (tests/test_dedup_embed.py::TestPQ)."""
    books = _pq_books(sf_dir)
    emb = read_table_arrow(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample = np.asarray(emb["embedding"].to_pylist()[:200], dtype=np.float64)
    cents = embed.kmeans_centroids(sample, 8, iters=5)
    qn = 5
    queries = {
        "query_id": emb["vec_id"].to_pylist()[:qn],
        "embedding": emb["embedding"].to_pylist()[:qn],
    }
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embed.ivfpq_topk(ds, cents, books, queries, k=5, nprobe=8)
    return _round6(out[["query_id", "rank", "vec_id", "adc"]], ["adc"])


def q_ivf_search(sf_dir: str):
    """IVF probing search at FULL probe (nprobe = n_centroids): the
    recall-1 configuration is exactly brute-force cosine top-k, so it
    shares embedding_knn's SQL oracle; partial-probe recall is
    pytest-proven (tests/test_dedup_embed.py::TestIVFSearch)."""
    emb = read_table_arrow(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample = np.asarray(emb["embedding"].to_pylist()[:200], dtype=np.float64)
    cents = embed.kmeans_centroids(sample, 8, iters=5)
    qn = 5
    queries = {
        "query_id": emb["vec_id"].to_pylist()[:qn],
        "embedding": emb["embedding"].to_pylist()[:qn],
    }
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = embed.ivf_topk(ds, cents, queries, k=5, nprobe=8)
    return _round6(out[["query_id", "rank", "vec_id", "cosine"]], ["cosine"])


def q_postings_lists(sf_dir: str):
    """A1+A2 merged inverted index with df; postings stringified so the
    oracle comparison can value-hash the DuckDB list aggregation."""
    return text.postings_lists(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]),
        stringify=True,
    )


SQL_POSTINGS_LISTS = f"""
SELECT term, array_to_string(list(doc_id ORDER BY doc_id), ',') AS postings,
       CAST(COUNT(*) AS BIGINT) AS df
FROM (SELECT DISTINCT t.term, d.doc_id
      FROM documents d, unnest({TOK}) AS t(term))
GROUP BY term
"""


def q_stay_points(sf_dir: str):
    """TRAJECTORY DWELL (stay-point) DETECTION: maximal runs of
    consecutive same-entity positions whose hop distance stays within
    STAY_RADIUS_KM, kept when the run has >= 2 points.  Engine-canonical
    variant of Li et al. 2008's stay points using the consecutive-hop
    (lag) criterion — fully vectorizable and windowed-SQL-expressible,
    unlike the anchor-extension original.  Same scale shape as
    track_lengths: bucket-hash on point_id, ONE vectorized
    sort + shift + haversine + per-point cumsum run labeling per
    bucket (fence_index.go:50-73's keyed lag, batch form)."""
    from ..stages.agg import bucketed_group_apply

    ev = fence_events(sf_dir)
    r_km = STAY_RADIUS_KM

    def stay_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["point_id", "seq"], kind="mergesort")
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        pid = g["point_id"].to_numpy()
        n = len(g)
        same = np.zeros(n, dtype=bool)
        same[1:] = pid[1:] == pid[:-1]
        brk = np.ones(n, dtype=np.int64)
        if same.any():
            plat = np.roll(lat, 1)[same]
            plon = np.roll(lon, 1)[same]
            d = geo.haversine_km(plat, plon, lat[same], lon[same])
            brk[same] = (d > r_km).astype(np.int64)
        df = pd.DataFrame({"point_id": pid, "seq": g["seq"].to_numpy(),
                           "lat": lat, "lon": lon})
        rg = np.cumsum(brk)  # global run counter within the bucket
        # per-point run id: first row of each point always breaks, so
        # the point's min global counter anchors its run numbering
        base = pd.Series(rg).groupby(df["point_id"], sort=False) \
            .transform("min").to_numpy()
        df["run_id"] = rg - base + 1
        out = df.groupby(["point_id", "run_id"], sort=False,
                         as_index=False).agg(
            n_points=("seq", "size"), seq_start=("seq", "min"),
            seq_end=("seq", "max"),
            min_lat=("lat", "min"), max_lat=("lat", "max"),
            min_lon=("lon", "min"), max_lon=("lon", "max"))
        return out[out["n_points"] >= 2]

    res = bucketed_group_apply(ev, ["point_id"], stay_bucket)
    return res.map_batches(
        lambda b: _round6(b, ["min_lat", "max_lat", "min_lon", "max_lon"]),
        batch_format="pandas")


STAY_RADIUS_KM = 2000.0

SQL_STAY_POINTS = f"""
WITH ev AS ({SQL_EVENT_POINTS}),
l AS (SELECT point_id, seq, lat, lon,
             lag(lat) OVER w AS plat, lag(lon) OVER w AS plon
      FROM ev WINDOW w AS (PARTITION BY point_id ORDER BY seq)),
b AS (SELECT *, CASE WHEN plat IS NULL
                      OR {sql_haversine('plat', 'plon', 'lat', 'lon')} > {STAY_RADIUS_KM}
                     THEN 1 ELSE 0 END AS brk FROM l),
r AS (SELECT *, SUM(brk) OVER (PARTITION BY point_id ORDER BY seq
                               ROWS UNBOUNDED PRECEDING) AS run_id
      FROM b)
SELECT point_id, CAST(run_id AS BIGINT) AS run_id,
       CAST(COUNT(*) AS BIGINT) AS n_points,
       MIN(seq) AS seq_start, MAX(seq) AS seq_end,
       round(MIN(lat), 6) AS min_lat, round(MAX(lat), 6) AS max_lat,
       round(MIN(lon), 6) AS min_lon, round(MAX(lon), 6) AS max_lon
FROM r GROUP BY 1, 2 HAVING COUNT(*) >= 2
"""


def q_cdc_upsert(sf_dir: str):
    """CHANGELOG MATERIALIZATION (CDC compaction): apply an
    insert/update/delete stream last-writer-wins per entity and emit
    the live final state — the batch form of the reference's
    read-modify-write point store (kv_db.go:109-137, every update
    overwrites the entity's row; geofence UpdateFencePoint semantics).
    Ops derive deterministically from the event stream (signup=I,
    error=D, rest=U); order is (ts, event_id).  Scale shape: bucket-hash
    on entity_id -> ONE vectorized sort + drop_duplicates(keep=last) per
    bucket; no per-entity dispatch, entity space unbounded."""
    from ..stages.agg import bucketed_group_apply

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type",
                             "value"])

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        op = np.where(b["event_type"] == "signup", "I",
                      np.where(b["event_type"] == "error", "D", "U"))
        return pd.DataFrame({"entity_id": b["user_id"].to_numpy(np.int64),
                             "ts": b["ts"], "event_id": b["event_id"],
                             "op": op, "value": b["value"]})

    def last_writer(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["entity_id", "ts", "event_id"],
                          kind="mergesort")
        n_ops = g.groupby("entity_id", sort=False)["op"].transform("size")
        g = g.assign(n_ops=n_ops.to_numpy(np.int64))
        last = g.drop_duplicates("entity_id", keep="last")
        live = last[last["op"] != "D"]
        return pd.DataFrame({
            "entity_id": live["entity_id"].to_numpy(np.int64),
            "last_op": live["op"].to_numpy(),
            "last_value": live["value"].to_numpy(),
            "n_ops": live["n_ops"].to_numpy(np.int64),
            "last_ts": live["ts"].to_numpy(),
        })

    return bucketed_group_apply(ds.map_batches(derive,
                                               batch_format="pandas"),
                                ["entity_id"], last_writer)


SQL_CDC_UPSERT = """
WITH c AS (SELECT CAST(user_id AS BIGINT) AS entity_id, ts, event_id,
                  CASE WHEN event_type = 'signup' THEN 'I'
                       WHEN event_type = 'error' THEN 'D'
                       ELSE 'U' END AS op,
                  value
           FROM events),
r AS (SELECT *,
             row_number() OVER (PARTITION BY entity_id
                                ORDER BY ts DESC, event_id DESC) AS rn,
             COUNT(*) OVER (PARTITION BY entity_id) AS n_ops
      FROM c)
SELECT entity_id, op AS last_op, value AS last_value,
       CAST(n_ops AS BIGINT) AS n_ops, ts AS last_ts
FROM r WHERE rn = 1 AND op <> 'D'
"""


LATENESS_US = 300 * 1_000_000  # 5-minute allowed lateness


def q_late_events(sf_dir: str):
    """WATERMARK LATE-DATA DETECTION: events whose EVENT TIME trails
    the max-event-time watermark (over arrival order = event_id) by
    more than 5 minutes.  The testdata event stream is perfectly
    in-order, so the event time is deterministically backdated for 10%
    of events (up to 4 h, key-derived — same expression in the SQL
    mirror) to model a realistic out-of-order source.  Distributed
    prefix-max, no global sort — see agg.watermark_late for the
    two-pass shape."""
    from ..stages.agg import watermark_late

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id"])

    def backdate(b: pd.DataFrame) -> pd.DataFrame:
        ev = b["event_id"].to_numpy(np.int64)
        jit = np.where(ev % 10 == 0, (ev * 2654435761) % 14400, 0)
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame({
            "event_id": ev, "user_id": b["user_id"].to_numpy(np.int64),
            "ts": (ts - jit * 1_000_000).astype("datetime64[us]"),
        })

    return watermark_late(ds.map_batches(backdate, batch_format="pandas"),
                          "event_id", "ts", LATENESS_US,
                          keep_cols=["event_id", "user_id"])


SQL_LATE_EVENTS = f"""
WITH e AS (SELECT event_id, user_id,
                  ts - INTERVAL 1 SECOND *
                      (CASE WHEN event_id % 10 = 0
                            THEN (event_id * 2654435761) % 14400
                            ELSE 0 END) AS ts
           FROM events),
w AS (SELECT event_id, user_id, ts,
             MAX(ts) OVER (ORDER BY event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING) AS wm
      FROM e)
SELECT event_id, user_id, ts, wm AS wm_ts,
       CAST(epoch_us(wm) - epoch_us(ts) AS BIGINT) AS late_us
FROM w
WHERE wm IS NOT NULL AND epoch_us(wm) - epoch_us(ts) > {LATENESS_US}
"""


PROFILE_COLS = ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                "l_quantity", "l_extendedprice", "l_discount", "l_tax",
                "l_returnflag", "l_linestatus", "l_shipdate"]


def q_profile_columns(sf_dir: str):
    """DATA-QUALITY COLUMN PROFILER: per column of lineitem — row
    count, null count, EXACT distinct count.  Scale shape: one read;
    per-batch partials collapse each block to its per-column unique
    values ((col, value-hash) pairs) + null/row counts; distinct
    finishing is a bucket-hash shuffle on the value hash (unbounded
    value spaces never meet the driver), counts finish in one tiny
    combine.  All-integer output (oracle design rule)."""
    from ..stages.agg import bucketed_group_apply

    ds = read_table(sf_dir, "lineitem", columns=PROFILE_COLS)

    # ONE scan: each block emits its per-column unique value-hashes
    # (kind 1) AND its row/null counts (kind 0, _h doubles as n_rows)
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = [pd.DataFrame({
            "kind": np.int64(0), "col_name": PROFILE_COLS,
            "_h": np.int64(len(b)),
            "n_null": [np.int64(b[c].isna().sum()) for c in PROFILE_COLS]})]
        for c in PROFILE_COLS:
            s = b[c].dropna()
            h = pd.util.hash_pandas_object(
                s.drop_duplicates(), index=False).to_numpy(np.uint64)
            frames.append(pd.DataFrame({
                "kind": np.int64(1), "col_name": c,
                "_h": np.unique(h).view(np.int64),
                "n_null": np.int64(0)}))
        return pd.concat(frames, ignore_index=True)

    parts = ds.map_batches(partial, batch_format="pandas").materialize()

    counts = parts.map_batches(
        lambda b: b[b["kind"] == 0], batch_format="pandas").to_pandas() \
        .groupby("col_name", sort=True, as_index=False) \
        .agg(n_rows=("_h", "sum"), n_null=("n_null", "sum"))

    def distinct_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["col_name", "_h"])
        return d.groupby("col_name", sort=False, as_index=False) \
            .agg(n_distinct=("_h", "size"))

    dis = bucketed_group_apply(
        parts.map_batches(lambda b: b[b["kind"] == 1][["col_name", "_h"]],
                          batch_format="pandas"),
        ["col_name", "_h"], distinct_bucket).to_pandas()
    dis = dis.groupby("col_name", sort=False, as_index=False)["n_distinct"] \
        .sum()
    out = counts.merge(dis, on="col_name", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype(np.int64)
    return out.sort_values("col_name").reset_index(drop=True)


def _sql_profile() -> str:
    parts = [
        f"SELECT '{c}' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows, "
        f"CAST(SUM(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS BIGINT) "
        f"AS n_null, CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct "
        f"FROM lineitem"
        for c in PROFILE_COLS
    ]
    return " UNION ALL ".join(parts)


SQL_PROFILE_COLUMNS = _sql_profile()


BPE_MERGES = 12


def q_bpe_encode(sf_dir: str):
    """LEARNED SUBWORD TOKENIZATION (BPE, Sennrich et al. 2016): train
    the merge table with distributed iterations over the unique-word
    table (stages/bpe.train — one corpus scan for word counts, then
    per-iteration pair-count partials + bucket-hash combine + top-1
    fan-in), then encode every document in one map stage.  ORACLED via
    the trained-state technique (_ivf_assign_sql): the merge list is
    re-derived by the local reference trainer at the driver's
    correctness sf and inlined as a chain of replace() calls — the
    sentinel symbolization makes Python/pandas/DuckDB replace
    semantics identical (bpe.py module docstring)."""
    from ..stages import bpe

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    merges = bpe.train(docs, n_merges=BPE_MERGES)
    return bpe.encode_docs(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]), merges)


_BPE_SQL_CACHE: dict = {}


def _bpe_sql(sf_dir: str):
    """Inline the locally-retrained merge list (identical to the
    distributed trainer by exact-integer determinism — pytest-pinned)
    as a replace() chain.  Keyed by sf_dir."""
    if sf_dir in _BPE_SQL_CACHE:
        return _BPE_SQL_CACHE[sf_dir]
    import os

    f = os.path.join(sf_dir, "documents.parquet")
    if not os.path.exists(f):
        _BPE_SQL_CACHE[sf_dir] = None
        return None
    import pyarrow.parquet as pq

    from ..stages import bpe
    from ..stages import text as _t

    texts = pq.read_table(f, columns=["text"])["text"].to_pandas()
    flat = pd.Series([w for ws in _t.tokenize_series(texts) for w in ws])
    wc = flat.value_counts().to_dict()
    merges = bpe.train_words(wc, n_merges=BPE_MERGES)
    enc = r"trim(regexp_replace(w, '(.)', '|\1| ', 'g'))"
    for a, b in merges:
        enc = f"replace({enc}, '|{a}| |{b}|', '|{a}{b}|')"
    sql = f"""
WITH w AS (SELECT doc_id, t.w AS w FROM documents, unnest({TOK}) AS t(w)),
s AS (SELECT doc_id, w, {enc} AS enc FROM w)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_words,
       CAST(SUM(len(string_split(enc, ' '))) AS BIGINT) AS n_subwords,
       CAST(SUM(length(w)) AS BIGINT) AS n_chars
FROM s GROUP BY doc_id
"""
    _BPE_SQL_CACHE[sf_dir] = sql
    return sql


def q_lm_doc_stats(sf_dir: str):
    """CORPUS-SCALE LM FAMILIARITY SCORING (the CCNet-style quality
    gate, Wenzek et al. 2020, built from the reference's 4-gram LM
    machinery ngram_lm.go:105-210/301-342): per document, the
    stupid-backoff LEVEL histogram — how many positions matched a
    corpus 4-gram / 3-gram / 2-gram / fell to unigram (n-gram counts
    thresholded at 2 so a doc's own singletons don't self-match).
    Fully distributed: count tables stay sharded, membership = three
    hash left-joins (stages/lm.backoff_stats)."""
    from ..stages import lm

    return lm.backoff_stats(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))


SQL_LM_DOC_STATS = f"""
WITH toks AS (SELECT doc_id, {TOK} AS t FROM documents),
vocab AS (SELECT term FROM (
    SELECT tt.term, COUNT(*) AS c FROM documents d,
           unnest({TOK}) AS tt(term) GROUP BY 1) WHERE c >= 2),
w AS (SELECT doc_id, u.i AS pos, t[u.i] AS tok
      FROM toks, unnest(range(1, len(t) + 1)) AS u(i)),
wv AS (SELECT w.doc_id, w.pos,
              CASE WHEN v.term IS NULL THEN '<unk>' ELSE w.tok END AS tok
       FROM w LEFT JOIN vocab v ON v.term = w.tok),
seq AS (SELECT doc_id,
               ['<s>','<s>','<s>'] || list(tok ORDER BY pos) || ['</s>'] AS t
        FROM wv GROUP BY doc_id),
win AS (SELECT doc_id, u.i AS i, len(t) AS L,
               t[u.i] AS w0, t[u.i+1] AS w1, t[u.i+2] AS w2, t[u.i+3] AS w3
        FROM seq, unnest(range(1, len(t) + 1)) AS u(i)),
f4 AS (SELECT g FROM (SELECT w0||' '||w1||' '||w2||' '||w3 AS g, COUNT(*) c
                      FROM win WHERE i <= L - 3 GROUP BY 1) WHERE c >= 2),
f3 AS (SELECT g FROM (SELECT w0||' '||w1||' '||w2 AS g, COUNT(*) c
                      FROM win WHERE i <= L - 2 GROUP BY 1) WHERE c >= 2),
f2 AS (SELECT g FROM (SELECT w0||' '||w1 AS g, COUNT(*) c
                      FROM win WHERE i <= L - 1 GROUP BY 1) WHERE c >= 2),
p AS (SELECT doc_id,
             w0||' '||w1||' '||w2||' '||w3 AS g4,
             w1||' '||w2||' '||w3 AS g3,
             w2||' '||w3 AS g2
      FROM win WHERE i <= L - 3),
lv AS (SELECT doc_id,
              CASE WHEN g4 IN (SELECT g FROM f4) THEN 4
                   WHEN g3 IN (SELECT g FROM f3) THEN 3
                   WHEN g2 IN (SELECT g FROM f2) THEN 2
                   ELSE 1 END AS level
       FROM p)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_pos,
       CAST(SUM(CASE WHEN level = 4 THEN 1 ELSE 0 END) AS BIGINT) AS l4,
       CAST(SUM(CASE WHEN level = 3 THEN 1 ELSE 0 END) AS BIGINT) AS l3,
       CAST(SUM(CASE WHEN level = 2 THEN 1 ELSE 0 END) AS BIGINT) AS l2,
       CAST(SUM(CASE WHEN level = 1 THEN 1 ELSE 0 END) AS BIGINT) AS l1
FROM lv GROUP BY doc_id
"""


def q_semantic_dedup(sf_dir: str):
    """SEMANTIC DEDUP (SemDeDup, Abbas et al. 2023): cluster-scoped
    exact-cosine near-dup removal — kmeans assignment (the ivf_assign
    fixed-recipe), per-cluster pair compute, distributed connected
    components, keep min-id per component (embed.semantic_dedup).
    Clusters come from the DISTRIBUTED deterministic trainer
    (embed.kmeans_lloyd_ds — whole table, not a driver sample; the
    local reference regenerates the centroids bit-exactly for the
    oracle).  Oracle: inlined-centroid argmin assignment +
    cluster-restricted cosine pairs + recursive-CTE transitive
    closure."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents, _ = embed.kmeans_lloyd_ds(ds, KMEANS_K, iters=KMEANS_ITERS)
    return embed.semantic_dedup(
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        cents, threshold=0.4)


_SEMDEDUP_SQL_CACHE: dict = {}


def _semantic_dedup_sql(sf_dir: str):
    if sf_dir in _SEMDEDUP_SQL_CACHE:
        return _SEMDEDUP_SQL_CACHE[sf_dir]
    import os

    f = os.path.join(sf_dir, "embeddings.parquet")
    if not os.path.exists(f):
        _SEMDEDUP_SQL_CACHE[sf_dir] = None
        return None
    import pyarrow.parquet as pq_mod

    emb = pq_mod.read_table(f, columns=["vec_id", "embedding"])
    mat = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    cents = embed.kmeans_lloyd_local(mat, emb["vec_id"].to_numpy(),
                                     KMEANS_K, iters=KMEANS_ITERS)
    n_c, n_d = cents.shape
    values = ",".join(
        f"({cid},{dim + 1},{float(cents[cid, dim])!r})"
        for cid in range(n_c) for dim in range(n_d)
    )
    sql = f"""
WITH RECURSIVE
cents(cid, dim, val) AS (VALUES {values}),
e AS (SELECT vec_id, u.i AS dim, CAST(embedding[u.i] AS DOUBLE) AS x
      FROM embeddings, unnest(range(1, {n_d + 1})) AS u(i)),
d AS (SELECT e.vec_id, c.cid, SUM((e.x - c.val)*(e.x - c.val)) AS dist
      FROM e JOIN cents c ON c.dim = e.dim GROUP BY 1, 2),
a AS (SELECT vec_id, cid,
             row_number() OVER (PARTITION BY vec_id
                                ORDER BY dist, cid) AS rn
      FROM d),
asg AS (SELECT vec_id, cid AS cluster FROM a WHERE rn = 1),
norms AS (SELECT vec_id, sqrt(SUM(x*x)) AS nrm FROM e GROUP BY 1),
dot AS (SELECT aa.vec_id AS id_a, bb.vec_id AS id_b, SUM(aa.x*bb.x) AS dd
        FROM e aa JOIN e bb ON aa.dim = bb.dim AND aa.vec_id < bb.vec_id
        JOIN asg ca ON ca.vec_id = aa.vec_id
        JOIN asg cb ON cb.vec_id = bb.vec_id AND ca.cluster = cb.cluster
        GROUP BY 1, 2),
near AS (SELECT id_a, id_b
         FROM dot JOIN norms na ON na.vec_id = id_a
                  JOIN norms nb ON nb.vec_id = id_b
         WHERE dd/(na.nrm*nb.nrm) >= 0.4),
edges AS (SELECT id_a AS a, id_b AS b FROM near
          UNION ALL SELECT id_b, id_a FROM near),
walk(node, reach) AS (
  SELECT a, a FROM (SELECT DISTINCT a FROM edges)
  UNION
  SELECT w.node, e2.b FROM walk w JOIN edges e2 ON e2.a = w.reach
),
roots AS (SELECT node, MIN(reach) AS root FROM walk GROUP BY node)
SELECT asg.vec_id, CAST(asg.cluster AS BIGINT) AS cluster FROM asg
WHERE asg.vec_id NOT IN (SELECT node FROM roots WHERE root < node)
"""
    _SEMDEDUP_SQL_CACHE[sf_dir] = sql
    return sql


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs at distinct-signature granularity (the
    phash_near_pairs shape over TEXT): banded LSH (8 bands of 8 bits —
    exact for hamming <= 7 by pigeonhole) + XOR-popcount verify, with
    the exact-signature collapse FUSED into the band shuffle and pair
    dedup replaced by first-agreeing-band emission — ONE shuffle total
    (round-4 fuse; was three).  All-int output
    (id_a, id_b, hamming, n_a, n_b)."""
    sigs = dedup.simhash_signatures(
        read_table(sf_dir, "documents", columns=["doc_id", "text"]))
    pairs = dedup.hamming_dup_pairs(sigs, id_col="doc_id",
                                    sig_col="simhash", max_hamming=7,
                                    n_bands=8, max_bucket=None,
                                    collapse_count_col="n_docs")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"n_docs_a": "n_a", "n_docs_b": "n_b"})
        b["n_a"] = b["n_a"].astype(np.int64)
        b["n_b"] = b["n_b"].astype(np.int64)
        return b[["id_a", "id_b", "hamming", "n_a", "n_b"]]

    return pairs.map_batches(finish, batch_format="pandas")


SQL_SIMHASH_PAIRS = f"""
WITH sh AS ({SQL_SIMHASH}),
sig AS (SELECT simhash AS sig, MIN(doc_id) AS rep, COUNT(*) AS n
        FROM sh GROUP BY 1)
SELECT a.rep AS id_a, b.rep AS id_b,
       CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming,
       a.n AS n_a, b.n AS n_b
FROM sig a JOIN sig b ON a.rep < b.rep
WHERE bit_count(xor(a.sig, b.sig)) <= 7
"""


PACK_CAPACITY = 2048  # tokens per training batch
PACK_BUCKET_W = 32    # length-class width


def q_pack_batches(sf_dir: str):
    """SEQUENCE PACKING for training-batch assembly: group documents
    into length classes, then fill fixed token-capacity batches in
    doc_id order — batch_id = exclusive-running-token-sum // capacity
    (the cumsum-split convention: deterministic and window-SQL-
    expressible, unlike stateful first-fit).  The running sum is the
    distributed keyed prefix-sum primitive (agg.keyed_prefix_sum —
    the watermark two-pass shape, no global sort)."""
    from ..stages.agg import keyed_prefix_sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def lens(b: pd.DataFrame) -> pd.DataFrame:
        n = b["text"].str.count(r"\S+").astype(np.int64)
        return pd.DataFrame({"doc_id": b["doc_id"].to_numpy(np.int64),
                             "len_bucket": (n // PACK_BUCKET_W)
                             .to_numpy(np.int64),
                             "n_tokens": n.to_numpy(np.int64)})

    rows = ds.map_batches(lens, batch_format="pandas")
    out = keyed_prefix_sum(rows, "len_bucket", "doc_id", "n_tokens")
    return out.map_batches(
        lambda b: pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64),
            "len_bucket": b["len_bucket"].to_numpy(np.int64),
            "n_tokens": b["n_tokens"].to_numpy(np.int64),
            "batch_id": (b["prefix_excl"].to_numpy(np.int64)
                         // PACK_CAPACITY)}),
        batch_format="pandas")


SQL_PACK_BATCHES = rf"""
WITH t AS (SELECT doc_id,
                  CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                      AS n_tokens
           FROM documents),
w AS (SELECT doc_id, n_tokens // {PACK_BUCKET_W} AS len_bucket, n_tokens,
             SUM(n_tokens) OVER (PARTITION BY n_tokens // {PACK_BUCKET_W}
                                 ORDER BY doc_id
                                 ROWS UNBOUNDED PRECEDING) - n_tokens
                 AS prefix_excl
      FROM t)
SELECT doc_id, len_bucket, n_tokens,
       CAST(prefix_excl // {PACK_CAPACITY} AS BIGINT) AS batch_id
FROM w
"""


PII_EMAIL = r"[a-z0-9.+-]+@[a-z0-9.-]+\.[a-z]{2,}"
PII_IP = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE = r"\d{3}-\d{4,}"


def q_pii_scrub(sf_dir: str):
    """PII DETECTION + REDACTION (the privacy gate every training-data
    pipeline runs): emails / IPv4s / phone-like numbers found and
    replaced, per document.  The testdata text is clean alnum prose,
    so PII is PLANTED deterministically from doc keys (the
    fence_events derivation technique) — same expressions in the SQL
    mirror, so the scrubber is exercised on real positives.  A pure
    map stage: compiled patterns, vectorized count + replace.  Output
    integers: match counts + the redacted length."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(b: pd.DataFrame) -> pd.DataFrame:
        d = b["doc_id"].to_numpy(np.int64)
        txt = b["text"]
        email = pd.Series(
            np.where(d % 3 == 0,
                     [f" contact user{k}@mail.example.com" for k in d], ""),
            index=txt.index)
        phone = pd.Series(
            np.where(d % 5 == 0,
                     [f" call 555-{1000 + k % 9000} now" for k in d], ""),
            index=txt.index)
        ip = pd.Series(
            np.where(d % 7 == 0,
                     [f" ip 10.{k % 256}.{(k * 3) % 256}.{(k * 7) % 256}"
                      for k in d], ""),
            index=txt.index)
        t = txt.str.cat(email).str.cat(phone).str.cat(ip)
        n_em = t.str.count(PII_EMAIL).astype(np.int64)
        clean = t.str.replace(PII_EMAIL, "[EMAIL]", regex=True)
        n_ip = clean.str.count(PII_IP).astype(np.int64)
        clean = clean.str.replace(PII_IP, "[IP]", regex=True)
        n_ph = clean.str.count(PII_PHONE).astype(np.int64)
        clean = clean.str.replace(PII_PHONE, "[PHONE]", regex=True)
        return pd.DataFrame({"doc_id": d,
                             "n_emails": n_em.to_numpy(np.int64),
                             "n_ips": n_ip.to_numpy(np.int64),
                             "n_phones": n_ph.to_numpy(np.int64),
                             "clean_len": clean.str.len()
                             .to_numpy(np.int64)})

    return ds.map_batches(scrub, batch_format="pandas")


SQL_PII_SCRUB = rf"""
WITH t AS (SELECT doc_id,
    text
    || CASE WHEN doc_id % 3 = 0
            THEN ' contact user' || CAST(doc_id AS VARCHAR)
                 || '@mail.example.com' ELSE '' END
    || CASE WHEN doc_id % 5 = 0
            THEN ' call 555-' || CAST(1000 + doc_id % 9000 AS VARCHAR)
                 || ' now' ELSE '' END
    || CASE WHEN doc_id % 7 = 0
            THEN ' ip 10.' || CAST(doc_id % 256 AS VARCHAR)
                 || '.' || CAST((doc_id * 3) % 256 AS VARCHAR)
                 || '.' || CAST((doc_id * 7) % 256 AS VARCHAR)
            ELSE '' END AS txt
    FROM documents),
s1 AS (SELECT doc_id,
              CAST(len(regexp_extract_all(txt, '{PII_EMAIL}')) AS BIGINT)
                  AS n_emails,
              regexp_replace(txt, '{PII_EMAIL}', '[EMAIL]', 'g') AS txt
       FROM t),
s2 AS (SELECT doc_id, n_emails,
              CAST(len(regexp_extract_all(txt, '{PII_IP}')) AS BIGINT)
                  AS n_ips,
              regexp_replace(txt, '{PII_IP}', '[IP]', 'g') AS txt
       FROM s1),
s3 AS (SELECT doc_id, n_emails, n_ips,
              CAST(len(regexp_extract_all(txt, '{PII_PHONE}')) AS BIGINT)
                  AS n_phones,
              regexp_replace(txt, '{PII_PHONE}', '[PHONE]', 'g') AS txt
       FROM s2)
SELECT doc_id, n_emails, n_ips, n_phones,
       CAST(length(txt) AS BIGINT) AS clean_len
FROM s3
"""


KMEANS_K, KMEANS_ITERS = 8, 3


def q_kmeans_assign(sf_dir: str):
    """FULLY DISTRIBUTED k-means training + assignment: Lloyd over the
    WHOLE embedding table (not a driver sample — embed.kmeans_lloyd_ds),
    deterministic at any parallelism via fixed-point integer partial
    sums (the integer-exact rule applied to training), then the argmin
    assignment.  Oracle: the local reference trainer reproduces the
    centroids bit-exactly (pytest-pinned) and inlines them as a VALUES
    table — the ivf_assign technique, now with a distributed-trained
    quantizer."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents, _ = embed.kmeans_lloyd_ds(ds, KMEANS_K, iters=KMEANS_ITERS)
    out = embed.ivf_assign(
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        cents)
    return out.map_batches(
        lambda b: pd.DataFrame({"vec_id": b["vec_id"].to_numpy(np.int64),
                                "cluster": b["ivf_bucket"]
                                .to_numpy(np.int64)}),
        batch_format="pandas")


_KMEANS_SQL_CACHE: dict = {}


def _kmeans_assign_sql(sf_dir: str):
    if sf_dir in _KMEANS_SQL_CACHE:
        return _KMEANS_SQL_CACHE[sf_dir]
    import os

    f = os.path.join(sf_dir, "embeddings.parquet")
    if not os.path.exists(f):
        _KMEANS_SQL_CACHE[sf_dir] = None
        return None
    import pyarrow.parquet as pq_mod

    t = pq_mod.read_table(f, columns=["vec_id", "embedding"])
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    ids = t["vec_id"].to_numpy()
    cents = embed.kmeans_lloyd_local(mat, ids, KMEANS_K, iters=KMEANS_ITERS)
    n_c, n_d = cents.shape
    values = ",".join(
        f"({cid},{dim + 1},{float(cents[cid, dim])!r})"
        for cid in range(n_c) for dim in range(n_d)
    )
    sql = f"""
WITH cents(cid, dim, val) AS (VALUES {values}),
e AS (SELECT vec_id, u.i AS dim, CAST(embedding[u.i] AS DOUBLE) AS x
      FROM embeddings, unnest(range(1, {n_d + 1})) AS u(i)),
d AS (SELECT e.vec_id, c.cid, SUM((e.x - c.val)*(e.x - c.val)) AS dist
      FROM e JOIN cents c ON c.dim = e.dim GROUP BY 1, 2),
a AS (SELECT vec_id, cid,
             row_number() OVER (PARTITION BY vec_id
                                ORDER BY dist, cid) AS rn
      FROM d)
SELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM a WHERE rn = 1
"""
    _KMEANS_SQL_CACHE[sf_dir] = sql
    return sql


IDW_RES = 3            # 8x8 grid
IDW_RADIUS_KM = 3000.0
IDW_SMOOTH_KM = 10.0   # avoids the d->0 singularity, both engines


def q_idw_grid(sf_dir: str):
    """INVERSE-DISTANCE-WEIGHTED grid interpolation (the map-algebra
    surface-fitting op; Shepard 1968): estimate a value surface on a
    coarse tile grid from scattered observations (customer points,
    account balances).  Integer-exact: weights are quantized to
    round(1e8/(d+10)) int64 and balances to cents, so the partial
    (sum_w, sum_wv) accumulators commute exactly across blocks — the
    kmeans_lloyd_ds determinism rule.  Scale shape: the GRID is the
    broadcast side (bounded by resolution), one corpus scan emits
    per-cell integer partials via a vectorized distance matrix,
    two-phase combine finishes on the bounded cell space."""
    n = 1 << IDW_RES
    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    clat = (-90.0 + (ci.ravel() + 0.5) * 180.0 / n)
    clon = (-180.0 + (cj.ravel() + 0.5) * 360.0 / n)
    cell = (ci.ravel() * n + cj.ravel()).astype(np.int64)

    ds = read_table(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        k = b["c_custkey"].to_numpy(np.int64)
        lat, lon = geo.point_from_key(k * 31 + 7)
        v = np.rint(b["c_acctbal"].to_numpy(np.float64) * 100.0) \
            .astype(np.int64)
        d = geo.haversine_km(lat[:, None], lon[:, None],
                             clat[None, :], clon[None, :])
        w = np.rint(1e8 / (d + IDW_SMOOTH_KM)).astype(np.int64)
        mask = d <= IDW_RADIUS_KM
        pi, pj = np.nonzero(mask)
        out = pd.DataFrame({"cell": cell[pj],
                            "n_obs": np.int64(1),
                            "sum_w": w[pi, pj],
                            "sum_wv": w[pi, pj] * v[pi]})
        return out.groupby("cell", sort=False, as_index=False).sum()

    from ..stages.agg import two_phase_agg

    res = two_phase_agg(ds, partial, ["cell"],
                        ["n_obs", "sum_w", "sum_wv"], combine="driver")
    res["idw_cents"] = res["sum_wv"] // res["sum_w"]
    return res.sort_values("cell").reset_index(drop=True)


def _sql_idw() -> str:
    n = 1 << IDW_RES
    d = sql_haversine("p.lat", "p.lon", "g.clat", "g.clon")
    return f"""
WITH g AS (SELECT CAST(ui.i * {n} + uj.j AS BIGINT) AS cell,
                  -90.0 + (ui.i + 0.5) * 180.0 / {n} AS clat,
                  -180.0 + (uj.j + 0.5) * 360.0 / {n} AS clon
           FROM unnest(range(0, {n})) AS ui(i),
                unnest(range(0, {n})) AS uj(j)),
p AS (SELECT {sql_lat('c_custkey*31+7')} AS lat,
             {sql_lon('c_custkey*31+7')} AS lon,
             CAST(round(c_acctbal * 100.0) AS BIGINT) AS v
      FROM customer),
m AS (SELECT g.cell,
             CAST(round(100000000.0 / ({d} + {IDW_SMOOTH_KM})) AS BIGINT)
                 AS w, p.v
      FROM g, p WHERE {d} <= {IDW_RADIUS_KM})
SELECT cell, CAST(COUNT(*) AS BIGINT) AS n_obs,
       CAST(SUM(w) AS BIGINT) AS sum_w,
       CAST(SUM(w * v) AS BIGINT) AS sum_wv,
       CAST(SUM(w * v) // SUM(w) AS BIGINT) AS idw_cents
FROM m GROUP BY cell
"""


SQL_IDW_GRID = _sql_idw()


def q_hash_features(sf_dir: str):
    """Hashing-trick feature vectors (Weinberger et al. 2009): signed
    tf bucket counts, no vocabulary state — a pure map stage
    (text.hash_features).  Long-form all-int output."""
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(lambda b: text.hash_features(b),
                     batch_format="pandas")


SQL_HASH_FEATURES = f"""
WITH tf AS (SELECT doc_id, t.term, CAST(COUNT(*) AS BIGINT) AS c
            FROM documents, unnest({TOK}) AS t(term) GROUP BY 1, 2),
b0 AS (SELECT doc_id, c,
              (strpos('0123456789abcdef', substr(md5(term), 1, 1)) - 1) * 16
              + (strpos('0123456789abcdef', substr(md5(term), 2, 1)) - 1)
                  AS byte0
       FROM tf),
f AS (SELECT doc_id, byte0 % 32 AS bucket,
             CASE WHEN (byte0 // 32) % 2 = 1 THEN c ELSE -c END AS v
      FROM b0)
SELECT doc_id, CAST(bucket AS BIGINT) AS bucket,
       CAST(SUM(v) AS BIGINT) AS feat
FROM f GROUP BY 1, 2 HAVING SUM(v) != 0
"""


def q_pricing_cube(sf_dir: str):
    """OLAP GROUPING SETS (ROLLUP of the pricing dimensions): one
    partial pass emits every grouping-set level at once — (flag,
    status), (flag), () — so the cube costs ONE scan + one bounded
    combine, not one scan per level.  Sentinel '*' marks the rolled-up
    dimension (mirrored in SQL via GROUPING SETS + COALESCE).
    Integer-exact: row counts + quantity in centi-units."""
    from ..stages.agg import two_phase_agg

    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        q100 = np.rint(b["l_quantity"].to_numpy(np.float64) * 100.0) \
            .astype(np.int64)
        base = pd.DataFrame({"flag": b["l_returnflag"].to_numpy(),
                             "status": b["l_linestatus"].to_numpy(),
                             "n": np.int64(1), "qty100": q100})
        lv0 = base.groupby(["flag", "status"], sort=False,
                           as_index=False).sum()
        lv1 = lv0.groupby("flag", sort=False, as_index=False) \
            [["n", "qty100"]].sum().assign(status="*")
        lv2 = pd.DataFrame({"flag": ["*"], "status": ["*"],
                            "n": [lv0["n"].sum()],
                            "qty100": [lv0["qty100"].sum()]})
        return pd.concat([lv0, lv1, lv2], ignore_index=True)[
            ["flag", "status", "n", "qty100"]]

    return two_phase_agg(ds, partial, ["flag", "status"],
                         ["n", "qty100"], combine="driver")


SQL_PRICING_CUBE = """
SELECT COALESCE(l_returnflag, '*') AS flag,
       COALESCE(l_linestatus, '*') AS status,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(round(l_quantity * 100.0) AS BIGINT)) AS BIGINT)
           AS qty100
FROM lineitem
GROUP BY GROUPING SETS ((l_returnflag, l_linestatus), (l_returnflag), ())
"""


RESAMPLE_STEP = 1000


def q_track_resample(sf_dir: str):
    """TRAJECTORY RESAMPLING: each track's position interpolated at
    fixed sequence steps (the regularization step before map matching
    or dwell analysis on irregular GPS streams).  Linear lat/lon
    interpolation between the bracketing fixes (engine-canonical,
    mirrored exactly in SQL).  Scale shape: bucket-hash on point_id;
    inside a bucket ONE vectorized pass — per-track grids built by a
    cumsum/arange expansion, bracketing fixes by two searchsorted
    probes over (track, seq)-encoded keys.  No per-track Python."""
    from ..stages.agg import bucketed_group_apply

    ev = fence_events(sf_dir)
    step = RESAMPLE_STEP

    def resample_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"point_id": pd.Series([], dtype=str),
                              "t": pd.Series([], dtype=np.int64),
                              "lat_i": pd.Series([], dtype=np.float64),
                              "lon_i": pd.Series([], dtype=np.float64)})
        if len(g) == 0:
            return empty
        g = g.sort_values(["point_id", "seq"], kind="mergesort")
        codes, uniques = pd.factorize(g["point_id"], sort=False)
        seq = g["seq"].to_numpy(np.int64)
        lat = g["lat"].to_numpy()
        lon = g["lon"].to_numpy()
        tdf = pd.DataFrame({"c": codes, "seq": seq}).groupby("c", sort=True) \
            .agg(s0=("seq", "min"), s1=("seq", "max"))
        s0 = tdf["s0"].to_numpy(np.int64)
        s1 = tdf["s1"].to_numpy(np.int64)
        t0 = -(-s0 // step) * step  # ceil to the grid
        n = np.maximum(0, (s1 - t0) // step + 1)
        n[t0 > s1] = 0
        total = int(n.sum())
        if total == 0:
            return empty
        track = np.repeat(np.arange(len(n)), n)
        starts = np.concatenate([[0], np.cumsum(n)[:-1]])
        within = np.arange(total) - np.repeat(starts, n)
        t = np.repeat(t0, n) + within * step
        # (track, seq) encoded keys: seq fits far below 2^33
        keys = codes.astype(np.int64) * (1 << 33) + seq
        gkeys = track * (1 << 33) + t
        pi = np.searchsorted(keys, gkeys, side="right") - 1
        ni = np.searchsorted(keys, gkeys, side="left")
        ps, ns = seq[pi], seq[ni]
        frac = np.where(ns == ps, 0.0, (t - ps) / np.where(ns == ps, 1, ns - ps))
        lat_i = lat[pi] + (lat[ni] - lat[pi]) * frac
        lon_i = lon[pi] + (lon[ni] - lon[pi]) * frac
        return pd.DataFrame({
            "point_id": pd.Categorical.from_codes(
                track, categories=uniques).astype(str),
            "t": t, "lat_i": np.round(lat_i, 6),
            "lon_i": np.round(lon_i, 6)})

    return bucketed_group_apply(ev, ["point_id"], resample_bucket)


SQL_TRACK_RESAMPLE = f"""
WITH ev AS ({SQL_EVENT_POINTS}),
b AS (SELECT point_id, MIN(seq) AS s0, MAX(seq) AS s1 FROM ev GROUP BY 1),
g AS (SELECT point_id, u.t AS t
      FROM b, unnest(range(
          CAST(ceil(CAST(s0 AS DOUBLE) / {RESAMPLE_STEP}) AS BIGINT)
              * {RESAMPLE_STEP},
          s1 + 1, {RESAMPLE_STEP})) AS u(t)),
pn AS (SELECT g.point_id, g.t,
              MAX(e.seq) FILTER (e.seq <= g.t) AS ps,
              MIN(e.seq) FILTER (e.seq >= g.t) AS ns
       FROM g JOIN ev e ON e.point_id = g.point_id GROUP BY 1, 2)
SELECT pn.point_id, pn.t,
       round(a.lat + (bb.lat - a.lat) *
             (CASE WHEN pn.ns = pn.ps THEN 0.0
                   ELSE CAST(pn.t - pn.ps AS DOUBLE) / (pn.ns - pn.ps)
              END), 6) AS lat_i,
       round(a.lon + (bb.lon - a.lon) *
             (CASE WHEN pn.ns = pn.ps THEN 0.0
                   ELSE CAST(pn.t - pn.ps AS DOUBLE) / (pn.ns - pn.ps)
              END), 6) AS lon_i
FROM pn JOIN ev a ON a.point_id = pn.point_id AND a.seq = pn.ps
        JOIN ev bb ON bb.point_id = pn.point_id AND bb.seq = pn.ns
"""


def _upsert_split(sf_dir: str, new: bool):
    def f(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["doc_id"].to_numpy(np.int64) % 5 == 0)
        return b[m if new else ~m]

    return read_table(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(f, batch_format="pandas")


# ---------------------------------------------------------------------------
# OSM-format ingestion proof (round-5 ask #8): the reference's reader
# semantics (parse_osm.go:42-137 — S1 filtered entity scan + M1 tag
# allow-filter + M2 name extraction, and S2/J1 way->node ref
# resolution) over a checked-in REAL-format OSM XML extract
# (tests/data/sample.osm, deterministically synthesized — sandbox
# forbids external data).  The oracle reads the SAME content from
# flattened CSVs, so a value match proves the XML parser and the
# resolve semantics, not the data.

import os as _os

_OSM_DATA_DIR = _os.path.join(
    _os.path.dirname(_os.path.dirname(_os.path.dirname(
        _os.path.abspath(__file__)))), "tests", "data")
OSM_SAMPLE = _os.path.join(_OSM_DATA_DIR, "sample.osm")
OSM_POI_AMENITIES = ("restaurant", "cafe", "school")


def q_osm_poi_extract(sf_dir: str):
    """S1+M1+M2 on real-format OSM XML: parse nodes, allow-filter on
    the amenity tag, carry the extracted name.  `sf_dir` is unused —
    the input is the checked-in extract (fixture by design)."""
    from ..sources.osm import read_osm

    nodes = read_osm(OSM_SAMPLE, kind="nodes")
    allow = pa.array(list(OSM_POI_AMENITIES))

    def f(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["amenity"], value_set=allow))

    return nodes.map_batches(f, batch_format="pyarrow")


SQL_OSM_POI_EXTRACT = f"""
SELECT CAST(node_id AS BIGINT) AS node_id, lat, lon,
       COALESCE(amenity, '') AS amenity, COALESCE(name, '') AS name
FROM read_csv('{_OSM_DATA_DIR}/sample_nodes.csv', header=true)
WHERE amenity IN ('restaurant', 'cafe', 'school')
"""


def q_osm_way_lengths(sf_dir: str):
    """S2/J1 on real-format OSM XML: resolve way->node refs against
    the node table and emit per-way polyline length (m, rounded int).
    A way with ANY unresolved ref is dropped — the reference's
    resolve-or-skip semantics.  The bounded node side broadcasts once
    (ray.put + per-process cache); at planet scale the same operator
    is the keyed explode+join (stages/knn.py CompiledSegments
    build)."""
    import ray

    from ..sources.osm import read_osm
    from ..stages.agg import bucketed_group_apply
    from ..stages.knn import cached_state

    refs = read_osm(OSM_SAMPLE, kind="way_refs")
    nd = read_osm(OSM_SAMPLE, kind="nodes") \
        .select_columns(["node_id", "lat", "lon"]).to_pandas()
    order = np.argsort(nd["node_id"].to_numpy())
    ref_obj = ray.put((nd["node_id"].to_numpy(np.int64)[order],
                       nd["lat"].to_numpy(np.float64)[order],
                       nd["lon"].to_numpy(np.float64)[order]))

    def resolve(b: pa.Table) -> pa.Table:
        ids_s, la_s, lo_s = cached_state(
            f"osmnodes-{ref_obj.hex()}", lambda: ray.get(ref_obj))
        nid = b["node_id"].to_numpy()
        pos = np.searchsorted(ids_s, nid)
        pos[pos >= len(ids_s)] = 0
        ok = ids_s[pos] == nid
        return pa.table({
            "way_id": b["way_id"], "seq": b["seq"],
            "lat": pa.array(la_s[pos]), "lon": pa.array(lo_s[pos]),
            "ok": pa.array(ok),
        })

    def way_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["way_id", "seq"], kind="mergesort")
        w = g["way_id"].to_numpy(np.int64)
        la = g["lat"].to_numpy(np.float64)
        lo = g["lon"].to_numpy(np.float64)
        ok = g["ok"].to_numpy(bool)
        same = w[1:] == w[:-1] if len(w) else np.array([], dtype=bool)
        seg_km = (geo.haversine_km(la[:-1], lo[:-1], la[1:], lo[1:]) * same
                  if len(w) > 1 else np.array([], dtype=np.float64))
        starts = np.flatnonzero(np.r_[True, ~same]) if len(w) else \
            np.array([], dtype=np.int64)
        n_nodes = np.diff(np.r_[starts, len(w)])
        all_ok = np.add.reduceat(ok.astype(np.int64), starts) == n_nodes \
            if len(w) else np.array([], dtype=bool)
        km = np.add.reduceat(np.r_[seg_km, 0.0], starts) if len(w) else \
            np.array([], dtype=np.float64)
        out = pd.DataFrame({
            "way_id": w[starts],
            "n_nodes": n_nodes.astype(np.int64),
            "length_m": np.round(1000.0 * km).astype(np.int64),
        })
        return out[all_ok]

    return bucketed_group_apply(
        refs.map_batches(resolve, batch_format="pyarrow"),
        ["way_id"], way_bucket)


SQL_OSM_WAY_LENGTHS = f"""
WITH r AS (SELECT CAST(way_id AS BIGINT) AS way_id,
                  CAST(seq AS BIGINT) AS seq,
                  CAST(node_id AS BIGINT) AS node_id
           FROM read_csv('{_OSM_DATA_DIR}/sample_way_refs.csv', header=true)),
n AS (SELECT CAST(node_id AS BIGINT) AS node_id, lat, lon
      FROM read_csv('{_OSM_DATA_DIR}/sample_nodes.csv', header=true)),
j AS (SELECT r.way_id, r.seq, n.lat, n.lon
      FROM r JOIN n ON n.node_id = r.node_id),
cnt AS (SELECT way_id, COUNT(*) AS n_refs FROM r GROUP BY 1),
res AS (SELECT way_id, COUNT(*) AS n_resolved FROM j GROUP BY 1),
ok AS (SELECT c.way_id, c.n_refs FROM cnt c
       JOIN res ON res.way_id = c.way_id AND res.n_resolved = c.n_refs),
seg AS (SELECT a.way_id,
               {sql_haversine('a.lat', 'a.lon', 'b.lat', 'b.lon')} AS km
        FROM j a JOIN j b ON b.way_id = a.way_id AND b.seq = a.seq + 1)
SELECT ok.way_id, CAST(ok.n_refs AS BIGINT) AS n_nodes,
       CAST(round(1000.0 * COALESCE(SUM(seg.km), 0.0)) AS BIGINT)
         AS length_m
FROM ok LEFT JOIN seg ON seg.way_id = ok.way_id
GROUP BY 1, 2
"""


def prepare_upsert_artifact(sf_dir: str) -> str:
    """Build (or reuse) the old-80% postings artifact for
    q_index_upsert — a FIXTURE, not part of the measured merge: the
    artifact is deterministic data derived only from sf_dir, so it is
    cached under /tmp keyed by (sf_dir, format version) and reused.
    bench.py calls this untimed so the index_upsert bench number
    measures merge_postings, not /tmp round-trips."""
    import hashlib
    import os
    import shutil

    # key the cache by a DATA fingerprint too (size + mtime of the
    # source parquet), not just the path: a regenerated dataset at the
    # same path must invalidate the artifact (round-4 ADVICE — a stale
    # artifact fails the oracle looking like an engine bug)
    src = os.path.join(sf_dir, "documents.parquet")
    try:
        st = os.stat(src)
        fp = f"{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        fp = "missing"
    tag = hashlib.md5(f"{sf_dir}|{fp}|v2".encode()).hexdigest()[:8]
    art = f"/tmp/graft_upsert_postings_{tag}"
    if not os.path.exists(os.path.join(art, "_SUCCESS")):
        shutil.rmtree(art, ignore_errors=True)
        os.makedirs(art, exist_ok=True)
        text.postings_lists(_upsert_split(sf_dir, new=False)) \
            .write_parquet(art)
        with open(os.path.join(art, "_SUCCESS"), "w") as fh:
            fh.write("ok")
    return art


def q_index_upsert(sf_dir: str):
    """INCREMENTAL INDEXING proven equal to a full rebuild: the corpus
    is split (doc_id % 5 == 0 arrives 'later'), the old 80% is built
    and WRITTEN as a postings artifact (cached fixture — see
    prepare_upsert_artifact), the artifact is read back and merged
    with the new 20% (indexer.merge_postings — cost O(new + affected
    lists)), and the oracle is the one-shot SQL postings over the FULL
    corpus: incremental == batch, row for row (the dedup_incremental
    proof pattern; reference DynamicIndexer)."""
    import ray.data as rd

    art = prepare_upsert_artifact(sf_dir)
    new_docs = _upsert_split(sf_dir, new=True)
    from .indexer import merge_postings

    merged = merge_postings(rd.read_parquet(art), new_docs)

    def stringify(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["postings"] = b["postings"].map(
            lambda lst: ",".join(str(int(i)) for i in lst))
        return b[["term", "postings", "df"]]

    return merged.map_batches(stringify, batch_format="pandas")


SQL_INDEX_UPSERT = f"""
SELECT term, array_to_string(list(doc_id ORDER BY doc_id), ',') AS postings,
       CAST(COUNT(*) AS BIGINT) AS df
FROM (SELECT DISTINCT t.term, d.doc_id
      FROM documents d, unnest({TOK}) AS t(term))
GROUP BY term
"""


def q_recon_keys(sf_dir: str):
    """DATA RECONCILIATION (full-outer key membership): how many
    customer keys have orders, how many are order-less, and how many
    order custkeys are dangling — the integrity check every ingest
    pipeline runs between a dimension and its fact table.  One pass
    per side collapses to distinct keys tagged with a side bit; a
    bucket-hash combine ORs the bits per key; the bounded 3-way count
    finishes driver-side.  No join operator needed — membership is an
    aggregation over (key, side)."""
    from ..stages.agg import bucketed_group_apply

    # the dimension side is windowed (c_custkey % 3 != 0) and the fact
    # side date-restricted (1995 orders) so all three reconciliation
    # classes actually occur — same derivations in the SQL mirror
    def cust_side(b: pd.DataFrame) -> pd.DataFrame:
        k = b["c_custkey"].to_numpy(np.int64)
        k = np.unique(k[k % 3 != 0])
        return pd.DataFrame({"k": k, "side": np.int64(1)})

    def orders_side(b: pd.DataFrame) -> pd.DataFrame:
        m = b["o_orderdate"].dt.year == 1995
        k = np.unique(b.loc[m, "o_custkey"].to_numpy(np.int64))
        return pd.DataFrame({"k": k, "side": np.int64(2)})

    cust = read_table(sf_dir, "customer", columns=["c_custkey"]) \
        .map_batches(cust_side, batch_format="pandas")
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderdate"]) \
        .map_batches(orders_side, batch_format="pandas")

    def or_bits(g: pd.DataFrame) -> pd.DataFrame:
        # OR of side bits == sum over the key's DISTINCT sides
        m = g.drop_duplicates(["k", "side"]) \
            .groupby("k", sort=False, as_index=False)["side"].sum() \
            .rename(columns={"side": "bits"})
        vc = m["bits"].value_counts()
        return pd.DataFrame({"bits": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    res = bucketed_group_apply(cust.union(orders), ["k"], or_bits) \
        .to_pandas().groupby("bits", sort=True, as_index=False)["n"].sum()
    names = {1: "customer_only", 2: "orders_only", 3: "both"}
    res["side"] = res["bits"].map(names)
    return res[["side", "n"]].sort_values("side").reset_index(drop=True)


SQL_RECON_KEYS = """
WITH c AS (SELECT DISTINCT c_custkey AS k FROM customer
           WHERE c_custkey % 3 != 0),
o AS (SELECT DISTINCT o_custkey AS k FROM orders
      WHERE year(o_orderdate) = 1995),
j AS (SELECT COALESCE(c.k, o.k) AS k,
             CASE WHEN c.k IS NULL THEN 'orders_only'
                  WHEN o.k IS NULL THEN 'customer_only'
                  ELSE 'both' END AS side
      FROM c FULL OUTER JOIN o ON c.k = o.k)
SELECT side, CAST(COUNT(*) AS BIGINT) AS n FROM j GROUP BY side
"""


# ---------------------------------------------------------------------------
# registry


# the driver's correctness gate runs at sf0.01 (task contract); the
# trained-state oracle SQL below is regenerated for WHATEVER sf_dir the
# harness passes (round-5 un-pinning: tools/check_oracles.py and the
# sf-parity tests pass their own sf), so the registry is green at any sf
ORACLE_SF = "/root/testdata/sf0.01"


def registry(sf_dir: str = ORACLE_SF):
    """name -> (ray_fn, oracle_sql | None).

    sf_dir parameterizes ONLY the trained-state oracle SQL builders
    (kmeans / PQ / IVF / BPE / SemDeDup) — their VALUES tables inline
    artifacts retrained from that sf's data by the local reference
    trainers, bit-identical to the distributed trainers the ray fns
    use.  The ray callables themselves always take sf_dir per call."""
    return {
        # geospatial core
        "tile_assign": (q_tile_assign, SQL_TILE_ASSIGN),
        "tile_histogram": (q_tile_histogram, SQL_TILE_HISTOGRAM),
        "pip_join": (q_pip_join, SQL_PIP_JOIN),
        "pip_antijoin": (q_pip_antijoin, SQL_PIP_ANTIJOIN),
        "rasterize": (q_rasterize, SQL_RASTERIZE),
        "zonal_stats": (q_zonal_stats, SQL_ZONAL_STATS),
        "overlap_join": (q_overlap_join, SQL_OVERLAP_JOIN),
        "region_areas": (q_region_areas, SQL_REGION_AREAS),
        "tile_pyramid": (q_tile_pyramid, SQL_TILE_PYRAMID),
        "zorder_assign": (q_zorder_assign, SQL_ZORDER),
        "focal_sum": (q_focal_sum, SQL_FOCAL_SUM),
        "idw_grid": (q_idw_grid, SQL_IDW_GRID),
        "vectorize": (q_vectorize, SQL_VECTORIZE),
        "knn_join": (q_knn_join, SQL_KNN_JOIN),
        "knn_radius_filter": (q_knn_radius_filter, SQL_KNN_RADIUS),
        "reverse_geocode": (q_reverse_geocode, SQL_REVERSE_GEOCODE),
        "geofence_transitions": (q_geofence_transitions, SQL_GEOFENCE),
        "fence_last_positions": (q_fence_last_positions, SQL_LAST_POSITIONS),
        "track_lengths": (q_track_lengths, SQL_TRACK_LENGTHS),
        "stay_points": (q_stay_points, SQL_STAY_POINTS),
        "track_resample": (q_track_resample, SQL_TRACK_RESAMPLE),
        # text / search
        "postings_pairs": (q_postings_pairs, SQL_POSTINGS),
        "term_df": (q_term_df, SQL_TERM_DF),
        "doc_lengths": (q_doc_lengths, SQL_DOC_LENGTHS),
        "bm25f_topk": (q_bm25f_topk, SQL_BM25F),
        "bm25plus_topk": (q_bm25plus_topk, SQL_BM25PLUS),
        "tfidf_topk": (q_tfidf_topk, SQL_TFIDF),
        "ngram_bigrams": (q_ngram_bigrams, SQL_BIGRAMS),
        "vocab_min_freq": (q_vocab_min_freq, SQL_VOCAB),
        "quality_signals": (q_quality_signals, SQL_QUALITY),
        "quality_filter": (q_quality_filter, SQL_QUALITY_FILTER),
        "lang_id": (q_lang_id, SQL_LANG_ID),
        "token_counts": (q_token_counts, SQL_TOKEN_COUNTS),
        "repetition_signals": (q_repetition_signals, SQL_REPETITION),
        "repetition_filter": (q_repetition_filter, SQL_REPETITION_FILTER),
        "chunk_windows": (q_chunk_windows, SQL_CHUNK_WINDOWS),
        "decontaminate": (q_decontaminate, SQL_DECONTAMINATE),
        "events_funnel": (q_events_funnel, SQL_EVENTS_FUNNEL),
        "source_mix_sample": (q_source_mix_sample, SQL_SOURCE_MIX),
        "dict_encode": (q_dict_encode, SQL_DICT_ENCODE),
        "retention_cohorts": (q_retention_cohorts, SQL_RETENTION),
        "dup_ngram_coverage": (q_dup_ngram_coverage, SQL_DUP_NGRAM_COVERAGE),
        "image_edge_energy": (q_image_edge_energy, SQL_IMAGE_EDGE_ENERGY),
        "video_scene_changes": (q_video_scene_changes, SQL_VIDEO_SCENES),
        "pagerank": (q_pagerank, SQL_PAGERANK),
        "corpus_prep": (q_corpus_prep, SQL_CORPUS_PREP),
        "char_percentiles": (q_char_percentiles, SQL_CHAR_PERCENTILES),
        "props_extract": (q_props_extract, SQL_PROPS_EXTRACT),
        "track_map_match": (q_track_map_match, SQL_TRACK_MAP_MATCH),
        # dedup
        "dedup_exact": (q_dedup_exact, SQL_DEDUP_EXACT),
        "dedup_incremental": (q_dedup_incremental, SQL_DEDUP_INCREMENTAL),
        "shingle_common": (_shingle_common_impl, SQL_SHINGLE_COMMON),
        "near_dedup_keep": (q_near_dedup_keep, SQL_NEAR_DEDUP_KEEP),
        "near_dedup_minhash": (q_near_dedup_minhash, SQL_NEAR_DEDUP_KEEP),
        "cc_labels": (q_cc_labels, SQL_CC_LABELS),
        "fingerprints": (q_fingerprints, SQL_FINGERPRINTS),
        "fingerprint_pairs": (q_fingerprint_pairs, SQL_FINGERPRINT_PAIRS),
        "sample_stratified": (q_sample_stratified, SQL_SAMPLE_STRATIFIED),
        # embeddings
        "embedding_knn": (q_embedding_knn, SQL_EMBEDDING_KNN),
        "hybrid_search_rrf": (q_hybrid_search_rrf, SQL_HYBRID_RRF),
        "embedding_near_pairs": (q_embedding_near_pairs, SQL_EMBEDDING_PAIRS),
        "ivf_search": (q_ivf_search, SQL_EMBEDDING_KNN),
        "pq_encode": (q_pq_encode, _pq_encode_sql(sf_dir)),
        "semantic_dedup": (q_semantic_dedup, _semantic_dedup_sql(sf_dir)),
        "kmeans_assign": (q_kmeans_assign, _kmeans_assign_sql(sf_dir)),
        "pq_search": (q_pq_search, _pq_search_sql(sf_dir)),
        "ivfpq_search": (q_ivfpq_search, _pq_search_sql(sf_dir)),
        # relational coverage
        "pricing_summary": (q_pricing_summary, SQL_PRICING),
        "pricing_cube": (q_pricing_cube, SQL_PRICING_CUBE),
        "recon_keys": (q_recon_keys, SQL_RECON_KEYS),
        "segment_revenue": (q_segment_revenue, SQL_SEGMENT_REVENUE),
        "top_orders": (q_top_orders, SQL_TOP_ORDERS),
        "events_window": (q_events_window, SQL_EVENTS_WINDOW),
        "events_sessionize": (q_events_sessionize, SQL_SESSIONIZE),
        "events_sliding": (q_events_sliding, SQL_EVENTS_SLIDING),
        "events_asof": (q_events_asof, SQL_EVENTS_ASOF),
        "events_window_join": (q_events_window_join, SQL_EVENTS_WINDOW_JOIN),
        "cdc_upsert": (q_cdc_upsert, SQL_CDC_UPSERT),
        "late_events": (q_late_events, SQL_LATE_EVENTS),
        "profile_columns": (q_profile_columns, SQL_PROFILE_COLUMNS),
        "range_join": (q_range_join, SQL_RANGE_JOIN),
        "bloom_semijoin": (q_bloom_semijoin, SQL_BLOOM_SEMIJOIN),
        "heavy_hitters": (q_heavy_hitters, SQL_HEAVY_HITTERS),
        "distance_join": (q_distance_join, SQL_DISTANCE_JOIN),
        "dbscan": (q_dbscan, SQL_DBSCAN),
        "sample_hash": (q_sample_hash, SQL_SAMPLE_HASH),
        "grouped_quantiles": (q_grouped_quantiles, SQL_GROUPED_QUANTILES),
        "grouped_topn": (q_grouped_topn, SQL_GROUPED_TOPN),
        "event_type_users": (q_event_type_users, SQL_EVENT_TYPE_USERS),
        # approximate by construction -> rows-only (reason in docstring)
        "event_type_users_hll": (q_event_type_users_hll, None),
        "value_quantiles_kll": (q_value_quantiles_kll, None),
        "event_type_counts": (q_event_type_counts, SQL_EVENT_TYPE_COUNTS),
        "boolean_and": (q_boolean_and, SQL_BOOLEAN_AND),
        "boolean_or": (q_boolean_or, SQL_BOOLEAN_OR),
        "boolean_and_not": (q_boolean_and_not, SQL_BOOLEAN_AND_NOT),
        "knn_cell": (q_knn_cell, SQL_KNN_CELL),
        "knn_cell_unbounded": (q_knn_cell_unbounded, SQL_KNN_CELL_UNBOUNDED),
        "full_address": (q_full_address, SQL_FULL_ADDRESS),
        # rows-only (non-SQL-expressible)
        "image_tile_pipeline": (q_image_tile_pipeline, SQL_IMAGE_TILE),
        "minhash_pairs": (q_minhash_pairs, SQL_MINHASH_PAIRS),
        "simhash_signatures": (q_simhash_signatures, SQL_SIMHASH),
        # training is non-SQL (5 Lloyd iterations), but the trained
        # centroids are inlined as a VALUES table and the assignment is
        # verified row for row (q_ivf_assign docstring)
        "ivf_assign": (q_ivf_assign, _ivf_assign_sql(sf_dir)),
        "bpe_encode": (q_bpe_encode, _bpe_sql(sf_dir)),
        "lm_doc_stats": (q_lm_doc_stats, SQL_LM_DOC_STATS),
        "simhash_pairs": (q_simhash_pairs, SQL_SIMHASH_PAIRS),
        "pack_batches": (q_pack_batches, SQL_PACK_BATCHES),
        "pii_scrub": (q_pii_scrub, SQL_PII_SCRUB),
        "hash_features": (q_hash_features, SQL_HASH_FEATURES),
        "postings_lists": (q_postings_lists, SQL_POSTINGS_LISTS),
        "index_upsert": (q_index_upsert, SQL_INDEX_UPSERT),
        "search_fulltext": (q_search_fulltext, SQL_SEARCH_FULLTEXT),
        "autocomplete": (q_autocomplete, SQL_AUTOCOMPLETE),
        "image_decode_stats": (q_image_decode_stats, SQL_IMAGE_DECODE_STATS),
        "image_ahash": (q_image_ahash, SQL_IMAGE_AHASH),
        "phash_near_pairs": (q_phash_near_pairs, SQL_PHASH_NEAR_PAIRS),
        "phash_dedup_keep": (q_phash_dedup_keep, SQL_PHASH_DEDUP_KEEP),
        "tile_mosaic": (q_tile_mosaic, SQL_TILE_MOSAIC),
        "image_resize_stats": (q_image_resize_stats, SQL_IMAGE_RESIZE_STATS),
        "image_embed_sums": (q_image_embed_sums, SQL_IMAGE_EMBED_SUMS),
        "video_frame_stats": (q_video_frame_stats, SQL_VIDEO_FRAME_STATS),
        "audio_features": (q_audio_features, SQL_AUDIO_FEATURES),
        # real-format OSM XML ingestion proof (round-5; fixture input)
        "osm_poi_extract": (q_osm_poi_extract, SQL_OSM_POI_EXTRACT),
        "osm_way_lengths": (q_osm_way_lengths, SQL_OSM_WAY_LENGTHS),
    }
