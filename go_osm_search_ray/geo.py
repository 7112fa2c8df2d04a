"""Vectorized geospatial kernels (numpy), mirroring the reference's scalar math.

Reference formulas reimplemented 1:1 (so golden tests match row-for-row):

- haversine km        -> /root/reference/pkg/datastructure/distance.go:19-28
- winding-number PIP  -> /root/reference/pkg/geo/geometry.go:90-126
  (on-boundary counts as inside, geometry.go:107-110)
- destination point   -> /root/reference/pkg/geo/geometry.go:131-155
- circle contains     -> /root/reference/pkg/datastructure/circle.go:40-42
- line-circle cross   -> /root/reference/pkg/datastructure/circle.go:54-96
  (equirectangular projection, meters, quadratic discriminant)
- great-circle midpoint -> /root/reference/pkg/geo/geometry.go:67-80

The tile grid replaces the reference's R-tree as the spatial index: a
2^res x 2^res row-major lat/lon grid; cell id = y * 2^res + x.  It is
deliberately SQL-expressible so DuckDB oracles can recompute it.

All functions are vectorized over numpy arrays and are the single
source of truth used by every Ray stage.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0
EARTH_RADIUS_M = 6371007.0  # reference distance.go:7

# ---------------------------------------------------------------------------
# distances


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km (reference distance.go:19-28)."""
    lat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    lon1 = np.radians(np.asarray(lon1, dtype=np.float64))
    lat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    lon2 = np.radians(np.asarray(lon2, dtype=np.float64))
    a = (1 - np.cos(lat1 - lat2)) / 2.0 + np.cos(lat1) * np.cos(lat2) * (
        1 - np.cos(lon1 - lon2)
    ) / 2.0
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def hav_matrix(lat_a, lon_a, lat_b, lon_b):
    """Pairwise haversine "a" term as an (len_a, len_b) matrix WITHOUT
    per-pair trig: cos(x-y) expands to outer products of per-point
    sin/cos, so the matrix is 4 rank-1 updates (BLAS) + elementwise.

    Monotone in distance: argsort/threshold on `a` == on distance
    (dist = 2R asin(sqrt(clip(a)))), so candidate selection can happen
    on `a` and the exact `haversine_km` formula is re-evaluated only on
    the selected pairs (keeping emitted distances bit-identical to the
    scalar formula used by the SQL oracles).
    """
    la = np.radians(np.asarray(lat_a, dtype=np.float64))
    lo = np.radians(np.asarray(lon_a, dtype=np.float64))
    lb = np.radians(np.asarray(lat_b, dtype=np.float64))
    ob = np.radians(np.asarray(lon_b, dtype=np.float64))
    # identity: hav(theta) = (1 - cos(theta))/2 and cos(theta) is the
    # dot product of the 3-D unit vectors — ONE (n,3)@(3,m) BLAS matmul
    # and two in-place passes, instead of several full-matrix
    # temporaries (this matters: selection matrices are the hot path)
    va = np.stack([np.cos(la) * np.cos(lo), np.cos(la) * np.sin(lo), np.sin(la)],
                  axis=1)
    vb = np.stack([np.cos(lb) * np.cos(ob), np.cos(lb) * np.sin(ob), np.sin(lb)],
                  axis=0)
    out = va @ vb
    out *= -0.5
    out += 0.5
    return out


def hav_of_km(dist_km):
    """Haversine "a" value equivalent to a km distance (for thresholds
    against hav_matrix)."""
    x = np.sin(np.asarray(dist_km, dtype=np.float64) / (2.0 * EARTH_RADIUS_KM))
    return x * x


def great_circle_midpoint(lat1, lon1, lat2, lon2):
    """Midpoint along the great circle (reference geometry.go:67-80)."""
    lat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    lon1 = np.radians(np.asarray(lon1, dtype=np.float64))
    lat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    lon2 = np.radians(np.asarray(lon2, dtype=np.float64))
    bx = np.cos(lat2) * np.cos(lon2 - lon1)
    by = np.cos(lat2) * np.sin(lon2 - lon1)
    lat_m = np.arctan2(
        np.sin(lat1) + np.sin(lat2),
        np.sqrt((np.cos(lat1) + bx) ** 2 + by**2),
    )
    lon_m = lon1 + np.arctan2(by, np.cos(lat1) + bx)
    return np.degrees(lat_m), np.degrees(lon_m)


def destination_point(lat, lon, bearing_deg, dist_km):
    """Destination along a great circle (reference geometry.go:131-155)."""
    dr = np.asarray(dist_km, dtype=np.float64) / EARTH_RADIUS_KM
    brg = np.radians(np.asarray(bearing_deg, dtype=np.float64))
    lat1 = np.radians(np.asarray(lat, dtype=np.float64))
    lon1 = np.radians(np.asarray(lon, dtype=np.float64))
    lat2 = np.arcsin(np.sin(lat1) * np.cos(dr) + np.cos(lat1) * np.sin(dr) * np.cos(brg))
    lon2 = lon1 + np.arctan2(
        np.sin(brg) * np.sin(dr) * np.cos(lat1),
        np.cos(dr) - np.sin(lat1) * np.sin(lat2),
    )
    lon2 = np.mod(lon2 + 3 * np.pi, 2 * np.pi) - np.pi
    return np.degrees(lat2), np.degrees(lon2)


# ---------------------------------------------------------------------------
# tile grid ("H3/S2 role": spatial partition key).  SQL-expressible:
#   x = least(greatest(floor((lon+180)/360*2^res),0),2^res-1)
#   y = least(greatest(floor((lat+90)/180*2^res),0),2^res-1)
#   tile = y*2^res + x

DEFAULT_TILE_RES = 7


def tile_xy(lat, lon, res=DEFAULT_TILE_RES):
    n = 1 << res
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    x = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0, n - 1).astype(np.int64)
    y = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0, n - 1).astype(np.int64)
    return x, y


def tile_id(lat, lon, res=DEFAULT_TILE_RES):
    """Row-major cell id on a 2^res x 2^res lat/lon grid."""
    x, y = tile_xy(lat, lon, res)
    return y * (1 << res) + x


def tile_parent(tile, res, parent_res):
    """Hierarchical coarsening: drop (res - parent_res) bits per axis."""
    tile = np.asarray(tile, dtype=np.int64)
    n = 1 << res
    x, y = tile % n, tile // n
    shift = res - parent_res
    return (y >> shift) * (1 << parent_res) + (x >> shift)


def tile_bounds(tile, res=DEFAULT_TILE_RES):
    """(lat_min, lat_max, lon_min, lon_max) of a cell."""
    tile = np.asarray(tile, dtype=np.int64)
    n = 1 << res
    x, y = tile % n, tile // n
    dlat, dlon = 180.0 / n, 360.0 / n
    return (-90.0 + y * dlat, -90.0 + (y + 1) * dlat, -180.0 + x * dlon, -180.0 + (x + 1) * dlon)


def tile_ring(tile, res=DEFAULT_TILE_RES, radius=1):
    """Neighbor cells within `radius` grid steps (Chebyshev ring incl. self).

    The kNN candidate-gather key (replaces the reference's incremental
    R-tree traversal, rtree.go:685-723).  Longitude wraps; latitude clamps.
    Returns a 2-D int64 array (len(tile), (2*radius+1)^2).
    """
    tile = np.atleast_1d(np.asarray(tile, dtype=np.int64))
    n = 1 << res
    x, y = tile % n, tile // n
    offs = np.arange(-radius, radius + 1)
    ox, oy = np.meshgrid(offs, offs, indexing="ij")
    ox, oy = ox.ravel(), oy.ravel()
    nx = (x[:, None] + ox[None, :]) % n
    ny = np.clip(y[:, None] + oy[None, :], 0, n - 1)
    return ny * n + nx


def cells_for_radius_km(lat, res, radius_km):
    """Grid-step radius needed so a km radius around a point at `lat` is covered.

    The worst-case longitude compression inside the circle is at the
    latitude furthest from the equator the circle can REACH (|lat| +
    radius), not at the query's own latitude — a query at lat 77 with a
    1500 km radius must cover cells near lat 89 where a degree of
    longitude is ~50x shorter.  When the circle reaches the pole the
    covering degenerates to a full-longitude wrap (callers clamp the
    returned ring radius to n/2, which wraps)."""
    n = 1 << res
    km_per_deg = 111.19492664455873  # km per degree latitude (R=6371)
    dlat_km = 180.0 / n * km_per_deg
    lat_worst = min(89.999, abs(float(lat)) + radius_km / km_per_deg)
    coslat = max(1e-9, float(np.cos(np.radians(lat_worst))))
    dlon_km = 360.0 / n * km_per_deg * coslat
    r = radius_km / min(dlat_km, dlon_km)
    return int(min(np.ceil(r), n))  # n steps of longitude = full wrap


# ---------------------------------------------------------------------------
# point in polygon (winding number; on-segment bbox test = inside)


def concat_ranges(start, count):
    """Concatenated aranges [start[j], start[j] + count[j]) (int64):
    the flat positions of CSR slices, with no per-slice Python."""
    count = np.asarray(count, dtype=np.int64)
    excl = np.cumsum(count) - count
    return np.repeat(np.asarray(start, dtype=np.int64) - excl, count) + np.arange(
        int(count.sum()), dtype=np.int64)


def flat_points(col):
    """A list<struct<lat, lon>> column as flat vertex arrays plus row
    offsets: (lat, lon, offsets), row i's vertices at
    offsets[i]:offsets[i + 1].  Read from the Arrow list layout, with
    no per-row Python; a null row has no vertices."""
    import pyarrow.compute as pc

    lengths = pc.fill_null(pc.list_value_length(col), 0).to_numpy()
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = pc.list_flatten(col)
    return (pc.struct_field(flat, "lat").to_numpy().astype(np.float64, copy=False),
            pc.struct_field(flat, "lon").to_numpy().astype(np.float64, copy=False),
            offsets)


def point_in_rings(lat, lon, v_lat, v_lon, start, end):
    """Winding-number PIP for point/ring PAIRS: pair j tests point
    (lat[j], lon[j]) against the closed ring v[start[j]:end[j]] (first
    vertex == last).  All pairs' edges are tested in one vectorized pass.

    Mirrors reference geometry.go:90-126 exactly:
    - the "on segment" check is an axis-aligned bbox test per segment
      (geometry.go:94-102) and short-circuits to inside;
    - up-crossing counted when seg_lat[i] <= p < seg_lat[i+1] and point
      left of the edge; down-crossing symmetric.
    Returns a bool array, one entry per pair."""
    lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
    lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
    n_edges = np.maximum(np.asarray(end) - np.asarray(start) - 1, 0)
    pair = np.repeat(np.arange(len(lat)), n_edges)
    e = concat_ranges(start, n_edges)
    a_lat, a_lon = v_lat[e], v_lon[e]
    b_lat, b_lon = v_lat[e + 1], v_lon[e + 1]
    p_lat, p_lon = lat[pair], lon[pair]

    on_seg = (
        (p_lon >= np.minimum(a_lon, b_lon))
        & (p_lon <= np.maximum(a_lon, b_lon))
        & (p_lat >= np.minimum(a_lat, b_lat))
        & (p_lat <= np.maximum(a_lat, b_lat))
    )
    cross = (b_lon - a_lon) * (p_lat - a_lat) - (p_lon - a_lon) * (b_lat - a_lat)
    up = (a_lat <= p_lat) & (b_lat > p_lat) & (cross > 0)
    down = (a_lat > p_lat) & (b_lat <= p_lat) & (cross < 0)
    n = len(lat)
    on = np.bincount(pair, weights=on_seg, minlength=n) > 0
    wn = (np.bincount(pair, weights=up, minlength=n)
          - np.bincount(pair, weights=down, minlength=n))
    return on | (wn != 0)


def point_in_polygon(lat, lon, ring_lat, ring_lon):
    """Vectorized winding-number PIP for many points vs ONE closed ring:
    a dense edges x points pass, same rules as ``point_in_rings``.  Kept
    as its own implementation (not a wrapper over ``point_in_rings``) so
    brute-force references built on it check the pair kernel
    independently.  ring_lat/ring_lon must be closed (first == last).
    Returns a bool array."""
    p_lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
    p_lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
    a_lat = np.asarray(ring_lat[:-1], dtype=np.float64)[:, None]
    a_lon = np.asarray(ring_lon[:-1], dtype=np.float64)[:, None]
    b_lat = np.asarray(ring_lat[1:], dtype=np.float64)[:, None]
    b_lon = np.asarray(ring_lon[1:], dtype=np.float64)[:, None]

    on_seg = (
        (p_lon[None, :] >= np.minimum(a_lon, b_lon))
        & (p_lon[None, :] <= np.maximum(a_lon, b_lon))
        & (p_lat[None, :] >= np.minimum(a_lat, b_lat))
        & (p_lat[None, :] <= np.maximum(a_lat, b_lat))
    ).any(axis=0)

    cross = (b_lon - a_lon) * (p_lat[None, :] - a_lat) - (
        p_lon[None, :] - a_lon
    ) * (b_lat - a_lat)
    up = (a_lat <= p_lat[None, :]) & (b_lat > p_lat[None, :]) & (cross > 0)
    down = (a_lat > p_lat[None, :]) & (b_lat <= p_lat[None, :]) & (cross < 0)
    wn = up.sum(axis=0).astype(np.int64) - down.sum(axis=0).astype(np.int64)
    return on_seg | (wn != 0)


# ---------------------------------------------------------------------------
# cell index: the one spatial index behind every broadcast probe
# (nearest street, nearest fences, point in polygon, per-batch kNN).
# The reference answers these from an R-tree (rtree.go:553-682,
# searcher.go:402-435); here items are filed under the cells of the
# tile grid above that their bboxes cover, and nearest probes expand
# Chebyshev rings of cells around the probe's own cell.

# a cell holds about this share of the k nearest items a probe asks
# for, so the first 3x3 block of cells around a probe usually answers it
CELL_K_SHARE = 0.25
CELL_COVER_CAP = 8       # at most this many cell entries per item, on average
CELL_MAX_RES = 20
# relative and absolute (km) slack taken off the ring bound, far above
# the float error of the distance kernels and of the cell assignment
BOUND_SLACK = 1e-9
# degrees added on every side of a segment's arc bbox, so float error
# in the poleward-vertex test cannot leave part of the arc uncovered
ARC_PAD_DEG = 1e-9


def wrap_lon(lon):
    """Longitudes outside [-180, 180] folded back into it; values
    inside are returned bit-for-bit."""
    lon = np.asarray(lon, dtype=np.float64)
    inside = (lon >= -180.0) & (lon <= 180.0)
    return np.where(inside, lon, np.mod(lon + 180.0, 360.0) - 180.0)


def _cover(lat0, lat1, lon0, lon1, res):
    """Bottom-left cell (x0, y0) and the (width, height) in cells of
    each bbox's cover; a bbox with lon0 > lon1 wraps across ±180 and a
    non-finite one covers nothing."""
    n = 1 << res
    with np.errstate(invalid="ignore"):
        x0, y0 = tile_xy(lat0, lon0, res)
        x1, y1 = tile_xy(lat1, lon1, res)
    w = np.where(lon0 > lon1, np.where(x0 > x1, n - x0 + x1 + 1, n),
                 x1 - x0 + 1)
    h = np.maximum(y1 - y0 + 1, 0)
    ok = (np.isfinite(lat0) & np.isfinite(lat1) & np.isfinite(lon0)
          & np.isfinite(lon1))
    return x0, y0, np.where(ok, np.minimum(w, n), 0), np.where(ok, h, 0)


def cell_res(lat0, lat1, lon0, lon1, k: float = 1.0) -> int:
    """Grid resolution for an item set, from its item count and extent:
    about ``CELL_K_SHARE * k`` items per cell over the items' bbox
    extent (k: the nearest items a probe asks for), then coarsened
    while the bbox covers would file more than ``CELL_COVER_CAP`` cell
    entries per item."""
    m = len(lat0)
    ok = np.isfinite(lat0) & np.isfinite(lat1) & np.isfinite(lon0) & np.isfinite(lon1)
    if not ok.any():
        return 0
    a = (np.max(lat1[ok]) - np.min(lat0[ok])) / 180.0
    b = (360.0 if (lon0[ok] > lon1[ok]).any()
         else np.max(lon1[ok]) - np.min(lon0[ok])) / 360.0
    # solve (a n + 1)(b n + 1) = cells: the extent's cell count at
    # n x n, exact for thin strips and single points too
    c = max(m / (CELL_K_SHARE * max(k, 1.0)), 1.0)
    if a * b > 0:
        n = (-(a + b) + np.sqrt((a + b) ** 2 + 4 * a * b * (c - 1))) / (2 * a * b)
    elif a + b > 0:
        n = (c - 1) / (a + b)
    else:
        n = 1.0
    res = int(np.clip(np.round(np.log2(max(n, 1.0))), 0, CELL_MAX_RES))
    while res > 0:
        _, _, w, h = _cover(lat0, lat1, lon0, lon1, res)
        if (w * h).sum() <= CELL_COVER_CAP * m:
            break
        res -= 1
    return res


class ProbeWork:
    """Work counters of one probe state: probes answered, items whose
    exact distance or containment test ran, and cell rings visited."""

    def __init__(self):
        self.probes = self.checked = self.rings = 0

    def add(self, probes: int, checked: int, rings: int) -> None:
        self.probes += int(probes)
        self.checked += int(checked)
        self.rings += int(rings)

    def per_probe(self) -> dict:
        p = max(self.probes, 1)
        return {"checked_per_probe": self.checked / p,
                "rings_per_probe": self.rings / p}


def ring_bound_km(lat, lon, cx, cy, r, res):
    """Lower bound (km) on the distance from each probe at (lat, lon)
    to anything outside block r — the Chebyshev square of cells within
    r steps of the probe's cell (cx, cy) on the 2^res grid, rows
    clamped at the poles and columns wrapping, as in ``tile_ring``.

    From the probe's exact position: the latitude gap to the block's
    south and north edges, and the distance to its two bounding
    half-meridians — asin(cos φ sin Δλ) for Δλ <= 90°, else the
    distance to the nearer pole.  Edges that do not exist (a block
    reaching a pole row, or one 2r+1 >= 2^res wide) are skipped.  Less
    ``BOUND_SLACK``, so float error in the distance kernels and cell
    assignment never breaks exactness: a ring search is complete once
    its k-th distance is strictly below this bound."""
    lat, lon = np.asarray(lat, np.float64), np.asarray(lon, np.float64)
    n = 1 << res
    dlat, dlon = 180.0 / n, 360.0 / n
    b = np.full(lat.shape, np.inf)
    s, t = cy - r, cy + r + 1
    b = np.where(s > 0, np.minimum(b, lat - (-90.0 + s * dlat)), b)
    b = np.where(t < n, np.minimum(b, (-90.0 + t * dlat) - lat), b)
    wedge = 2 * r + 1 < n
    if np.any(wedge):
        coslat = np.cos(np.radians(lat))
        polar = 90.0 - np.abs(lat)
        for gap in (lon - (-180.0 + (cx - r) * dlon),
                    (-180.0 + (cx + r + 1) * dlon) - lon):
            h = np.where(gap <= 90.0, np.degrees(np.arcsin(np.clip(
                coslat * np.sin(np.radians(gap)), -1.0, 1.0))), polar)
            b = np.where(wedge, np.minimum(b, h), b)
    km = np.radians(b) * EARTH_RADIUS_KM
    return km * (1.0 - BOUND_SLACK) - BOUND_SLACK


def _pdi_order(p, d, i):
    """Positions sorting (p, d, i) lexicographically (d finite, >= 0):
    one argsort on the float key p * scale + d, then an exact lexsort
    redo only for the probes whose order that key got wrong (distance
    ties, or distances closer than the key's resolution)."""
    if not len(p):
        return np.empty(0, np.int64)
    scale = 2.0 ** np.ceil(np.log2(d.max() + 1.0))
    o = np.argsort(p * scale + d)
    ps, ds, is_ = p[o], d[o], i[o]
    same = ps[1:] == ps[:-1]
    bad = same & ((ds[1:] < ds[:-1]) | ((ds[1:] == ds[:-1]) & (is_[1:] < is_[:-1])))
    if bad.any():
        redo = np.isin(ps, ps[1:][bad])
        sub = o[redo]
        o[redo] = sub[np.lexsort((i[sub], d[sub], p[sub]))]
    return o


class CellIndex:
    """Items filed under the cells of the 2^res x 2^res tile grid their
    bboxes cover, as CSR arrays: ``cells`` (sorted occupied cell ids),
    ``offsets`` (len(cells) + 1) and ``items`` (item positions,
    ascending within a cell).  A bbox with lon0 > lon1 wraps across
    ±180; a point item is a zero-size bbox.  ``res`` defaults to
    ``cell_res`` of the bboxes for probes asking for ``k`` items.

    ``nearest`` answers k-nearest probes by ring expansion; ``cell_pairs``
    hands each containment probe the items of its own cell."""

    def __init__(self, lat0, lat1, lon0, lon1, res: int | None = None,
                 k: float = 1.0):
        lat0, lat1, lon0, lon1 = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                                  for v in (lat0, lat1, lon0, lon1))
        self.res = (cell_res(lat0, lat1, lon0, lon1, k) if res is None
                    else int(res))
        n = self.n = 1 << self.res
        x0, y0, w, h = _cover(lat0, lat1, lon0, lon1, self.res)
        cnt = w * h
        j = concat_ranges(np.zeros(len(cnt), np.int64), cnt)
        wi = np.repeat(w, cnt)
        cell = ((np.repeat(y0, cnt) + j // wi) * n
                + (np.repeat(x0, cnt) + j % wi) % n)
        order = np.argsort(cell, kind="stable")
        self.items = np.repeat(np.arange(len(cnt)), cnt)[order]
        cell = cell[order]
        first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]][:len(cell)])
        self.cells = cell[first]
        self.offsets = np.append(first, len(cell)).astype(np.int64)
        # occupied extent: rows [y_lo, y_hi] and the shortest circular
        # column interval [x_lo, x_lo + x_w) holding every occupied cell
        self.y_lo = self.y_hi = self.x_lo = self.x_w = 0
        if len(self.cells):
            ys = self.cells // n
            self.y_lo, self.y_hi = int(ys.min()), int(ys.max())
            xs = np.unique(self.cells % n)
            gaps = np.append(np.diff(xs), xs[0] + n - xs[-1])
            g = int(np.argmax(gaps))
            self.x_lo = int(xs[(g + 1) % len(xs)])
            self.x_w = int(n - gaps[g] + 1)

    @classmethod
    def of_points(cls, lat, lon, res: int | None = None,
                  k: float = 1.0) -> "CellIndex":
        lon = wrap_lon(lon)
        return cls(lat, lat, lon, lon, res, k)

    def _pairs(self, probe, lo, hi):
        """(probe, item) pairs of the items filed under cell ids [lo, hi)."""
        s = self.offsets[np.searchsorted(self.cells, lo)]
        cnt = self.offsets[np.searchsorted(self.cells, hi)] - s
        return np.repeat(probe, cnt), self.items[concat_ranges(s, cnt)]

    def cell_pairs(self, lat, lon):
        """(probe, item) pairs of the items filed under each probe's own
        cell, with no longitude folding: a containment probe inside a
        bbox always lands in one of the bbox's cells because ``tile_xy``
        is monotone."""
        with np.errstate(invalid="ignore"):
            x, y = tile_xy(lat, lon, self.res)
        c = y * self.n + x
        return self._pairs(np.arange(len(c)), c, c + 1)

    def _band(self, cx, cy, r0, r1):
        """Cell-id ranges (probe position, lo, hi) of block r1 minus
        block r0 (r0 = -1: the empty block), blocks being the Chebyshev
        squares around each probe cell — rows clamp at the poles,
        columns wrap — clipped to the occupied extent."""
        n = self.n
        idx = np.arange(len(cx))
        w0, w1 = np.minimum(2 * r0 + 1, n), np.minimum(2 * r1 + 1, n)
        left = np.minimum(r1 - r0, n - w0)
        # runs of rows ya..yb times a circular column interval
        # [xs, xs + xl): block r1's new rows carry its whole column span,
        # block r0's rows gain the columns left and right of it
        probe = np.concatenate([idx, idx, idx, idx])
        ya = np.concatenate([cy - r1, np.maximum(cy + r0 + 1, cy - r0),
                             cy - r0, cy - r0])
        yb = np.concatenate([cy - r0 - 1, cy + r1, cy + r0, cy + r0])
        xs = np.concatenate([cx - r1, cx - r1, cx - r0 - left, cx - r0 + w0])
        xl = np.concatenate([w1, w1, left, w1 - w0 - left])
        ya = np.maximum(ya, self.y_lo)
        yb = np.minimum(yb, self.y_hi)
        cnt = np.where((yb >= ya) & (xl > 0), yb - ya + 1, 0)
        run = np.repeat(np.arange(len(cnt)), cnt)
        y = concat_ranges(ya, cnt) * n
        s, span, probe = xs[run] % n, xl[run], probe[run]
        # a circular interval is at most two linear pieces, and so is
        # the occupied column interval
        ring = [(s, np.minimum(s + span, n))]
        if len(s) and (s + span > n).any():
            ring.append((0, s + span - n))
        occ = [(self.x_lo, min(self.x_lo + self.x_w, n))]
        if self.x_lo + self.x_w > n:
            occ.append((0, self.x_lo + self.x_w - n))
        P, LO, HI = [], [], []
        for a0, a1 in ring:
            for o0, o1 in occ:
                lo, hi = np.maximum(a0, o0), np.minimum(a1, o1)
                m = lo < hi
                P.append(probe[m])
                LO.append((y + lo)[m])
                HI.append((y + hi)[m])
        return np.concatenate(P), np.concatenate(LO), np.concatenate(HI)

    def _start_ring(self, cx, cy):
        """First ring that can hold an item: every smaller block misses
        the occupied extent."""
        n = self.n
        dy = np.maximum(0, np.maximum(self.y_lo - cy, cy - self.y_hi))
        rel = (cx - self.x_lo) % n
        dx = np.where(rel < self.x_w, 0, np.minimum(rel - self.x_w + 1, n - rel))
        return np.maximum(dx, dy)

    def _covers(self, cx, cy, r):
        """Block r holds the whole occupied extent: every item was seen."""
        n = self.n
        span = np.minimum(2 * r + 1, n)
        rows = (cy - r <= self.y_lo) & (cy + r >= self.y_hi)
        return rows & ((span >= n) | ((self.x_lo - (cx - r)) % n + self.x_w <= span))

    def nearest(self, lat, lon, k, dist, keep=None, max_km=None,
                work: ProbeWork | None = None):
        """Per probe point, its k nearest items (k may be per probe) by
        (distance, item position) — exact, ties to the lower position.

        ``dist(probe, item)`` returns the exact distances of index
        pairs; ``keep(probe, item)`` optionally masks pairs out (tag
        filters); ``max_km`` (per probe) drops pairs farther than it.
        Rings expand per probe until its k-th distance is strictly below
        ``ring_bound_km``, the ring passes ``max_km``, or the block holds
        every item.  Returns (probe, item, dist) sorted by (probe, dist,
        item)."""
        lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
        lon = wrap_lon(np.atleast_1d(lon))
        P = len(lat)
        k = np.broadcast_to(np.asarray(k, dtype=np.int64), (P,))
        ok = (k > 0) & np.isfinite(lat) & np.isfinite(lon)
        if not len(self.cells):
            ok[:] = False
        active = np.flatnonzero(ok)
        with np.errstate(invalid="ignore"):
            cx, cy = tile_xy(lat, lon, self.res)
        # visited block radius (-1: none; blocks below the start ring
        # hold no item) and the radius the next pass expands to
        r_in = self._start_ring(cx, cy) - 1
        r = r_in + 2
        # per probe, pairs farther than this can no longer make its top k
        lim = (np.full(P, np.inf) if max_km is None
               else np.asarray(max_km, dtype=np.float64).copy())
        empty_i, empty_d = np.empty(0, np.int64), np.empty(0, np.float64)
        acc = (empty_i, empty_i, empty_d)
        out = []
        checked = rings = 0
        while len(active):
            a = active
            pos, lo, hi = self._band(cx[a], cy[a], r_in[a], r[a])
            pi, it = self._pairs(a[pos], lo, hi)
            checked += len(pi)
            rings += int((r[a] - r_in[a]).sum())
            if keep is not None and len(pi):
                m = keep(pi, it)
                pi, it = pi[m], it[m]
            d = dist(pi, it) if len(pi) else empty_d
            m = d <= lim[pi]
            p = np.concatenate([acc[0], pi[m]])
            i = np.concatenate([acc[1], it[m]])
            d = np.concatenate([acc[2], d[m]])
            o = _pdi_order(p, d, i)
            p, i, d = p[o], i[o], d[o]
            # an item filed under several cells shows up once per cell,
            # always with the same distance: drop the adjacent repeats
            m = np.r_[True, (p[1:] != p[:-1]) | (i[1:] != i[:-1])][:len(p)]
            p, i, d = p[m], i[m], d[m]
            first = np.r_[True, p[1:] != p[:-1]][:len(p)]
            rank = np.arange(len(p)) - np.maximum.accumulate(
                np.where(first, np.arange(len(p)), 0))
            m = rank < k[p]
            p, i, d = p[m], i[m], d[m]
            start = np.searchsorted(p, a)
            full = np.searchsorted(p, a, side="right") - start >= k[a]
            kth = np.full(len(a), np.inf)
            kth[full] = d[start[full] + k[a][full] - 1]
            lim[a] = np.minimum(lim[a], kth)
            bound = ring_bound_km(lat[a], lon[a], cx[a], cy[a], r[a],
                                  self.res)
            done = self._covers(cx[a], cy[a], r[a]) | (full & (kth < bound))
            if max_km is not None:
                done |= bound > max_km[a]
            fin = np.zeros(P, bool)
            fin[a[done]] = True
            f = fin[p]
            out.append((p[f], i[f], d[f]))
            acc = (p[~f], i[~f], d[~f])
            r_in[a] = r[a]
            r[a] += 1
            active = a[~done]
        if work is not None:
            work.add(ok.sum(), checked, rings)
        if not out:
            return empty_i, empty_i, empty_d
        p, i, d = (np.concatenate(x) for x in zip(*out))
        o = np.argsort(p, kind="stable")
        return p[o], i[o], d[o]


# ---------------------------------------------------------------------------
# circles (geofences)


def circle_contains(center_lat, center_lon, radius_km, lat, lon):
    """haversine(center, p) <= r (reference circle.go:40-42)."""
    return haversine_km(center_lat, center_lon, lat, lon) <= radius_km


def line_circle_intersect(center_lat, center_lon, radius_km, lat1, lon1, lat2, lon2):
    """Segment-vs-circle test (reference circle.go:54-96), vectorized.

    Equirectangular projection at the circle center's latitude, meters;
    quadratic in the segment parameter t; intersect iff a root lies in
    [0, 1].  All inputs broadcast together.
    """
    c_lat = np.radians(np.asarray(center_lat, dtype=np.float64))
    c_lon = np.radians(np.asarray(center_lon, dtype=np.float64))
    r_m = np.asarray(radius_km, dtype=np.float64) * 1000.0

    def proj(p_lat, p_lon):
        return p_lat * EARTH_RADIUS_M, p_lon * EARTH_RADIUS_M * np.cos(c_lat)

    a_lat, a_lon = proj(np.radians(np.asarray(lat1, dtype=np.float64)),
                        np.radians(np.asarray(lon1, dtype=np.float64)))
    b_lat, b_lon = proj(np.radians(np.asarray(lat2, dtype=np.float64)),
                        np.radians(np.asarray(lon2, dtype=np.float64)))
    cc_lat, cc_lon = proj(c_lat, c_lon)

    v_lat, v_lon = a_lat - cc_lat, a_lon - cc_lon
    u_lat, u_lon = b_lat - a_lat, b_lon - a_lon

    alpha = u_lat * u_lat + u_lon * u_lon
    beta = u_lat * v_lat + u_lon * v_lon
    gamma = v_lat * v_lat + v_lon * v_lon - r_m * r_m

    disc = beta * beta - alpha * gamma
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = (-beta + sq) / alpha
        t2 = (-beta - sq) / alpha
    hit1 = (t1 >= 0) & (t1 <= 1)
    hit2 = (t2 >= 0) & (t2 <= 1)
    return (disc >= 0) & (alpha > 0) & (hit1 | hit2)


# ---------------------------------------------------------------------------
# point -> segment projection (reverse geocoding / nearest-street join)


def project_point_to_segment(p_lat, p_lon, a_lat, a_lon, b_lat, b_lon):
    """GREAT-CIRCLE projection of P onto segment AB, clamped to the arc
    — the spherical analog of the reference's S2 chord projection
    (geometry.go:171-184), consistent with the haversine metric used
    everywhere else (closes the round-3 planar/S2 divergence note).

    Unit-sphere math: n = A x B is the great-circle normal; the
    projection is Q = normalize(P - (P.n̂)n̂); Q lies ON the arc iff
    (A x Q).n̂ >= 0 and (Q x B).n̂ >= 0, else the nearest ENDPOINT
    (larger P-dot, i.e. smaller chord == smaller haversine) wins.
    Degenerate segments (A == B, so n == 0) project to A.  Fully
    vectorized and broadcasting; mirrored expression-for-expression by
    the DuckDB oracle (queries.sql_gc_project_ctes)."""
    rad = np.radians
    plat, plon = rad(np.asarray(p_lat, np.float64)), rad(np.asarray(p_lon, np.float64))
    alat, alon = rad(np.asarray(a_lat, np.float64)), rad(np.asarray(a_lon, np.float64))
    blat, blon = rad(np.asarray(b_lat, np.float64)), rad(np.asarray(b_lon, np.float64))
    px, py, pz = np.cos(plat) * np.cos(plon), np.cos(plat) * np.sin(plon), np.sin(plat)
    ax, ay, az = np.cos(alat) * np.cos(alon), np.cos(alat) * np.sin(alon), np.sin(alat)
    bx, by, bz = np.cos(blat) * np.cos(blon), np.cos(blat) * np.sin(blon), np.sin(blat)
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    with np.errstate(invalid="ignore", divide="ignore"):
        nxu, nyu, nzu = nx / nn, ny / nn, nz / nn
        dot = px * nxu + py * nyu + pz * nzu
        qx, qy, qz = px - dot * nxu, py - dot * nyu, pz - dot * nzu
        qn = np.sqrt(qx * qx + qy * qy + qz * qz)
        qxu, qyu, qzu = qx / qn, qy / qn, qz / qn
        t1 = ((ay * qzu - az * qyu) * nxu + (az * qxu - ax * qzu) * nyu
              + (ax * qyu - ay * qxu) * nzu)
        t2 = ((qyu * bz - qzu * by) * nxu + (qzu * bx - qxu * bz) * nyu
              + (qxu * by - qyu * bx) * nzu)
    on_arc = (nn > 0) & (qn > 0) & (t1 >= 0) & (t2 >= 0)
    on_arc &= np.isfinite(t1) & np.isfinite(t2)
    use_a = (px * ax + py * ay + pz * az) >= (px * bx + py * by + pz * bz)
    q_lat = np.degrees(np.arcsin(np.clip(np.where(on_arc, qzu, 0.0), -1.0, 1.0)))
    q_lon = np.degrees(np.arctan2(np.where(on_arc, qyu, 0.0),
                                  np.where(on_arc, qxu, 1.0)))
    a_lat_b = np.broadcast_to(np.asarray(a_lat, np.float64), on_arc.shape)
    a_lon_b = np.broadcast_to(np.asarray(a_lon, np.float64), on_arc.shape)
    b_lat_b = np.broadcast_to(np.asarray(b_lat, np.float64), on_arc.shape)
    b_lon_b = np.broadcast_to(np.asarray(b_lon, np.float64), on_arc.shape)
    end_lat = np.where(use_a, a_lat_b, b_lat_b)
    end_lon = np.where(use_a, a_lon_b, b_lon_b)
    return (np.where(on_arc, q_lat, end_lat),
            np.where(on_arc, q_lon, end_lon))


def arc_bbox(a_lat, a_lon, b_lat, b_lon):
    """(lat0, lat1, lon0, lon1) covering each minor great-circle arc AB:
    the endpoint box, widened to the arc's poleward vertex when that
    vertex lies on the arc, padded by ``ARC_PAD_DEG``.  A minor arc sweeps
    the short way round in longitude, so lon0 > lon1 marks a box that
    wraps across ±180."""
    rad = np.radians
    alat, alon = rad(np.asarray(a_lat, np.float64)), rad(np.asarray(a_lon, np.float64))
    blat, blon = rad(np.asarray(b_lat, np.float64)), rad(np.asarray(b_lon, np.float64))
    ax, ay, az = np.cos(alat) * np.cos(alon), np.cos(alat) * np.sin(alon), np.sin(alat)
    bx, by, bz = np.cos(blat) * np.cos(blon), np.cos(blat) * np.sin(blon), np.sin(blat)
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    lat0 = np.minimum(a_lat, b_lat)
    lat1 = np.maximum(a_lat, b_lat)
    with np.errstate(invalid="ignore", divide="ignore"):
        # V: the arc's great-circle point nearest the north pole,
        # z - (z.n)n / |n|^2 (unnormalized; only signs are tested)
        nn2 = nx * nx + ny * ny + nz * nz
        vx, vy, vz = -nz * nx / nn2, -nz * ny / nn2, 1.0 - nz * nz / nn2
        top = np.degrees(np.arccos(np.clip(np.abs(nz) / np.sqrt(nn2), 0.0, 1.0)))
        for sgn in (1.0, -1.0):
            px, py, pz = sgn * vx, sgn * vy, sgn * vz
            t1 = (ay * pz - az * py) * nx + (az * px - ax * pz) * ny + (ax * py - ay * px) * nz
            t2 = (py * bz - pz * by) * nx + (pz * bx - px * bz) * ny + (px * by - py * bx) * nz
            on = (nn2 > 0) & (t1 >= 0) & (t2 >= 0)
            if sgn > 0:
                lat1 = np.where(on, np.maximum(lat1, top), lat1)
            else:
                lat0 = np.where(on, np.minimum(lat0, -top), lat0)
    a_lon = np.asarray(a_lon, np.float64)
    sweep = np.mod(np.asarray(b_lon, np.float64) - a_lon + 180.0, 360.0) - 180.0
    lo = a_lon + np.minimum(sweep, 0.0) - ARC_PAD_DEG
    hi = a_lon + np.maximum(sweep, 0.0) + ARC_PAD_DEG
    full = hi - lo >= 360.0
    return (np.maximum(lat0 - ARC_PAD_DEG, -90.0), np.minimum(lat1 + ARC_PAD_DEG, 90.0),
            np.where(full, -180.0, wrap_lon(lo)), np.where(full, 180.0, wrap_lon(hi)))


# ---------------------------------------------------------------------------
# deterministic key -> point derivation (shared with the DuckDB oracles)
#
# SQL equivalent:
#   lat = (CAST((k*9973) % 18000 AS DOUBLE) + 0.5)/100.0 - 90.0
#   lon = (CAST((k*7919) % 36000 AS DOUBLE) + 0.5)/100.0 - 180.0
# Keys must be non-negative and < ~9e14 so k*9973 fits in int64 without
# overflow in either engine.

def point_from_key(key):
    """Deterministic pseudo-random-looking (lat, lon) from an int64 key."""
    k = np.asarray(key, dtype=np.int64)
    lat = ((k * 9973) % 18000).astype(np.float64)
    lon = ((k * 7919) % 36000).astype(np.float64)
    return (lat + 0.5) / 100.0 - 90.0, (lon + 0.5) / 100.0 - 180.0


# phash bit-split -> lat/lon for the image table (north_star: "phash-derived
# geo-keys").  Upper 32 bits -> lat, lower 32 -> lon, quantized.

def phash_to_latlon(phash):
    h = np.asarray(phash).astype(np.uint64)
    hi = (h >> np.uint64(32)).astype(np.float64)
    lo = (h & np.uint64(0xFFFFFFFF)).astype(np.float64)
    lat = hi / 4294967296.0 * 180.0 - 90.0
    lon = lo / 4294967296.0 * 360.0 - 180.0
    return lat, lon


def bbox_around_point(lat, lon, radius_km):
    """±radius bbox via destination points at bearings 45 and 225 degrees
    (reference indexer.go:488-494)."""
    lat_ne, lon_ne = destination_point(lat, lon, 45.0, radius_km)
    lat_sw, lon_sw = destination_point(lat, lon, 225.0, radius_km)
    return (
        np.minimum(lat_sw, lat_ne),
        np.maximum(lat_sw, lat_ne),
        np.minimum(lon_sw, lon_ne),
        np.maximum(lon_sw, lon_ne),
    )
