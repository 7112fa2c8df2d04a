"""The three workloads: their calls into the engine's public API, the
untimed warm-up, and the Ray-free correctness references.

Each workload exposes

* ``generate()`` — seeded inputs (outside every clock);
* ``setup()`` — side tables plus a warm-up call on a small slice (inside
  the ``setup_s`` clock, after ``ray.init``);
* ``calls()`` — ``[(name, fn)]``, the public calls of one repetition;
* ``check(name, out)`` — raises ``CheckFailed`` when an output is wrong;
* ``detail(walls)`` — the workload's own metrics of one repetition.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

import inputs

from go_osm_search_ray import geo, synth
from go_osm_search_ray.pipelines import flagship, indexer, search
from go_osm_search_ray.stages import geofence, knn, pip, text
from go_osm_search_ray.stages.images import AverageHash


class CheckFailed(AssertionError):
    pass


def expect(ok, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def blocks(t: pa.Table, n: int = 8):
    """Dataset of ``n`` Arrow blocks (one task each)."""
    import ray.data as rd

    step = max(1, -(-t.num_rows // n))
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def min_polygon_hit(polygons: pa.Table, lat, lon) -> np.ndarray:
    """Brute-force PIP reference: smallest containing polygon_id, -1."""
    best = np.full(len(lat), -1, dtype=np.int64)
    ids = polygons["polygon_id"].to_numpy()
    rings = polygons["ring"].to_pylist()
    for i in np.argsort(ids, kind="stable")[::-1]:
        rl = np.array([p["lat"] for p in rings[i]])
        ro = np.array([p["lon"] for p in rings[i]])
        best[geo.point_in_polygon(lat, lon, rl, ro)] = ids[i]
    return best


class Workload:
    name = ""
    detail_units: dict[str, str] = {}

    def __init__(self, tmp: str, seed: int, size: dict):
        self.tmp = os.path.join(tmp, self.name)
        self.seed = seed
        self.size = size
        self.rng = np.random.default_rng(seed + 1000)
        os.makedirs(self.tmp, exist_ok=True)

    def out_dir(self, tag: str) -> str:
        d = os.path.join(self.tmp, tag)
        shutil.rmtree(d, ignore_errors=True)
        return d

    def setup(self) -> None:
        self.side_tables()
        self.warm_up()

    def cleanup(self) -> None:
        for d in os.listdir(self.tmp):
            if d.startswith("out"):
                shutil.rmtree(os.path.join(self.tmp, d), ignore_errors=True)


# ---------------------------------------------------------------------------


class TileJoin(Workload):
    """Parquet images -> decode+ahash -> derive/tile -> PIP -> a
    16-partition write + ``_manifest.json``, the path the CLI runs."""

    name = "tile_join"
    detail_units = {"out_bytes_per_row": "B"}

    def generate(self):
        self.table = inputs.image_table(self.size["rows"], self.seed)
        self.src = os.path.join(self.tmp, "images")
        inputs.write_image_dir(self.table, self.src, self.size["files"])
        self.rows = self.table.num_rows
        self.sample = np.sort(self.rng.choice(self.rows, 256, replace=False))
        self._ref = None

    def side_tables(self):
        self.polygons = synth.polygons_table(self.size["polygons"],
                                             seed=self.seed)

    def warm_up(self):
        warm = self.table.slice(0, min(self.rows, 32_768))
        self.run(blocks(warm), self.out_dir("out_warm"))

    def run(self, ds, out):
        self.last_out = out
        return flagship.run_flagship(ds, self.polygons, out,
                                     include_ahash=True, carry_payload=False)

    def calls(self):
        import ray.data as rd

        return [("flagship", lambda: self.run(rd.read_parquet(self.src),
                                              self.out_dir("out")))]

    def reference(self):
        if self._ref is None:
            s = self.table.take(pa.array(self.sample))
            lat, lon = geo.phash_to_latlon(s["phash"].to_numpy())
            self._ref = pd.DataFrame({
                "image_id": s["image_id"].to_pylist(),
                "ahash": AverageHash()(s)["ahash"].to_numpy(),
                "polygon_id": min_polygon_hit(self.polygons, lat, lon),
            }).sort_values("image_id", ignore_index=True)
        return self._ref

    def check(self, name, manifest):
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        parts = manifest["partitions"]
        rows = sum(p["row_count"] for p in parts.values())
        expect(rows == self.rows, f"rows written {rows} != {self.rows}")
        expect(len(parts) == 16, f"{len(parts)} partitions, expected 16")
        ref = self.reference()
        got = (pads.dataset(self.last_out, format="parquet",
                            partitioning="hive")
               .to_table(columns=["image_id", "ahash", "polygon_id"],
                         filter=pc.field("image_id").isin(ref["image_id"]))
               .to_pandas().sort_values("image_id", ignore_index=True))
        expect(got["image_id"].tolist() == ref["image_id"].tolist(),
               "sampled image rows missing from the output")
        expect((got["ahash"].to_numpy() == ref["ahash"].to_numpy()).all(),
               "ahash differs from a direct AverageHash call")
        expect((got["polygon_id"].to_numpy()
                == ref["polygon_id"].to_numpy()).all(),
               "polygon_id differs from brute-force point-in-polygon")
        self.out_bytes = sum(p["bytes"] for p in parts.values())

    def detail(self, walls):
        return {"out_bytes_per_row": self.out_bytes / self.rows}


# ---------------------------------------------------------------------------


class GeoProbe(Workload):
    """Points probed against broadcast side tables: kNN with k, offset,
    radius and tag filter; reverse geocoding; geofence transitions over
    trajectories; PIP of bare points against a large polygon set."""

    name = "geo_probe"
    detail_units = {"knn_s": "s", "revgeo_s": "s", "fence_s": "s",
                    "pip_s": "s"}

    def generate(self):
        s, seed = self.size, self.seed
        self.points = inputs.knn_points(s["knn_points"], seed)
        self.queries = inputs.knn_queries(s["knn_queries"], seed)
        self.revgeo_points = inputs.world_points(s["revgeo_points"], seed, 4)
        self.pip_points = inputs.world_points(s["pip_points"], seed, 5)
        # trajectories are scripted through the fences they probe
        self.fences = synth.fences_table(s["fences"], seed=seed + 44)
        self.events = synth.fence_events_table(
            self.fences, s["fence_tracks"], s["fence_steps"], seed=seed + 45)
        self.rows = (s["knn_points"] + s["revgeo_points"]
                     + s["fence_tracks"] * s["fence_steps"] + s["pip_points"])
        self._refs = {}

    def side_tables(self):
        s, seed = self.size, self.seed
        self.streets = synth.streets_table(s["streets"], seed=seed + 43)
        self.polygons = synth.polygons_table(s["pip_polygons"],
                                             seed=seed + 42)

    def warm_up(self):
        small = {"knn": self.points.slice(0, 4096),
                 "revgeo": self.revgeo_points.slice(0, 512),
                 "fence": self.events.slice(0, 2048),
                 "pip": self.pip_points.slice(0, 4096)}
        for name, fn in self.calls(small):
            fn()

    def calls(self, t=None):
        t = t or {"knn": self.points, "revgeo": self.revgeo_points,
                  "fence": self.events, "pip": self.pip_points}
        return [
            ("knn", lambda: knn.knn_join(blocks(t["knn"]), self.queries,
                                         tag_col="feature")),
            ("revgeo", lambda: knn.reverse_geocode(
                blocks(t["revgeo"]), self.streets).to_pandas()),
            ("fence", lambda: geofence.fence_transitions(
                blocks(t["fence"]), self.fences).to_pandas()),
            ("pip", lambda: pip.pip_join(blocks(t["pip"]),
                                         self.polygons).to_pandas()),
        ]

    # -- references -------------------------------------------------------

    def _knn_ref(self):
        q = self.queries.to_pandas()
        p = self.points
        plat, plon = p["lat"].to_numpy(), p["lon"].to_numpy()
        pid, feat = p["point_id"].to_numpy(), p["feature"].to_numpy(
            zero_copy_only=False)
        ref = {}
        for i in self.rng.choice(len(q), min(5, len(q)), replace=False):
            r = q.iloc[i]
            d = geo.haversine_km(r.lat, r.lon, plat, plon)
            m = feat == r.feature
            if not np.isnan(r.radius_km):
                m &= d <= r.radius_km
            idx = np.nonzero(m)[0]
            idx = idx[np.lexsort((pid[idx], d[idx]))]
            idx = idx[int(r.offset):int(r.offset) + int(r.k)]
            ref[int(r.query_id)] = (pid[idx].tolist(), d[idx])
        return ref

    def _revgeo_ref(self):
        s = self.rng.choice(self.revgeo_points.num_rows, 200, replace=False)
        t = self.revgeo_points.take(pa.array(s))
        sid, d, _, _ = knn.CompiledSegments(self.streets).nearest(
            t["lat"].to_numpy(), t["lon"].to_numpy())
        return pd.DataFrame({"point_id": t["point_id"].to_numpy(),
                             "street_id": sid, "street_dist_km": d})

    def _fence_ref(self):
        """Per-point sequential evaluation: walk each sampled track in
        seq order carrying the previous position (sentinel first)."""
        ev = self.events.to_pandas()
        f = self.fences.to_pandas()
        flat, flon, fr = (f["lat"].to_numpy(), f["lon"].to_numpy(),
                          f["radius_km"].to_numpy())
        keys = f["key"].to_numpy()
        tracks = sorted(ev["point_id"].unique())
        pick = self.rng.choice(len(tracks), min(10, len(tracks)),
                               replace=False)
        rows = set()
        S = geofence.SENTINEL
        for t in (tracks[i] for i in pick):
            prev = (S, S)
            for e in ev[ev["point_id"] == t].sort_values("seq").itertuples():
                d = geo.haversine_km(e.lat, e.lon, flat, flon)
                near = np.lexsort((np.arange(len(d)), d))[:3]
                for j in near:
                    new_in = d[j] <= fr[j]
                    old_in = (prev[0] != S and geo.haversine_km(
                        prev[0], prev[1], flat[j], flon[j]) <= fr[j])
                    if old_in:
                        st = ["INSIDE"] if new_in else ["EXIT", "OUTSIDE"]
                    elif new_in:
                        st = ["ENTER", "INSIDE"]
                    else:
                        cross = bool(geo.line_circle_intersect(
                            flat[j], flon[j], fr[j],
                            prev[0], prev[1], e.lat, e.lon))
                        st = ["CROSS"] if cross else ["OUTSIDE"]
                    rows.update((t, int(e.seq), keys[j], s) for s in st)
                prev = (e.lat, e.lon)
        return [tracks[i] for i in pick], rows

    def _pip_ref(self):
        s = self.rng.choice(self.pip_points.num_rows, 300, replace=False)
        t = self.pip_points.take(pa.array(s))
        return pd.DataFrame({
            "point_id": t["point_id"].to_numpy(),
            "polygon_id": min_polygon_hit(self.polygons, t["lat"].to_numpy(),
                                          t["lon"].to_numpy())})

    def check(self, name, out):
        if name not in self._refs:
            self._refs[name] = getattr(self, f"_{name}_ref")()
        ref = self._refs[name]
        if name == "knn":
            for qid, (ids, d) in ref.items():
                g = out[out["query_id"] == qid].sort_values("rank")
                expect(g["point_id"].tolist() == ids,
                       f"knn query {qid}: ids differ from brute force")
                expect(np.allclose(g["dist_km"].to_numpy(), d, rtol=1e-12,
                                   atol=1e-9), f"knn query {qid}: distances")
        elif name == "revgeo":
            got = ref[["point_id"]].merge(out, on="point_id", how="left")
            expect((got["street_id"].to_numpy()
                    == ref["street_id"].to_numpy()).all(),
                   "reverse geocode street_id differs from nearest()")
            expect(np.allclose(got["street_dist_km"].to_numpy(),
                               ref["street_dist_km"].to_numpy()),
                   "reverse geocode distance differs from nearest()")
        elif name == "fence":
            tracks, rows = ref
            g = out[out["point_id"].isin(tracks)]
            got = set(zip(g["point_id"], g["seq"].astype(int),
                          g["fence_key"], g["status"]))
            expect(len(g) == len(got) and got == rows,
                   "fence transitions differ from sequential evaluation")
        elif name == "pip":
            expect(len(out) == self.pip_points.num_rows, "pip row count")
            got = ref[["point_id"]].merge(out, on="point_id", how="left")
            expect((got["polygon_id"].to_numpy()
                    == ref["polygon_id"].to_numpy()).all(),
                   "pip polygon_id differs from brute force")

    def detail(self, walls):
        return {f"{k}_s": walls[k] for k in ("knn", "revgeo", "fence", "pip")}


# ---------------------------------------------------------------------------


class TextIndex(Workload):
    """Write side: ``build_index`` over a Zipf corpus.  Read side:
    ``LoadedIndex``, typo queries through ``full_text_search`` and
    prefix queries through ``autocomplete``."""

    name = "text_index"
    detail_units = {"build_s": "s", "load_s": "s", "search_s": "s",
                    "autocomplete_s": "s"}

    def generate(self):
        self.t = inputs.text_tables(self.size, self.seed)
        self.rows = len(self.t["docs"])
        self._search_ref = None

    def factory(self, docs=None):
        import ray.data as rd

        docs = self.t["docs"] if docs is None else docs
        step = max(1, -(-len(docs) // 8))
        return lambda: rd.from_pandas(
            [docs.iloc[i:i + step] for i in range(0, len(docs), step)])

    def side_tables(self):
        self.spell_errors = self.t["spell_errors"]

    def warm_up(self):
        small = self.factory(self.t["docs"].iloc[:200])
        for name, fn in self.calls(small, "out_warm")[:2]:
            fn()

    def calls(self, factory=None, tag="out"):
        factory = factory or self.factory()
        out = os.path.join(self.tmp, tag)
        st = {}

        def build():
            return indexer.build_index(factory, self.out_dir(tag),
                                       spell_error_lines=self.spell_errors)

        def load():
            st["idx"] = indexer.LoadedIndex(out)
            return st["idx"]

        return [
            ("build", build),
            ("load", load),
            ("search", lambda: search.full_text_search(
                factory, self.t["search"], st["idx"].corrector, k=10)),
            ("autocomplete", lambda: search.autocomplete(
                factory, self.t["autocomplete"], st["idx"].corrector, k=10)),
        ]

    def check(self, name, out):
        docs = self.t["docs"]
        if name == "build":
            import pyarrow.compute as pc
            import pyarrow.dataset as pads

            d = os.path.join(self.tmp, "out")
            toks = text.tokenize_series(docs["text"])
            terms = sorted(self.rng.choice(
                sorted(set(toks.explode().dropna())), 3, replace=False))
            got = (pads.dataset(os.path.join(d, "postings"))
                   .to_table(filter=pc.field("term").isin(terms))
                   .to_pandas().sort_values("term"))
            want = [docs["doc_id"][toks.map(lambda ts: t in ts)].tolist()
                    for t in terms]
            expect(got["term"].tolist() == terms and
                   [list(p) for p in got["postings"]] == want,
                   "postings differ from a corpus scan")
        elif name == "load":
            expect(out.meta["docs_count"] == len(docs), "docs_count")
            expect(len(out.vocab) > 0, "empty vocab")
            self.loaded = out
        elif name == "search":
            if self._search_ref is None:
                self._search_ref = self._single_query_ref(out)
            for qid, want in self._search_ref.items():
                g = out[out["query_id"] == qid].sort_values("rank")
                expect(g["doc_id"].tolist() == want["doc_id"].tolist()
                       and np.allclose(g["score"], want["score"],
                                       rtol=1e-12),
                       f"search query {qid} differs from bm25f_score+top_k")
        elif name == "autocomplete":
            corrector = self.loaded.corrector
            for q in self.t["autocomplete"].itertuples():
                g = out[out["query_id"] == q.query_id]
                toks = list(text.tokenize_series(pd.Series([q.query]))[0])
                cands = {" ".join(c) for c in corrector.autocomplete(toks)}
                expect(len(g) > 0
                       and set(g["candidate_query"]) <= cands
                       and g["rank"].tolist() == list(range(1, len(g) + 1))
                       and g["score"].is_monotonic_decreasing,
                       f"autocomplete query {q.query_id}: candidates or "
                       "fan-in order differ from the corrector")

    def _single_query_ref(self, page):
        """Single-query BM25F + global top-k for two sampled queries,
        on the corrected terms the batched search reported."""
        ref = {}
        qids = sorted(page["query_id"].unique())
        for qid in self.rng.choice(qids, min(2, len(qids)), replace=False):
            terms = page[page["query_id"] == qid]["corrected"].iloc[0].split()
            ref[qid] = text.top_k(text.bm25f_score(self.factory()(), terms),
                                  10)
        return ref

    def detail(self, walls):
        return {f"{k}_s": walls[k]
                for k in ("build", "load", "search", "autocomplete")}


WORKLOADS = {w.name: w for w in (TileJoin, GeoProbe, TextIndex)}
