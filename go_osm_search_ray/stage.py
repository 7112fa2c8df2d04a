"""User-extension surface (SURVEY.md §2.11).

The reference exposes its swap points as Go interfaces —
`SpellCorrectorI` / `DocumentStoreI` (pkg/index/interface.go:5-21),
`NgramLM` / `InvertedIndexI` / `RtreeI` (pkg/searcher/interface.go:8-44),
`GeoFence` (pkg/geofence/geofence.go:26-29) — plus a pluggable scoring
enum selected by CLI flag (cmd/server/main.go:16,35-46).

Ray-Data-native equivalent: a stage IS a `map_batches` UDF, so the
extension surface is a small typed registry of named stages.  A
`Stage` declares

- `fn`: the batch callable (or an actor class for stateful stages —
  passed to `map_batches` exactly as the engine's built-ins are);
- `shuffle_key`: the co-location contract, if any.  The registry does
  NOT insert the shuffle — partitioning is an explicit, caller-owned
  decision everywhere in this engine (SURVEY.md §7.3) — but a declared
  key documents and machine-checks what the stage assumes;
- `batch_format`: "pyarrow" (default, zero-copy) or "pandas".

`apply(ds, "name", ...)` resolves and runs a stage; unknown names
raise with the registered inventory, mirroring the reference's CLI
validation of the scoring flag.  The scoring plug point itself is
`SCORERS` — `pipelines/search.py` resolves its `scoring=` argument
here, so a user-registered scorer is selectable end to end the same
way the reference's enum is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Stage:
    name: str
    fn: Callable | type
    shuffle_key: tuple[str, ...] | None = None
    batch_format: str = "pyarrow"
    doc: str = field(default="", compare=False)


_REGISTRY: dict[str, Stage] = {}

# the reference's pluggable scoring enum (searcher.go scoring modes);
# names resolve inside stages/text.score_multi and the CLI flag
SCORERS = ("bm25f", "bm25plus", "tfidf")


def register_stage(name: str, fn=None, *, shuffle_key=None,
                   batch_format: str = "pyarrow", doc: str = ""):
    """Register a named stage.  Usable directly or as a decorator:

        @register_stage("my-filter", batch_format="pandas")
        def my_filter(batch): ...
    """
    def _do(f):
        if name in _REGISTRY:
            raise ValueError(f"stage {name!r} already registered")
        _REGISTRY[name] = Stage(
            name=name, fn=f,
            shuffle_key=tuple(shuffle_key) if shuffle_key else None,
            batch_format=batch_format, doc=doc,
        )
        return f

    return _do(fn) if fn is not None else _do


def get_stage(name: str) -> Stage:
    _builtin()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown stage {name!r}; registered: {known}")
    return _REGISTRY[name]


def list_stages() -> list[str]:
    _builtin()
    return sorted(_REGISTRY)


def apply(ds, name: str, **map_batches_kwargs):
    """Run a registered stage on a Dataset via map_batches.  Stateful
    stages (class fn) accept the same concurrency/fn_constructor_kwargs
    pass-through as a direct map_batches call."""
    st = get_stage(name)
    kwargs = dict(batch_format=st.batch_format)
    kwargs.update(map_batches_kwargs)
    return ds.map_batches(st.fn, **kwargs)


def get_custom_scorer(name: str):
    """Return the registered custom scorer callable for `name` (a stage
    registered as 'score:<name>', contract: fn(docs_ds, query_terms) ->
    Dataset of (query_id, doc_id, score)), or None for built-ins."""
    _builtin()
    st = _REGISTRY.get(f"score:{name}")
    return st.fn if st is not None else None


def resolve_scoring(name: str) -> str:
    """Validate a scoring-mode name (the reference's enum check,
    cmd/server/main.go:35-46).  Extension point: register a stage named
    'score:<name>' to add a mode recognised here."""
    _builtin()
    if name in SCORERS or f"score:{name}" in _REGISTRY:
        return name
    raise ValueError(
        f"unknown scoring {name!r}; built-in: {', '.join(SCORERS)}"
    )


_BUILTIN_DONE = False


def _builtin():
    """Lazy built-in registrations (import cycles: stages import freely
    from the package, so registration happens on first lookup)."""
    global _BUILTIN_DONE
    if _BUILTIN_DONE:
        return
    _BUILTIN_DONE = True

    from .stages import images as im
    from .stages import text as tx

    def tokenize_batch(b):
        import pandas as pd

        toks = tx.tokenize_series(b["text"])
        return pd.DataFrame({"doc_id": b["doc_id"], "tokens": list(toks)})

    reg = [
        Stage("tokenize", tokenize_batch, None, "pandas",
              "M7 tokenizer as a batch stage"),
        Stage("image:decode-stats", im.DecodeStats, None, "pyarrow",
              "decode -> pixel stats (stateful class stage)"),
        Stage("image:ahash", im.AverageHash, None, "pyarrow",
              "decode -> 8x8 average hash"),
        Stage("quality", tx.quality_metrics, None, "pyarrow",
              "length/punct/stopword quality signals"),
    ]
    for st in reg:
        _REGISTRY.setdefault(st.name, st)
