"""Command-line harness: generate, ingest, build, query, sizes, estimate, sweep.

Exit codes: 0 ok, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import bench, cachemodel, mdstore, tablestore
from .blockio import SimCache
from .errors import InvalidCoordinateError, StoreError
from .relation import IngestConfig, IngestResult, Relation, ingest_delimited, ordered_cells
from .synth import SynthSpec, generate


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _write_relation_csv(rel: Relation, path: str) -> None:
    _, coords, measures = ordered_cells(rel)
    # Each dimension's labels are decoded once, then indexed per cell.
    columns = [
        map(dim.values.__getitem__, column)
        for dim, column in zip(rel.schema.dimensions, coords.T.tolist())
    ]
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(zip(*columns, map(repr, measures.tolist())))


def _ingest(args) -> IngestResult:
    config = IngestConfig(has_header=args.header, sorted_values=args.sorted_values)
    return ingest_delimited(args.infile, config)


def _load_relation(args) -> Relation:
    result = _ingest(args)
    if result.duplicates:
        print(f"warning: {result.duplicates} duplicate keys (last write wins)", file=sys.stderr)
    return result.relation


def _store_params(args) -> mdstore.StoreParams:
    return mdstore.StoreParams(**{name: getattr(args, name) for name in mdstore.PARAM_RANGES})


def _add_ingest_flags(p) -> None:
    p.add_argument("--in", dest="infile", required=True, help="delimited input file")
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--sorted-values", action="store_true",
                   help="index dimension values in sorted order instead of first-seen")


def _add_param_flags(p) -> None:
    p.add_argument("--entry-width", type=int, default=8, help="octets per stored position")
    p.add_argument("--offset-width", type=int, default=2, help="octets per base+offset entry")
    p.add_argument("--block-len", type=int, default=16, help="positions per base+offset block")
    p.add_argument("--s-bits", dest="diff_bits", type=int, default=16,
                   help="bits per difference entry")
    p.add_argument("--stride", type=int, default=16, help="a checkpoint every N jumps")


def cmd_gen(args) -> int:
    spec = SynthSpec(
        cardinalities=tuple(args.dims),
        density=args.density,
        clustering=args.clustering,
        seed=args.seed,
    )
    rel = generate(spec)
    _write_relation_csv(rel, args.out)
    print(f"wrote {rel.n_cells} cells over {rel.schema.total_cells} "
          f"({rel.n_cells / rel.schema.total_cells:.4%}) to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    result = _ingest(args)
    rel = result.relation
    print(f"dimensions: {_shape(rel.schema)} ({rel.schema.total_cells} cells)")
    print(f"nonempty:   {rel.n_cells}")
    print(f"duplicates: {result.duplicates}")
    return 0


def _shape(schema) -> str:
    return "x".join(map(str, schema.cardinalities))


def cmd_build(args) -> int:
    rel = _load_relation(args)
    if args.scheme == "table":
        store = tablestore.build_table(rel)
        tablestore.save_table(store, args.out)
        print(f"table: {store.n_rows} rows, {store.total_size()} octets "
              f"(index height {store.height})")
        return 0
    store = mdstore.build_store(rel, args.scheme, _store_params(args))
    mdstore.save(store, args.out)
    report = store.size_report()
    print(f"{args.scheme}: {store.n_cells} cells, disk {report.disk_total} octets, "
          f"memory {report.memory_total} octets")
    return 0


def _parse_coords(text: str, schema) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != schema.n_dims:
        raise InvalidCoordinateError(
            f"expected {schema.n_dims} coordinates, got {len(parts)}"
        )
    coords = []
    for part, dim in zip(parts, schema.dimensions):
        # A label wins over an index: label "7" need not be at index 7.
        index = dict(zip(dim.values, range(dim.cardinality))).get(part)
        if index is None:
            try:
                index = int(part)
            except ValueError:
                raise InvalidCoordinateError(
                    f"{part!r} is neither a value of dimension {dim.name!r} nor an index"
                ) from None
        coords.append(index)
    return tuple(coords)


def cmd_query(args) -> int:
    base = args.store
    is_table = Path(base + ".rows").exists()
    store = tablestore.load_table(base) if is_table else mdstore.load(base)
    try:
        coords = _parse_coords(args.coords, store.schema)
        t0 = time.perf_counter()
        value = store.point_query(coords)
        elapsed = (time.perf_counter() - t0) * 1000.0
        print("empty" if value is None else repr(value))
        print(f"({elapsed:.3f} ms)")
        return 0
    finally:
        store.close()


def cmd_sizes(args) -> int:
    rel = _load_relation(args)
    params = _store_params(args)

    table = tablestore.build_table(rel)
    base_size = table.total_size()
    rows = [("table_uncompressed", base_size)]
    for scheme in mdstore.SCHEMES:
        report = mdstore.build_store(rel, scheme, params).size_report()
        if scheme == "dhc":
            rows.append(("dhc_disk", report.disk_total))
            rows.append(("dhc_memory", report.memory_total))
        else:
            rows.append((scheme, report.disk_total))

    rows = [(name, size, f"{100.0 * size / base_size:.1f}") for name, size in rows]
    print(f"{'representation':<20}{'octets':>14}{'percent':>10}")
    for name, size, percent in rows:
        print(f"{name:<20}{size:>14}{percent:>9}%")
    if args.out:
        with open(args.out, "w", newline="") as f:
            header = ("representation", "octets", "percent")
            csv.writer(f, lineterminator="\n").writerows([header, *rows])
        print(f"wrote {args.out}")
    return 0


@contextmanager
def _open_pair(args):
    """The loaded md and table stores with their caches, closed on exit.
    A pair whose stores hold different relations raises ValueError."""
    md_cache = SimCache(bench.UNBOUNDED)
    tbl_cache = SimCache(bench.UNBOUNDED)
    with (
        mdstore.load(args.md_store, cache=md_cache) as md,
        tablestore.load_table(args.table_store, cache=tbl_cache) as tbl,
    ):
        differ = []
        if md.schema != tbl.schema:
            a, b = _shape(md.schema), _shape(tbl.schema)
            differ.append(f"dimensions {a} against {b}" if a != b else "dimension labels")
        if md.measure_width != tbl.measure_width:
            differ.append(f"measure width {md.measure_width} against {tbl.measure_width}")
        if md.n_cells != tbl.n_rows:
            differ.append(f"{md.n_cells} cells against {tbl.n_rows} rows")
        if not differ and (md.positions() != tbl.positions()).any():
            differ.append("cells at other coordinates")
        if differ:
            raise ValueError(f"{args.md_store} and {args.table_store} hold different "
                             f"relations: {', '.join(differ)}")
        yield md, md_cache, tbl, tbl_cache


def cmd_estimate(args) -> int:
    with _open_pair(args) as (md, md_cache, tbl, tbl_cache):
        result = bench.estimate_constants(
            md, md_cache, tbl, tbl_cache, sample_size=args.samples, seed=args.seed
        )
    p = result.params
    cachemodel.save_params(p, args.out)
    print(f"M_m={p.md.M:.6f} D_m={p.md.D:.6f} M_t={p.tbl.M:.6f} D_t={p.tbl.D:.6f} (ms)")
    print(f"H={p.preload_bytes} C={p.cell_bytes} S={p.table_bytes}")
    print(f"cold misses/query: md max {max(result.md_cold_misses)}, "
          f"table min {min(result.tbl_cold_misses)}")
    print(f"warm misses total: md {sum(result.md_warm_misses)}, "
          f"table {sum(result.tbl_warm_misses)}")
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    params = cachemodel.load_params(args.constants)
    with _open_pair(args) as (md, md_cache, tbl, tbl_cache):
        if args.budget_list:
            md_budgets = [b for b in args.budget_list if b >= params.preload_bytes]
            tbl_budgets = list(args.budget_list)
            if not md_budgets:
                raise ValueError(
                    "no budget reaches the preloaded size of the multidimensional store"
                )
        else:
            md_budgets, tbl_budgets = bench.default_budgets(params, args.points)
        result = bench.memory_sweep(
            md, md_cache, tbl, tbl_cache, params,
            md_budgets, tbl_budgets,
            samples=args.samples, passes=args.passes, seed=args.seed,
        )
    Path(args.out).write_text(result.to_csv())
    print(f"{'rep':<5}{'budget':>12}{'measured ms':>14}{'model ms':>12}{'dev':>8}")
    for s in result.summaries:
        print(f"{s.rep:<5}{s.budget:>12}{s.measured_ms:>14.4f}{s.model_ms:>12.4f}"
              f"{s.rel_deviation:>7.1%}")
    print(f"wrote {args.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecube",
        description="Compressed multidimensional storage engine and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic relation CSV")
    p.add_argument("--dims", type=_parse_int_list, required=True,
                   help="comma-separated dimension cardinalities")
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--clustering", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="parse a relation file and print a summary")
    _add_ingest_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build a physical representation")
    _add_ingest_flags(p)
    p.add_argument("--scheme", required=True,
                   choices=list(mdstore.SCHEMES) + ["table"])
    p.add_argument("--out", required=True, help="output base path")
    _add_param_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="point query against a saved store")
    p.add_argument("--store", required=True, help="store base path")
    p.add_argument("--coords", required=True,
                   help="comma-separated dimension values (or indices)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("sizes", help="size table across all representations")
    _add_ingest_flags(p)
    p.add_argument("--out", default=None, help="also write CSV here")
    _add_param_flags(p)
    p.set_defaults(func=cmd_sizes)

    p = sub.add_parser("estimate", help="estimate the cache-model constants")
    p.add_argument("--md-store", required=True)
    p.add_argument("--table-store", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="constants JSON output")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="memory sweep: measured vs model")
    p.add_argument("--md-store", required=True)
    p.add_argument("--table-store", required=True)
    p.add_argument("--constants", required=True, help="constants JSON from estimate")
    p.add_argument("--budget-list", type=_parse_int_list, default=None,
                   help="explicit budgets in octets (default: even ladder)")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--passes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sweep CSV output")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidCoordinateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
