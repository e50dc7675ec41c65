import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sparsecube
from sparsecube import mdstore, tablestore
from sparsecube.cli import main
from sparsecube.errors import FormatError
from sparsecube.relation import (
    Dimension, DimensionSchema, Relation, ingest_delimited, ordered_cells,
)
from sparsecube.synth import SynthSpec, generate


def run(*argv):
    return main([str(a) for a in argv])


# Every numeric flag is tried at each of these values, one flag at a time.
EDGES = (*map(str, (-1, 0, 1, 3, 7, 9, 65, 10**12, 10**23, 2**63, 2**64 - 1, 2**64)), "nan", "inf")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen -> build every representation once; reused across tests."""
    tmp = tmp_path_factory.mktemp("cli")
    rel_csv = tmp / "rel.csv"
    assert run("gen", "--dims", "24,20,18", "--density", "0.08",
               "--seed", "9", "--out", rel_csv) == 0
    for scheme in ("lpc", "dhc", "table"):
        assert run("build", "--in", rel_csv, "--scheme", scheme,
                   "--out", tmp / scheme, "--s-bits", "4") == 0
    return tmp


class TestGenIngest:
    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("gen", "--dims", "6,5", "--density", "0.4",
                       "--clustering", "0.7", "--seed", "3", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_writes_newline_line_ends(self, tmp_path):
        out = tmp_path / "rel.csv"
        assert run("gen", "--dims", "6,5", "--density", "0.4", "--seed", "3", "--out", out) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        crlf = tmp_path / "crlf.csv"  # the same rows with the csv module's default line ends
        crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
        got, want = (ingest_delimited(p).relation for p in (out, crlf))
        assert got.cells == want.cells and got.n_cells > 0
        assert [d.values for d in got.schema.dimensions] == [
            d.values for d in want.schema.dimensions
        ]

    def test_ingest_summary(self, workspace, capsys):
        assert run("ingest", "--in", workspace / "rel.csv") == 0
        out = capsys.readouterr().out
        assert "nonempty" in out and "duplicates: 0" in out

    def test_ingest_missing_file_is_data_error(self, tmp_path):
        assert run("ingest", "--in", tmp_path / "nope.csv") == 1

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,1\nc,2\n")
        assert run("ingest", "--in", bad) == 1

    def test_field_past_the_csv_limit_is_data_error(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("x" * 140_000 + ",a,1\nb,c,2\n")
        assert run("ingest", "--in", big) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: row 1: field larger than field limit")


class TestQuery:
    def test_stored_cell(self, workspace, capsys):
        rows = (workspace / "rel.csv").read_text().splitlines()
        first = rows[0].split(",")
        coords = ",".join(first[:3])
        assert run("query", "--store", workspace / "dhc", "--coords", coords) == 0
        out = capsys.readouterr().out
        assert repr(float(first[3])) in out

    def test_absent_cell(self, workspace, capsys):
        # Index-style coordinates are accepted too; pick a cell the generator
        # left empty (checked via a second query against the table store).
        assert run("query", "--store", workspace / "table", "--coords", "0,0,0") in (0,)
        out = capsys.readouterr().out
        assert out  # either a value or "empty", but exit code is 0

    def test_label_wins_over_index(self, tmp_path, capsys):
        # Label "7" sits at index 0; index 7 holds label "6".
        labels = ["7", "3", "0", "1", "2", "4", "5", "6", "8"]
        rel_csv = tmp_path / "rel.csv"
        rel_csv.write_text("".join(f"{v},a,{k}.5\n" for k, v in enumerate(labels)))
        assert run("build", "--in", rel_csv, "--scheme", "lpc", "--out", tmp_path / "st") == 0
        for coords, value in [("7,a", "0.5"), ("6,a", "7.5"), ("8,0", "8.5")]:
            capsys.readouterr()
            assert run("query", "--store", tmp_path / "st", "--coords", coords) == 0
            assert capsys.readouterr().out.splitlines()[0] == value

    def test_bad_coordinate_count_is_usage_error(self, workspace):
        assert run("query", "--store", workspace / "dhc", "--coords", "1,2") == 2

    def test_unknown_value_is_usage_error(self, workspace):
        assert run("query", "--store", workspace / "dhc",
                   "--coords", "bogus,also,nah") == 2

    def test_truncated_header_is_data_error(self, workspace, tmp_path):
        for suffix in (".schema", ".cells"):
            shutil.copy(workspace / ("dhc" + suffix), tmp_path / ("dhc" + suffix))
        (tmp_path / "dhc.hdr").write_bytes((workspace / "dhc.hdr").read_bytes()[:20])
        assert run("query", "--store", tmp_path / "dhc", "--coords", "0,0,0") == 1

    def test_boc_build_widens_offsets(self, tmp_path, capsys):
        # Gaps this sparse overflow two-octet offsets at block length 16.
        rel_csv = tmp_path / "sparse.csv"
        assert run("gen", "--dims", "1000,1000,1000", "--density", "0.000001",
                   "--seed", "3", "--out", rel_csv) == 0
        assert run("build", "--in", rel_csv, "--scheme", "boc",
                   "--out", tmp_path / "boc") == 0
        first = rel_csv.read_text().splitlines()[0].split(",")
        capsys.readouterr()
        assert run("query", "--store", tmp_path / "boc",
                   "--coords", ",".join(first[:3])) == 0
        assert repr(float(first[3])) in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["lpc", "schc"])
    def test_entry_too_wide_is_data_error(self, tmp_path, capsys, scheme):
        rel_csv = tmp_path / "rel.csv"
        assert run("gen", "--dims", "64,64,64", "--density", "0.05",
                   "--seed", "1", "--out", rel_csv) == 0
        capsys.readouterr()
        assert run("build", "--in", rel_csv, "--scheme", scheme,
                   "--entry-width", "2", "--out", tmp_path / "st") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 octets" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rel.csv"]

    def test_entry_width_below_the_default_offset_width(self, tmp_path):
        # Offsets narrower than entries is BOC's rule alone: LPC builds at
        # entry width 2 with the default offset width of 2.
        rel_csv = tmp_path / "rel.csv"
        assert run("gen", "--dims", "32,32,16", "--density", "0.05", "--out", rel_csv) == 0
        assert run("build", "--in", rel_csv, "--scheme", "lpc", "--entry-width", "2",
                   "--out", tmp_path / "st") == 0
        assert sum(p.stat().st_size for p in tmp_path.glob("st.*")) == 8770

    @pytest.mark.parametrize("argv", [("build", "--scheme", "dsc"),
                                      ("build", "--scheme", "dhc"), ("sizes",)])
    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_stride_below_one_is_data_error(self, workspace, tmp_path, capsys, argv, stride):
        capsys.readouterr()
        assert run(*argv, "--in", workspace / "rel.csv", "--stride", stride,
                   "--out", tmp_path / "st") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stride" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scheme_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            run("build", "--in", workspace / "rel.csv", "--scheme", "zip",
                "--out", workspace / "x")
        assert exc.value.code == 2


def _set_values(values):
    def edit(doc):
        doc["dimensions"][1]["values"] = values
    return edit


# A schema file edit that a load must refuse, and a word of its error.
BAD_SCHEMAS = {
    "values-a-string": (_set_values("abc"), "not a list"),
    "values-ints": (_set_values(list(range(20))), "not a str"),
    "values-empty": (_set_values([]), "no values"),
    "values-repeated": (_set_values(["a", "b", "a"]), "duplicate"),
    "lone-surrogate": (_set_values(["v0", "\ud800"]), "UTF-8"),
    "name-not-a-string": (lambda doc: doc["dimensions"][0].update(name=5), "name 5"),
    "measure-width-5": (lambda doc: doc.update(measure_width=5), "measure width 5"),
    "measure-width-float": (lambda doc: doc.update(measure_width=8.0), "measure width 8.0"),
    "measure-width-bool": (lambda doc: doc.update(measure_width=True), "measure width True"),
}


class TestMalformedSchema:
    @pytest.mark.parametrize("case", BAD_SCHEMAS)
    @pytest.mark.parametrize("rep", ["dhc", "table"])
    def test_load_and_query_refuse(self, workspace, tmp_path, capsys, rep, case):
        edit, words = BAD_SCHEMAS[case]
        for src in workspace.glob(rep + ".*"):
            shutil.copy(src, tmp_path / src.name)
        schema = tmp_path / (rep + ".schema")
        doc = json.loads(schema.read_bytes())
        edit(doc)
        schema.write_text(json.dumps(doc))
        load = tablestore.load_table if rep == "table" else mdstore.load
        with pytest.raises(FormatError, match=words):
            load(tmp_path / rep)
        capsys.readouterr()
        assert run("query", "--store", tmp_path / rep, "--coords", "0,0,0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad schema file: ") and err.count("\n") == 1, err


class TestSizes:
    def test_table_and_csv(self, workspace, capsys, tmp_path):
        out_csv = tmp_path / "sizes.csv"
        assert run("sizes", "--in", workspace / "rel.csv", "--s-bits", "4",
                   "--out", out_csv) == 0
        text = capsys.readouterr().out
        assert "table_uncompressed" in text
        with open(out_csv) as f:
            rows = {r["representation"]: r for r in csv.DictReader(f)}
        assert set(rows) == {
            "table_uncompressed", "schc", "lpc", "boc", "dsc", "dhc_disk", "dhc_memory",
        }
        assert rows["table_uncompressed"]["percent"] == "100.0"
        assert int(rows["dhc_memory"]["octets"]) > int(rows["dhc_disk"]["octets"])
        assert b"\r" not in out_csv.read_bytes()


class TestEstimateSweep:
    def test_pipeline(self, workspace, tmp_path):
        constants = tmp_path / "constants.json"
        assert run("estimate", "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table",
                   "--samples", "200", "--seed", "1", "--out", constants) == 0
        doc = json.loads(constants.read_text())
        assert set(doc) == {"M_m", "D_m", "M_t", "D_t", "H", "C", "S"}
        assert doc["M_m"] < doc["D_m"] and doc["M_t"] < doc["D_t"]

        sweep_csv = tmp_path / "sweep.csv"
        assert run("sweep", "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table",
                   "--constants", constants, "--points", "3",
                   "--samples", "30", "--passes", "3", "--seed", "2",
                   "--out", sweep_csv) == 0
        with open(sweep_csv) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 3 * 3
        assert set(rows[0]) == {
            "rep", "budget_octets", "pass", "used_octets", "misses",
            "avg_sim_ms", "model_ms",
        }

    def test_sweep_csv_pinned(self, workspace, tmp_path):
        # Fixed constants, so the CSV depends on miss counts alone.
        constants = tmp_path / "constants.json"
        assert run("estimate", "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table",
                   "--samples", "20", "--out", constants) == 0
        doc = json.loads(constants.read_text())
        doc.update(M_m=0.01, D_m=1.0, M_t=0.02, D_t=2.0)
        constants.write_text(json.dumps(doc))
        sweep_csv = tmp_path / "sweep.csv"
        assert run("sweep", "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table",
                   "--constants", constants, "--points", "4",
                   "--samples", "30", "--passes", "4", "--seed", "2",
                   "--out", sweep_csv) == 0
        raw = sweep_csv.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")  # line ends as `gen` writes them
        assert hashlib.sha256(raw).hexdigest() == (
            "5615574e692d712978f77a1335c0ac5c97436f5072ed249d371b73b362727fef"
        )

    @pytest.mark.parametrize("value", ["512", "4096", *EDGES])
    @pytest.mark.parametrize("command", ["build:table", "build:lpc", "sizes", "estimate", "sweep"])
    def test_md_block_size_is_a_usage_error(self, workspace, tmp_path, capsys, command, value):
        # The md cell file and the table's pages are always 4096-octet blocks.
        command, _, scheme = command.partition(":")
        argv = {
            "build": ("--in", workspace / "rel.csv", "--scheme", scheme),
            "sizes": ("--in", workspace / "rel.csv"),
            "estimate": ("--md-store", workspace / "dhc", "--table-store", workspace / "table"),
            "sweep": ("--md-store", workspace / "dhc", "--table-store", workspace / "table",
                      "--constants", workspace / "none.json"),
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(command, *argv, "--block-size", value, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments: --block-size" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("sweep", "--passes", "0"),
        ("sweep", "--samples", "-3"),
        ("sweep", "--samples", "0"),
        ("estimate", "--samples", "0"),
        ("sweep", "--budget-list", "1,2"),
    ])
    def test_counts_below_one_are_data_errors(self, workspace, tmp_path, capsys, argv):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps(
            {"M_m": 0.01, "D_m": 1.0, "M_t": 0.02, "D_t": 2.0, "H": 10, "C": 100, "S": 200}
        ))
        extra = ("--constants", constants) if argv[0] == "sweep" else ()
        assert run(*argv, *extra, "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table",
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("doc", [
        {"M_m": 0.01, "D_m": 1.0, "M_t": 0.02, "D_t": 2.0, "C": 100, "S": 200},
        [0.01, 1.0, 0.02, 2.0, 10, 100, 200],
    ])
    def test_bad_constants_file_is_a_data_error(self, workspace, tmp_path, capsys, doc):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps(doc))
        assert run("sweep", "--constants", constants, "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table", "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad constants file: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_sweep_explicit_budgets(self, workspace, tmp_path):
        constants = tmp_path / "c2.json"
        run("estimate", "--md-store", workspace / "dhc",
            "--table-store", workspace / "table",
            "--samples", "100", "--out", constants)
        doc = json.loads(constants.read_text())
        budgets = f"{doc['H']},{doc['H'] + doc['C']}"
        assert run("sweep", "--md-store", workspace / "dhc",
                   "--table-store", workspace / "table",
                   "--constants", constants, "--budget-list", budgets,
                   "--samples", "20", "--passes", "2", "--seed", "3",
                   "--out", tmp_path / "s.csv") == 0


@pytest.fixture(scope="module")
def unpaired(tmp_path_factory):
    """A DHC store of a 16x16x8 relation and four tables, each of a relation
    that differs from it: other dimensions, other cells, other labels, and
    as many cells at other coordinates."""
    tmp = tmp_path_factory.mktemp("unpaired")
    rel = generate(SynthSpec((16, 16, 8), 0.1, seed=1))
    mdstore.save(mdstore.build_store(rel, "dhc"), tmp / "md")
    relabelled = DimensionSchema(tuple(
        Dimension(d.name, reversed(d.values)) for d in rel.schema.dimensions
    ))
    for name, other in (
        ("other-dims", generate(SynthSpec((8, 8, 8), 0.1, seed=1))),
        ("other-cells", generate(SynthSpec((16, 16, 8), 0.2, seed=1))),
        ("other-labels", Relation.from_ordered(relabelled, *ordered_cells(rel))),
        ("other-seed", generate(SynthSpec((16, 16, 8), 0.1, seed=2))),
    ):
        tablestore.save_table(tablestore.build_table(other), tmp / name)
    return tmp


class TestUnpairedStores:
    @pytest.mark.parametrize("table, words", [
        ("other-dims", "dimensions 16x16x8 against 8x8x8, 205 cells against 51 rows"),
        ("other-cells", "205 cells against 410 rows"),
        ("other-labels", "dimension labels"),
        ("other-seed", "cells at other coordinates"),
    ], ids=["other-dims", "other-cells", "other-labels", "other-seed"])
    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_stores_of_different_relations_are_a_data_error(
        self, unpaired, tmp_path, capsys, command, table, words
    ):
        constants = tmp_path / "c.json"
        constants.write_text(json.dumps(
            {"M_m": 0.01, "D_m": 1.0, "M_t": 0.02, "D_t": 2.0, "H": 10, "C": 100, "S": 200}
        ))
        extra = ("--constants", constants, "--points", "3") if command == "sweep" else ()
        assert run(command, "--md-store", unpaired / "md", "--table-store", unpaired / table,
                   *extra, "--samples", "20", "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and err.rstrip().endswith(f"different relations: {words}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


MD_FLAGS = ("--entry-width", "--offset-width", "--block-len", "--s-bits", "--stride")
# Each subcommand variant's numeric flags.  A build tries each parameter on the
# schemes that read it and on LPC, which ignores all but the entry width.
FUZZED = {
    "gen": ("--dims", "--density", "--clustering", "--seed"),
    "ingest": (),
    "build:schc": ("--entry-width",),
    "build:lpc": MD_FLAGS,
    "build:boc": ("--entry-width", "--offset-width", "--block-len"),
    "build:dsc": ("--entry-width", "--s-bits", "--stride"),
    "build:dhc": ("--entry-width", "--s-bits", "--stride"),
    "build:table": (),
    "query:dhc": ("--coords",),
    "query:table": ("--coords",),
    "sizes": MD_FLAGS,
    "estimate": ("--samples", "--seed"),
    "sweep": ("--points", "--samples", "--passes", "--seed", "--budget-list"),
}
SHAPE = {"--dims": "{},4", "--coords": "{},0,0"}
GRID = [(key, None, None) for key, flags in FUZZED.items() if not flags] + [
    (key, flag, SHAPE.get(flag, "{}").format(value))
    for key, flags in FUZZED.items() for flag in flags for value in EDGES
]
# Cases that once ended in a traceback (struct.error, OverflowError or
# MemoryError), each with the exit code it must give and the words of its
# one error line.
T12, T23 = str(10**12), str(10**23)
ESCAPES = [
    ("build:lpc", "--entry-width", "-1", 1, "entry_width -1 is not in 1..8"),
    ("build:lpc", "--entry-width", T23, 1, "entry_width"),
    ("sizes", "--entry-width", "-1", 1, "entry_width"),
    ("build:dsc", "--stride", T23, 1, "stride"),
    *[(key, "--block-len", v, 0, "") for key in ("build:boc", "sizes") for v in (T12, str(2**63))],
    *[("estimate", "--samples", v, 1, "sample size") for v in (T12, T23)],
    *[("sweep", "--points", v, 1, "budget points") for v in (T12, T23)],
    *[("sweep", flag, v, 1, "times passes")
      for flag in ("--samples", "--passes") for v in (T12, T23)],
    ("gen", "--dims", "2147483648,2", 1, "value labels"),
    ("gen", "--dims", "4294967296,4294967296,4", 1, "64-bit"),
    ("gen:1", "--dims", "1000,1000,1000", 1, "1000000000 cells, more than"),
]
# Runs each argv through `main` in one process whose address space is capped
# at 3 GiB, so a runaway allocation fails there instead of exhausting the host,
# and stops any case still running after 5 s with a traceback.
CHILD = """
import contextlib, io, json, resource, signal, sys, traceback
from sparsecube.cli import main
class Overran(BaseException):
    pass
def overran(*_):
    raise Overran("still running after 5 s")
signal.signal(signal.SIGALRM, overran)
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        signal.alarm(5)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            code = None
            traceback.print_exc()
        signal.alarm(0)
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def _argv(ws: Path, key: str, flag, value, out: Path) -> list[str]:
    """A valid, quick command on the tiny relation, with `flag` set to `value`.
    A `gen` variant names the density."""
    cmd, _, variant = key.partition(":")
    pair = ("--md-store", ws / "dhc", "--table-store", ws / "table", "--samples", "3",
            "--out", out)
    base = {
        "gen": ("gen", "--dims", "8,8,4", "--density", variant or "0.25", "--out", out),
        "ingest": ("ingest", "--in", ws / "rel.csv"),
        "build": ("build", "--in", ws / "rel.csv", "--scheme", variant, "--out", out),
        "query": ("query", "--store", ws / variant, "--coords", "0,0,0"),
        "sizes": ("sizes", "--in", ws / "rel.csv"),
        "estimate": ("estimate", *pair),
        "sweep": ("sweep", *pair, "--constants", ws / "c.json", "--points", "3",
                  "--passes", "2"),
    }[cmd]
    # A repeated option takes its last value.
    return [str(a) for a in base + ((flag, value) if flag else ())]


@pytest.fixture(scope="module")
def guarded(tmp_path_factory):
    """(exit code, stderr) of every GRID and ESCAPES case, keyed by case."""
    ws = tmp_path_factory.mktemp("guarded")
    assert run("gen", "--dims", "8,8,4", "--density", "0.25", "--seed", "1",
               "--out", ws / "rel.csv") == 0
    for scheme in ("dhc", "table"):
        assert run("build", "--in", ws / "rel.csv", "--scheme", scheme,
                   "--out", ws / scheme) == 0
    assert run("estimate", "--md-store", ws / "dhc", "--table-store", ws / "table",
               "--samples", "3", "--out", ws / "c.json") == 0
    cases = list(dict.fromkeys(GRID + [case[:3] for case in ESCAPES]))
    argvs = [_argv(ws, *case, ws / f"out{i}") for i, case in enumerate(cases)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(sparsecube.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), capture_output=True,
        text=True, env=env, timeout=900,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert len(results) == len(cases)
    return dict(zip(cases, map(tuple, results)))


def _one_error_line(err: str) -> bool:
    return sum(line.startswith("error: ") for line in err.splitlines()) == 1


class TestNoEscapes:
    def test_no_failure_escapes_the_cli(self, guarded):
        escaped = {
            case: (code, err[-300:])
            for case, (code, err) in guarded.items()
            if code not in (0, 1, 2) or "Traceback" in err
            or (code == 1 and not _one_error_line(err))
        }
        assert not escaped

    @pytest.mark.parametrize("key, flag, value, code, words", ESCAPES,
                             ids=[" ".join(case[:3]) for case in ESCAPES])
    def test_former_escape(self, guarded, key, flag, value, code, words):
        got, err = guarded[key, flag, value]
        assert (got, "Traceback" in err) == (code, False), err[-300:]
        if code:
            assert err.startswith("error: ") and words in err and err.count("\n") == 1
