"""Compressed storage engine for sparse multidimensional arrays.

Five header-compression schemes (SCHC, LPC, BOC, DSC, DHC) translate logical
positions in the linearized array to physical positions in a compressed cell
array, next to a baseline row-file-plus-index table representation, an
analytic cache-performance model, and a benchmark harness.
"""

from .blockio import BlockReader, SimCache
from .cachemodel import CacheModelParams, RepConstants
from .errors import (
    CorruptStreamError,
    EmptyRelationError,
    FormatError,
    IngestError,
    InvalidCoordinateError,
    InvalidPositionError,
    OffsetOverflowError,
    StoreError,
)
from .mdstore import MultidimStore, StoreParams, build_store, load, save
from .relation import (
    Dimension,
    DimensionSchema,
    IngestConfig,
    Relation,
    decode_logical_position,
    encode_logical_position,
    ingest_delimited,
    logical_position_sequence,
)
from .synth import SynthSpec, generate
from .tablestore import TableStore, build_table, load_table, save_table

__all__ = [
    "BlockReader",
    "SimCache",
    "CacheModelParams",
    "RepConstants",
    "StoreError",
    "InvalidCoordinateError",
    "InvalidPositionError",
    "EmptyRelationError",
    "IngestError",
    "OffsetOverflowError",
    "FormatError",
    "CorruptStreamError",
    "MultidimStore",
    "StoreParams",
    "build_store",
    "load",
    "save",
    "Dimension",
    "DimensionSchema",
    "Relation",
    "IngestConfig",
    "ingest_delimited",
    "encode_logical_position",
    "decode_logical_position",
    "logical_position_sequence",
    "SynthSpec",
    "generate",
    "TableStore",
    "build_table",
    "save_table",
    "load_table",
]
