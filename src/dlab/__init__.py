"""dlab: exact-arithmetic constructions and verifiers for topological
determinism counterexamples on shift spaces over [0,1], plus a brute-force
finite-system oracle for the underlying recurrence theory."""

from .blocks import (
    Block,
    InvariantError,
    ResourceCapError,
    TdseqFormatError,
    concat,
    concat_all,
    load_tdseq,
    dump_tdseq,
    read_tdseq,
    scale,
    sup_distance,
    window,
    write_tdseq,
    zeros,
)
from .report import CheckReport

__all__ = [
    "Block",
    "CheckReport",
    "InvariantError",
    "ResourceCapError",
    "TdseqFormatError",
    "concat",
    "concat_all",
    "dump_tdseq",
    "load_tdseq",
    "read_tdseq",
    "scale",
    "sup_distance",
    "window",
    "write_tdseq",
    "zeros",
]

__version__ = "0.1.0"
