"""Exact Baker-Campbell-Hausdorff series terms.

The order-n term of z = log(e^x e^y) is the upper-right entry of the exact
logarithm of a product of two (n+1) x (n+1) unit-triangular matrices, one
per letter, read back as words.  Only the last column of the logarithm is
needed, so the kernel applies the factors to one column at a time; each
column entry is one Python int that packs one integer lane per word, and the
result is split into one exact rational per word at the end.  The same
kernel covers products of more exponentials and of arbitrary power series
with f(0) = 1.  The matrix route, a free-algebra oracle, a numeric +-1
evaluation of the same entry and a commutator form round trip check it.
"""

__version__ = "0.1.0"

from .multilinear import MultilinearPoly, Rational, SupportOverlapError
from .words import Alphabet, NCSeries, SeriesSpec, Word
from .trimatrix import (
    TriMatrix,
    build_factor_matrix,
    log_upper_right,
    mat_mul,
    t_operator,
    word_matrix_product,
)
from .series import bch_term, bch_term_multi, logf_term
from .dynkin import LieTerm, dynkin_substitute, expand_commutators
from .signedeval import (
    ScanReport,
    SignedCoefficientTable,
    build_table,
    eval_assignment,
    reconstruct_term,
    scan_nonvanishing,
)
from .freealgebra import TruncatedNCSeries, nc_mul, oracle_bch
from .output import OutputDocument

__all__ = [
    "__version__",
    "Alphabet",
    "LieTerm",
    "MultilinearPoly",
    "NCSeries",
    "OutputDocument",
    "Rational",
    "ScanReport",
    "SeriesSpec",
    "SignedCoefficientTable",
    "SupportOverlapError",
    "TriMatrix",
    "TruncatedNCSeries",
    "Word",
    "bch_term",
    "bch_term_multi",
    "build_factor_matrix",
    "build_table",
    "dynkin_substitute",
    "eval_assignment",
    "expand_commutators",
    "log_upper_right",
    "logf_term",
    "mat_mul",
    "nc_mul",
    "oracle_bch",
    "reconstruct_term",
    "scan_nonvanishing",
    "t_operator",
    "word_matrix_product",
]
