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

Each public name is imported from its home module on first access (PEP 562),
so ``python -m bchkit`` loads only the modules its command runs.
"""

__version__ = "0.1.0"
CACHE_ENV_VAR = "BCHKIT_CACHE_DIR"  # the cache directory override, read by cli and output

# home module -> the public names it defines
_EXPORTS = {
    "multilinear": ("MultilinearPoly", "SupportOverlapError"),
    "words": ("Alphabet", "NCSeries", "Rational", "SeriesSpec", "Word"),
    "trimatrix": (
        "TriMatrix", "build_factor_matrix", "log_upper_right", "mat_mul", "t_operator", "word_matrix_product",
    ),
    "series": ("bch_term", "bch_term_multi", "logf_term"),
    "dynkin": ("LieTerm", "dynkin_substitute", "expand_commutators"),
    "signedeval": (
        "ScanReport", "SignedCoefficientTable", "build_table", "eval_assignment", "reconstruct_term",
        "scan_nonvanishing",
    ),
    "freealgebra": ("TruncatedNCSeries", "nc_mul", "oracle_bch"),
    "output": ("OutputDocument",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    # a dunder (the import system probes __path__) or an unknown name must
    # not import anything
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, as a relative import statement calls it: -X importtime does
    # not see importlib.import_module
    value = globals()[name] = getattr(__import__(_HOMES[name], globals(), None, (), 1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
