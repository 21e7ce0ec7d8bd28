"""Version identifiers. FORMAT_VERSION numbers the on-disk formats as a
whole (records, edges, closure, index, annotations); bump it on any format
change. It is written into the index manifest, which load_index refuses
when it differs, and into every run manifest. Format 5's index is one
marshalled blob: sorted key and id tuples probed by bisection, rows numbered
in rank order (sitelinks count descending, then id), and every list of rows,
and the row bytes, as slices of flat columns, so a load builds no dict and
no per-key tuple."""

__version__ = "0.1.0"
FORMAT_VERSION = 5
