"""Version identifiers. FORMAT_VERSION numbers the on-disk formats as a
whole (records, edges, closure, index, annotations); bump it on any format
change. It is written into the index manifest, which load_index refuses
when it differs, and into every run manifest. Version 2 replaced the
index's records copy with a marshalled blob; version 3 numbers the blob's
rows in rank order (sitelinks count descending, then id) instead of id
order; version 4 stores the blob's lookup tables as sorted tuples probed
by bisection, not dicts, and each row's fields as one marshalled bytes
object, so a load builds no hash table."""

__version__ = "0.1.0"
FORMAT_VERSION = 4
