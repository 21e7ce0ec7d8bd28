"""Version identifiers. FORMAT_VERSION numbers the on-disk formats as a
whole (records, edges, closure, index, annotations); bump it on any format
change. It is written into the index manifest, which load_index refuses
when it differs, and into every run manifest. Version 2 replaced the
index's records copy with a marshalled blob."""

__version__ = "0.1.0"
FORMAT_VERSION = 2
