"""Wire-size estimation for modelled transfers.

The simulator never really serialises objects; it needs a *size model*
so transfers cost realistic time and money.  ``estimate_size`` walks
plain Python data and sums a conventional encoding size; objects that
know better expose ``size_bytes`` (messages, units, capsules all do).
Byte buffers (``bytes``, ``bytearray``, ``memoryview``) cost their byte
length.  The walk answers exact built-in types (``str``, numbers,
``list``/``tuple``/``dict``, ``None``, ``bytes``) by ``type()`` before
probing for ``size_bytes`` or testing the ``Mapping``/``Sequence``
ABCs, which keeps sizing small request/reply payloads cheap.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

#: Fixed per-object envelope: type tag + length field.
_OBJECT_OVERHEAD = 8
#: Encoded size of a number (int/float/bool) in a conventional encoding.
_NUMBER_BYTES = 8
#: Fallback size for opaque objects without a declared size.
DEFAULT_OBJECT_BYTES = 256


def estimate_size(value: object) -> int:
    """Modelled encoded size of ``value`` in bytes.

    Deterministic, cheap, and defined for arbitrary nesting.  Objects
    exposing an integer ``size_bytes`` attribute are charged exactly
    that (plus envelope), which lets units and capsules control their
    modelled footprint.
    """
    return _OBJECT_OVERHEAD + _payload_size(value, depth=0)


def _payload_size(value: object, depth: int) -> int:
    if depth > 32:
        # Pathological nesting: charge the fallback rather than recurse on.
        return DEFAULT_OBJECT_BYTES
    # Exact built-ins first: they carry no ``size_bytes``, so answering
    # them here skips the attribute probe and the ABC checks below.
    # Subclasses fall through, where a declared size still wins.
    kind = type(value)
    if kind is str:
        return len(value.encode("utf-8"))
    if kind is int or kind is float:
        return _NUMBER_BYTES
    if kind is tuple or kind is list:
        return _items_size(value, depth)
    if kind is dict:
        return _mapping_size(value, depth)
    if value is None or kind is bool:
        return 1
    if kind is bytes:
        return len(value)
    declared = getattr(value, "size_bytes", None)
    if isinstance(declared, int) and not isinstance(value, (bool, int)):
        return declared + _OBJECT_OVERHEAD
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _NUMBER_BYTES
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, memoryview):
        return value.nbytes
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, Mapping):
        return _mapping_size(value, depth)
    if isinstance(value, (Sequence, set, frozenset)):
        return _items_size(value, depth)
    return DEFAULT_OBJECT_BYTES


def _items_size(items: Iterable, depth: int) -> int:
    # A plain loop, not ``sum()`` over a generator: the generator would
    # resume once per element, doubling the walk's Python calls.
    size = _OBJECT_OVERHEAD
    depth += 1
    for item in items:
        size += _payload_size(item, depth)
    return size


def _mapping_size(mapping: Mapping, depth: int) -> int:
    size = _OBJECT_OVERHEAD
    depth += 1
    for key, item in mapping.items():
        size += _payload_size(key, depth) + _payload_size(item, depth)
    return size
