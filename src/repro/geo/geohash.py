"""2-bits-per-character geo-hashing (paper §5).

The paper's implementation encodes one longitude bit and one latitude
bit per character, so dropping one trailing character grows the region
four-fold — that is exactly the level-1 -> level-2 relation of §4.3.
This module implements that scheme over (lat, lon) coordinates.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

__all__ = [
    "encode",
    "decode_bounds",
    "parent",
    "neighbors_at_level",
    "covers",
]

#: Alphabet for 2-bit characters (values 0..3).
_ALPHABET = "0123"

_LAT_RANGE = (-90.0, 90.0)
_LON_RANGE = (-180.0, 180.0)


def encode(lat: float, lon: float, precision: int) -> str:
    """Geo-hash of ``precision`` characters, one lon bit + one lat bit each."""
    if not _LAT_RANGE[0] <= lat <= _LAT_RANGE[1]:
        raise ValueError("latitude %r out of range" % (lat,))
    if not _LON_RANGE[0] <= lon <= _LON_RANGE[1]:
        raise ValueError("longitude %r out of range" % (lon,))
    if precision < 1:
        raise ValueError("precision must be >= 1")
    lat_lo, lat_hi = _LAT_RANGE
    lon_lo, lon_hi = _LON_RANGE
    chars: List[str] = []
    for _ in range(precision):
        value = 0
        lon_mid = (lon_lo + lon_hi) / 2
        if lon >= lon_mid:
            value |= 2
            lon_lo = lon_mid
        else:
            lon_hi = lon_mid
        lat_mid = (lat_lo + lat_hi) / 2
        if lat >= lat_mid:
            value |= 1
            lat_lo = lat_mid
        else:
            lat_hi = lat_mid
        chars.append(_ALPHABET[value])
    return "".join(chars)


def decode_bounds(geohash: str) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """((lat_lo, lat_hi), (lon_lo, lon_hi)) bounding box of a geo-hash."""
    if not geohash:
        raise ValueError("empty geo-hash")
    lat_lo, lat_hi = _LAT_RANGE
    lon_lo, lon_hi = _LON_RANGE
    for char in geohash:
        try:
            value = _ALPHABET.index(char)
        except ValueError:
            raise ValueError("invalid geo-hash character %r" % char)
        lon_mid = (lon_lo + lon_hi) / 2
        if value & 2:
            lon_lo = lon_mid
        else:
            lon_hi = lon_mid
        lat_mid = (lat_lo + lat_hi) / 2
        if value & 1:
            lat_lo = lat_mid
        else:
            lat_hi = lat_mid
    return (lat_lo, lat_hi), (lon_lo, lon_hi)


def parent(geohash: str) -> str:
    """The enclosing region: one character shorter, four times the area."""
    if len(geohash) < 2:
        raise ValueError("geo-hash %r has no parent" % geohash)
    return geohash[:-1]


def covers(prefix: str, geohash: str) -> bool:
    """Whether ``geohash`` lies inside the region named by ``prefix``."""
    return geohash.startswith(prefix)


def neighbors_at_level(geohash: str) -> List[str]:
    """The four sibling cells sharing this cell's parent (incl. itself)."""
    if len(geohash) < 2:
        raise ValueError("need at least two characters")
    prefix = geohash[:-1]
    return [prefix + c for c in _ALPHABET]


def center(geohash: str) -> Tuple[float, float]:
    """(lat, lon) center of the geo-hash cell."""
    (lat_lo, lat_hi), (lon_lo, lon_hi) = decode_bounds(geohash)
    return ((lat_lo + lat_hi) / 2, (lon_lo + lon_hi) / 2)


__all__.append("center")
