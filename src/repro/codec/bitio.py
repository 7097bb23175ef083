"""Bit- and byte-level buffer primitives shared by the codecs.

``BitWriter``/``BitReader`` are MSB-first, as required by ASN.1 PER
(unaligned).  ``ByteWriter``/``ByteReader`` serve the byte-aligned
codecs (FlatBuffers, protobuf, CDR, LCM) with explicit endianness and
alignment support.

The hot paths are word-level: ``write_bits``/``read_bits`` move whole
bit-spans through ``int.to_bytes``/``int.from_bytes`` instead of
looping bit at a time, and the fixed-width integer reads use
precompiled :mod:`struct` unpackers over the underlying buffer
(``unpack_from`` — no per-read slice allocation).  All of it is
bit-identical to the original per-bit implementation; the codec
differential-fuzz and witness tests pin that.
"""

from __future__ import annotations

import struct
from typing import Optional

__all__ = ["BitWriter", "BitReader", "ByteWriter", "ByteReader", "CodecError"]


class CodecError(Exception):
    """Malformed input to an encoder or decoder."""


#: precompiled fixed-width packers, keyed by (endian, nbytes).
_PACK_U = {
    ("little", 1): struct.Struct("<B"),
    ("little", 2): struct.Struct("<H"),
    ("little", 4): struct.Struct("<I"),
    ("little", 8): struct.Struct("<Q"),
    ("big", 1): struct.Struct(">B"),
    ("big", 2): struct.Struct(">H"),
    ("big", 4): struct.Struct(">I"),
    ("big", 8): struct.Struct(">Q"),
}
_PACK_S = {
    ("little", 1): struct.Struct("<b"),
    ("little", 2): struct.Struct("<h"),
    ("little", 4): struct.Struct("<i"),
    ("little", 8): struct.Struct("<q"),
    ("big", 1): struct.Struct(">b"),
    ("big", 2): struct.Struct(">h"),
    ("big", 4): struct.Struct(">i"),
    ("big", 8): struct.Struct(">q"),
}


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self):
        self._buf = bytearray()
        self._bitpos = 0  # bits used in the last byte (0..7)

    def __len__(self) -> int:
        """Total number of bits written."""
        if self._bitpos == 0:
            return len(self._buf) * 8
        return (len(self._buf) - 1) * 8 + self._bitpos

    def write_bit(self, bit: int) -> None:
        bitpos = self._bitpos
        if bitpos == 0:
            self._buf.append(0x80 if bit else 0)
            self._bitpos = 1
        else:
            if bit:
                self._buf[-1] |= 0x80 >> bitpos
            self._bitpos = (bitpos + 1) & 7

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` bits of ``value``, MSB first.

        Word-level: fills the partial byte, then emits all full bytes
        in one ``int.to_bytes`` call (C loop) instead of per-bit shifts.
        """
        if nbits < 0:
            raise CodecError("negative bit count")
        if value < 0:
            raise CodecError("write_bits takes non-negative values")
        if nbits and value >> nbits:
            raise CodecError("value %d does not fit in %d bits" % (value, nbits))
        if nbits == 0:
            return
        buf = self._buf
        bitpos = self._bitpos
        if bitpos:
            free = 8 - bitpos  # bits left in the partial last byte
            if nbits <= free:
                buf[-1] |= value << (free - nbits)
                self._bitpos = (bitpos + nbits) & 7
                return
            buf[-1] |= value >> (nbits - free)
            nbits -= free
            value &= (1 << nbits) - 1
        full, rem = divmod(nbits, 8)
        if rem:
            # Last byte carries the low `rem` bits left-aligned.
            buf += (value << (8 - rem)).to_bytes(full + 1, "big")
            self._bitpos = rem
        else:
            buf += value.to_bytes(full, "big")
            self._bitpos = 0

    def write_bytes(self, data: bytes) -> None:
        if self._bitpos == 0:  # fast path: byte aligned
            self._buf.extend(data)
        elif data:
            # One big-int shift instead of eight shifts per byte.
            self.write_bits(int.from_bytes(data, "big"), len(data) * 8)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._bitpos:
            self._buf[-1] |= 0  # last byte already zero-padded
            self._bitpos = 0

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class BitReader:
    """MSB-first bit reader over an immutable byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._nbits = len(data) * 8
        self._pos = 0  # absolute bit position

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._nbits:
            raise CodecError("bit buffer exhausted")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, nbits: int) -> int:
        """Word-level span read: one ``int.from_bytes`` over the bytes
        covering ``[pos, pos + nbits)``, then shift/mask."""
        if nbits < 0:
            raise CodecError("negative bit count")
        if nbits == 0:
            return 0
        pos = self._pos
        end = pos + nbits
        if end > self._nbits:
            raise CodecError("bit buffer exhausted")
        first = pos >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._data[first : last + 1], "big")
        self._pos = end
        return (chunk >> (((last + 1) << 3) - end)) & ((1 << nbits) - 1)

    def read_bytes(self, nbytes: int) -> bytes:
        if self._pos & 7 == 0:  # fast path: aligned
            start = self._pos >> 3
            end = start + nbytes
            if end * 8 > self._nbits:
                raise CodecError("byte buffer exhausted")
            self._pos = end * 8
            return self._data[start:end]
        if nbytes == 0:
            return b""
        return self.read_bits(nbytes * 8).to_bytes(nbytes, "big")

    def align(self) -> None:
        rem = self._pos & 7
        if rem:
            self._pos += 8 - rem


class ByteWriter:
    """Growable byte buffer with endianness-aware integer writes."""

    def __init__(self, endian: str = "little"):
        if endian not in ("little", "big"):
            raise CodecError("endian must be 'little' or 'big'")
        self.endian = endian
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def tell(self) -> int:
        return len(self._buf)

    def write(self, data: bytes) -> None:
        self._buf.extend(data)

    def write_uint(self, value: int, nbytes: int) -> None:
        if value < 0:
            raise CodecError("write_uint takes non-negative values")
        self._buf.extend(value.to_bytes(nbytes, self.endian))

    def write_int(self, value: int, nbytes: int) -> None:
        self._buf.extend(value.to_bytes(nbytes, self.endian, signed=True))

    def pad_to(self, alignment: int) -> None:
        """Zero-pad so the next write lands on an ``alignment`` boundary."""
        rem = len(self._buf) % alignment
        if rem:
            self._buf.extend(b"\x00" * (alignment - rem))

    def patch_uint(self, offset: int, value: int, nbytes: int) -> None:
        packer = _PACK_U.get((self.endian, nbytes))
        if packer is not None and 0 <= value < (1 << (nbytes * 8)):
            packer.pack_into(self._buf, offset, value)
        else:
            self._buf[offset : offset + nbytes] = value.to_bytes(nbytes, self.endian)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class ByteReader:
    """Sequential byte reader with endianness-aware integer reads."""

    def __init__(self, data: bytes, endian: str = "little"):
        if endian not in ("little", "big"):
            raise CodecError("endian must be 'little' or 'big'")
        self.data = data
        self.endian = endian
        self.pos = 0
        # Hot-path dispatch tables bound per reader: fixed-width reads
        # dominate FlatBuffers decode (every vtable hop is a uint_at).
        self._unpack_u = {
            1: _PACK_U[(endian, 1)].unpack_from,
            2: _PACK_U[(endian, 2)].unpack_from,
            4: _PACK_U[(endian, 4)].unpack_from,
            8: _PACK_U[(endian, 8)].unpack_from,
        }
        self._unpack_s = {
            1: _PACK_S[(endian, 1)].unpack_from,
            2: _PACK_S[(endian, 2)].unpack_from,
            4: _PACK_S[(endian, 4)].unpack_from,
            8: _PACK_S[(endian, 8)].unpack_from,
        }

    def read(self, nbytes: int) -> bytes:
        end = self.pos + nbytes
        if end > len(self.data):
            raise CodecError("buffer exhausted (want %d bytes)" % nbytes)
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def read_uint(self, nbytes: int) -> int:
        pos = self.pos
        end = pos + nbytes
        if end > len(self.data):
            raise CodecError("buffer exhausted (want %d bytes)" % nbytes)
        self.pos = end
        unpack = self._unpack_u.get(nbytes)
        if unpack is not None:
            return unpack(self.data, pos)[0]
        return int.from_bytes(self.data[pos:end], self.endian)

    def read_int(self, nbytes: int) -> int:
        pos = self.pos
        end = pos + nbytes
        if end > len(self.data):
            raise CodecError("buffer exhausted (want %d bytes)" % nbytes)
        self.pos = end
        unpack = self._unpack_s.get(nbytes)
        if unpack is not None:
            return unpack(self.data, pos)[0]
        return int.from_bytes(self.data[pos:end], self.endian, signed=True)

    def align(self, alignment: int) -> None:
        rem = self.pos % alignment
        if rem:
            self.read(alignment - rem)

    def uint_at(self, offset: int, nbytes: int) -> int:
        """Random-access unsigned read (FlatBuffers-style field access)."""
        if offset < 0 or offset + nbytes > len(self.data):
            raise CodecError("random access out of range")
        unpack = self._unpack_u.get(nbytes)
        if unpack is not None:
            return unpack(self.data, offset)[0]
        return int.from_bytes(self.data[offset : offset + nbytes], self.endian)

    def int_at(self, offset: int, nbytes: int) -> int:
        if offset < 0 or offset + nbytes > len(self.data):
            raise CodecError("random access out of range")
        unpack = self._unpack_s.get(nbytes)
        if unpack is not None:
            return unpack(self.data, offset)[0]
        return int.from_bytes(self.data[offset : offset + nbytes], self.endian, signed=True)
