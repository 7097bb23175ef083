"""FlatBuffers wire format, from scratch, plus the paper's optimization.

The format follows the real FlatBuffers layout: a root ``uoffset`` at
position 0, tables holding an ``soffset`` to a shared vtable plus inline
scalar slots and 4-byte ``uoffset`` references to out-of-line strings,
vectors and sub-tables.  The properties the paper leans on (§4.4) hold
structurally:

* **Random access on decode** — any field is reachable through its vtable
  slot without touching other fields (see :class:`FlatTable`, the lazy
  accessor), unlike PER's sequential bit stream.
* **vtable size overhead** — every table costs a vtable
  (``2 + 2 + 2·nfields`` bytes, deduplicated per buffer) and an
  ``soffset``, which is why FlatBuffers messages are larger than PER.

**Optimized FlatBuffers (svtable)**: cellular CHOICEs very often carry a
single value.  Standard FlatBuffers forces union members to be tables, so
a single-scalar alternative pays vtable (6 B) + soffset (4 B) = 10 bytes
of metadata; a single var-length alternative additionally pays its field
slot, ~14 bytes.  With ``optimize_unions=True`` the codec stores such
alternatives directly — the union value offset points at the bare scalar
or string — reproducing the paper's svtable saving and its slightly
faster times (one less indirection).
"""

from __future__ import annotations

import struct
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from .base import Codec, register_codec
from .bitio import ByteReader, ByteWriter, CodecError
from .schema import Field, TableType, Type, validate

__all__ = ["FlatBuffersCodec", "FlatTable"]

_SOFFSET_SIZE = 4
_UOFFSET_SIZE = 4

_FD = struct.Struct("<d")
_FF = struct.Struct("<f")
_LEN4 = struct.Struct("<I")

# Per-schema-type caches for the hot paths.  A table's slot layout,
# vtable bytes and decode plan depend only on the schema (and, for the
# layout, on which optional fields are present), so they are computed
# once per type and reused across every encode/decode.  Weak keys let
# transient types (e.g. hypothesis-generated schemas) be collected, and
# keep the schema objects themselves free of codec state.
_LAYOUTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SCALAR_ENC: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SCALAR_DEC: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_UELEM_WRAP: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_UNION_ENC_WRAP: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_UNION_DEC_WRAP: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_VT_UNPACKERS: Dict[int, Callable] = {}

#: zero padding up to 4-byte alignment, indexed by pad width
_PADS = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")


def _vt_unpacker(n_entries: int) -> Callable:
    """unpack_from for a whole vtable entry array (n little-endian u16)."""
    unpacker = _VT_UNPACKERS.get(n_entries)
    if unpacker is None:
        unpacker = _VT_UNPACKERS[n_entries] = struct.Struct(
            "<%dH" % n_entries
        ).unpack_from
    return unpacker


def _uelem_wrapper(t: Type) -> TableType:
    """The implicit single-field table wrapping a vector-of-unions element."""
    wrapper = _UELEM_WRAP.get(t)
    if wrapper is None:
        wrapper = _UELEM_WRAP[t] = TableType("_uelem", [Field("u", t)])
    return wrapper


def _scalar_width(t: Type) -> int:
    """Inline slot width for scalar kinds; 0 means not inline."""
    kind = t.kind
    if kind == "int":
        return t.storage_bytes
    if kind == "bool":
        return 1
    if kind == "float":
        return t.bits // 8
    if kind == "enum":
        return 1 if len(t.names) <= 256 else 2
    return 0


def _is_single_scalar_union_alt(t: Type) -> bool:
    """Alt that svtable stores inline: a bare scalar, or 1-scalar table.

    The wrapped-table form only qualifies when its single field is
    *required* — an optional field's presence is dynamic, so the
    metadata-free encoding could not distinguish absent from present.
    """
    if _scalar_width(t):
        return True
    if t.kind == "table" and len(t.fields) == 1 and not t.fields[0].optional:
        return _scalar_width(t.fields[0].type) > 0
    return False


def _is_single_varlen_union_alt(t: Type) -> bool:
    """Alt svtable stores as a bare string/bytes: 1-varlen-field table."""
    if t.kind in ("bytes", "string"):
        return True
    if t.kind == "table" and len(t.fields) == 1 and not t.fields[0].optional:
        return t.fields[0].type.kind in ("bytes", "string")
    return False


def _scalar_encoder(t: Type) -> Callable[[Any], bytes]:
    """value -> inline little-endian slot bytes, compiled per scalar type."""
    enc = _SCALAR_ENC.get(t)
    if enc is not None:
        return enc
    kind = t.kind
    if kind == "int":
        width = t.storage_bytes
        mask = (1 << (width * 8)) - 1

        def enc(v, _w=width, _m=mask):
            return (v & _m).to_bytes(_w, "little")

    elif kind == "bool":

        def enc(v):
            return b"\x01" if v else b"\x00"

    elif kind == "float":
        enc = (_FD if t.bits == 64 else _FF).pack
    elif kind == "enum":
        width = _scalar_width(t)
        index = t.index

        def enc(v, _w=width, _index=index):
            return _index[v].to_bytes(_w, "little")

    else:
        raise CodecError("not an inline scalar: %r" % kind)
    _SCALAR_ENC[t] = enc
    return enc


def _scalar_decoder(t: Type) -> Callable[[ByteReader, int], Any]:
    """(reader, pos) -> value, compiled per scalar type."""
    dec = _SCALAR_DEC.get(t)
    if dec is not None:
        return dec
    kind = t.kind
    if kind == "int":
        read = ByteReader.int_at if t.signed else ByteReader.uint_at

        def dec(r, pos, _read=read, _w=t.storage_bytes):
            return _read(r, pos, _w)

    elif kind == "bool":

        def dec(r, pos):
            return bool(r.uint_at(pos, 1))

    elif kind == "float":
        unpack = (_FD if t.bits == 64 else _FF).unpack_from

        def dec(r, pos, _unpack=unpack):
            return _unpack(r.data, pos)[0]

    elif kind == "enum":
        width = _scalar_width(t)
        names = t.names

        def dec(r, pos, _w=width, _names=names):
            idx = r.uint_at(pos, _w)
            if idx >= len(_names):
                raise CodecError("enum index out of range")
            return _names[idx]

    else:
        raise CodecError("not a scalar kind: %r" % kind)
    _SCALAR_DEC[t] = dec
    return dec


#: layout item roles (encode side); string/bytes refs get dedicated
#: roles so write_table can batch those leaf children into one append.
_ROLE_SCALAR, _ROLE_UNION_TYPE, _ROLE_REF = 0, 1, 2
_ROLE_REF_STR, _ROLE_REF_BYTES = 3, 4


def _ref_writer(t: Type) -> Optional[Callable]:
    """(builder, value) -> position, pre-resolved per out-of-line type."""
    kind = t.kind
    if kind == "string":
        return lambda b, v: b.write_string(v.encode("utf-8"))
    if kind == "bytes":
        return lambda b, v: b.write_vector_bytes(bytes(v))
    if kind == "bitstring":

        def wr(b, v):
            intval, nbits = v
            return b.write_vector_bytes(intval.to_bytes((nbits + 7) // 8, "big"))

        return wr
    if kind == "table":
        return lambda b, v, _t=t: b.write_table(_t, v)
    if kind == "array":
        return lambda b, v, _e=t.element: b.write_vector(_e, v)
    if kind == "union":
        return lambda b, v, _t=t: b._write_union_value(_t, v)
    return None  # fall back to write_value's error path


def _compute_layout(t: TableType, present: Tuple[bool, ...]):
    """Slot layout + prebuilt vtable bytes for one presence pattern.

    Mirrors the real builder: each present field gets a slot (unions get
    a u8 type slot and a uoffset value slot), slots are aligned to their
    width after the 4-byte soffset, and the vtable maps schema-order
    slot ids to in-table offsets (0 = absent).
    """
    slots: List[Tuple[Field, str, int]] = []
    for field, here in zip(t.fields, present):
        if not here:
            continue
        ft = field.type
        if ft.kind == "union":
            slots.append((field, "union_type", 1))
            slots.append((field, "union_value", _UOFFSET_SIZE))
        else:
            width = _scalar_width(ft)
            if width:
                slots.append((field, "scalar", width))
            else:
                slots.append((field, "ref", _UOFFSET_SIZE))

    offsets: List[int] = []
    cursor = _SOFFSET_SIZE
    for _field, _role, width in slots:
        if cursor % width:
            cursor += width - (cursor % width)
        offsets.append(cursor)
        cursor += width
    table_size = cursor

    vt_entries: List[int] = []
    slot_lookup = {}
    for (field, role, _w), off in zip(slots, offsets):
        slot_lookup[(field.name, role)] = off
    for field in t.fields:
        if field.type.kind == "union":
            vt_entries.append(slot_lookup.get((field.name, "union_type"), 0))
            vt_entries.append(slot_lookup.get((field.name, "union_value"), 0))
        else:
            role = "scalar" if _scalar_width(field.type) else "ref"
            vt_entries.append(slot_lookup.get((field.name, role), 0))

    vt_size = 4 + 2 * len(vt_entries)
    vt_bytes = struct.pack(
        "<%dH" % (2 + len(vt_entries)), vt_size, table_size, *vt_entries
    )
    vt_key = (table_size, tuple(vt_entries))

    items = []
    for (field, role, width), off in zip(slots, offsets):
        ft = field.type
        if role == "scalar":
            items.append((field.name, _ROLE_SCALAR, _scalar_encoder(ft), off, width, ft))
        elif role == "union_type":
            items.append((field.name, _ROLE_UNION_TYPE, None, off, width, ft))
        elif field.type.kind == "string":
            items.append((field.name, _ROLE_REF_STR, None, off, width, ft))
        elif field.type.kind == "bytes":
            items.append((field.name, _ROLE_REF_BYTES, None, off, width, ft))
        else:  # ref / union_value: pre-resolve the out-of-line writer
            items.append((field.name, _ROLE_REF, _ref_writer(ft), off, width, ft))
    return tuple(items), table_size, vt_key, vt_bytes


def _table_layout(t: TableType, v: dict):
    per_type = _LAYOUTS.get(t)
    if per_type is None:
        per_type = _LAYOUTS[t] = {}
    fields = t.fields
    # Values reaching write_table are already validated, so they hold no
    # unknown keys: equal sizes means every field is present (the common
    # case — skip building the per-field presence tuple).
    if len(v) == len(fields):
        layout = per_type.get(True)
        if layout is None:
            layout = per_type[True] = _compute_layout(t, (True,) * len(fields))
        return layout
    present = tuple(f.name in v for f in fields)
    layout = per_type.get(present)
    if layout is None:
        layout = per_type[present] = _compute_layout(t, present)
    return layout


def _slot_decoder(t: Type) -> Optional[Callable[[ByteReader, int], Any]]:
    """(reader, slot position) -> value for slots decodable without the
    codec: inline scalars, and refs to strings / bytes / bit strings.
    Tables, unions and arrays return None (codec-dependent path)."""
    if _scalar_width(t):
        return _scalar_decoder(t)
    kind = t.kind
    if kind == "string":

        def dec(r, pos):
            target = pos + r.uint_at(pos, _UOFFSET_SIZE)
            n = r.uint_at(target, 4)
            return r.data[target + 4 : target + 4 + n].decode("utf-8")

        return dec
    if kind == "bytes":

        def dec(r, pos):
            target = pos + r.uint_at(pos, _UOFFSET_SIZE)
            n = r.uint_at(target, 4)
            return r.data[target + 4 : target + 4 + n]

        return dec
    if kind == "bitstring":

        def dec(r, pos, _nbits=t.nbits):
            target = pos + r.uint_at(pos, _UOFFSET_SIZE)
            n = r.uint_at(target, 4)
            return (int.from_bytes(r.data[target + 4 : target + 4 + n], "big"), _nbits)

        return dec
    return None


def _decode_plan(t: TableType):
    """(name, type, slot id, is_union, slot decoder | None) per field."""
    plan = _PLANS.get(t)
    if plan is not None:
        return plan
    entries = []
    slot = 0
    for field in t.fields:
        ft = field.type
        if ft.kind == "union":
            entries.append((field.name, ft, slot, True, None))
            slot += 2
        else:
            entries.append((field.name, ft, slot, False, _slot_decoder(ft)))
            slot += 1
    plan = _PLANS[t] = tuple(entries)
    return plan


class _Builder:
    """Front-to-back builder with forward-reference patching.

    Real FlatBuffers builds back-to-front; building forward with patched
    uoffsets produces the same structures (offsets are relative, and
    soffsets are signed) while staying simple in Python.
    """

    def __init__(self, optimize_unions: bool):
        self.w = ByteWriter("little")
        self.optimize_unions = optimize_unions
        self._vtable_cache: Dict[Tuple[int, ...], int] = {}
        # (slot_position, target_resolver) pairs patched at the end
        self._pending: List[Tuple[int, Any]] = []

    # -- low level helpers -------------------------------------------------

    def _reserve(self, nbytes: int) -> int:
        pos = self.w.tell()
        self.w.write(b"\x00" * nbytes)
        return pos

    def _patch_uoffset(self, slot_pos: int, target_pos: int) -> None:
        delta = target_pos - slot_pos
        if delta <= 0:
            raise CodecError("uoffset must point forward")
        # Inline u32 little-endian patch (buffer offsets always fit).
        _LEN4.pack_into(self.w._buf, slot_pos, delta)

    # -- leaf writers --------------------------------------------------------

    def write_string(self, raw: bytes) -> int:
        w = self.w
        here = w.tell()
        pad = -here & 3
        # FlatBuffers strings are length-prefixed and NUL-terminated.
        w.write(_PADS[pad] + _LEN4.pack(len(raw)) + raw + b"\x00")
        return here + pad

    def write_bare_scalar(self, t: Type, v: Any) -> int:
        """Out-of-line scalar for svtable-optimized unions."""
        width = _scalar_width(t)
        self.w.pad_to(max(width, 1))
        pos = self.w.tell()
        self.w.write(_scalar_encoder(t)(v))
        return pos

    def write_vector(self, elem: Type, items: list) -> int:
        width = _scalar_width(elem)
        w = self.w
        here = w.tell()
        pad = -here & 3
        pos = here + pad
        if width:  # inline scalar elements, one buffer append
            enc = _scalar_encoder(elem)
            w.write(
                _PADS[pad]
                + _LEN4.pack(len(items))
                + b"".join([enc(item) for item in items])
            )
        else:  # reference elements (uoffsets patched later)
            w.write(_PADS[pad] + _LEN4.pack(len(items))
                    + b"\x00" * (_UOFFSET_SIZE * len(items)))
            base = pos + 4
            for i, item in enumerate(items):
                child = self.write_value(elem, item)
                self._patch_uoffset(base + _UOFFSET_SIZE * i, child)
        return pos

    # -- composite writers ---------------------------------------------------

    def write_value(self, t: Type, v: Any) -> int:
        """Write an out-of-line value, returning its buffer position."""
        kind = t.kind
        if kind == "table":
            return self.write_table(t, v)
        if kind == "string":
            return self.write_string(v.encode("utf-8"))
        if kind == "bytes":
            return self.write_vector_bytes(bytes(v))
        if kind == "bitstring":
            intval, nbits = v
            nbytes = (nbits + 7) // 8
            return self.write_vector_bytes(intval.to_bytes(nbytes, "big"))
        if kind == "array":
            return self.write_vector(t.element, v)
        if kind == "union":
            # Real FlatBuffers has no bare vectors-of-unions: union
            # elements are wrapped in a single-field table.
            return self.write_table(_uelem_wrapper(t), {"u": v})
        raise CodecError("cannot write %r out of line" % kind)

    def write_vector_bytes(self, raw: bytes) -> int:
        w = self.w
        here = w.tell()
        pad = -here & 3
        w.write(_PADS[pad] + _LEN4.pack(len(raw)) + raw)
        return here + pad

    def write_table(self, t: TableType, v: dict) -> int:
        # Slot layout, offsets and vtable bytes depend only on the schema
        # and which optional fields are present — memoized per type.
        items, table_size, vt_key, vt_bytes = _table_layout(t, v)

        w = self.w
        here = w.tell()
        pad = -here & 3
        table_pos = here + pad

        # Build the whole inline region locally, then append it in one
        # write: scalar slots are filled directly, reference slots stay
        # zero and are patched once the children exist.
        block = bytearray(pad + table_size)
        ref_jobs: List[Tuple[int, int, Any, Type, Any]] = []
        for name, role, enc, off, width, ft in items:
            fv = v[name]
            if role == _ROLE_SCALAR:
                at = pad + off
                block[at:at + width] = enc(fv)
            elif role == _ROLE_UNION_TYPE:
                alt_idx = ft.index[fv[0]] + 1  # 0 is NONE in FlatBuffers
                at = pad + off
                block[at:at + 1] = alt_idx.to_bytes(1, "little")
            else:  # union_value / ref
                ref_jobs.append((table_pos + off, role, enc, ft, fv))
        w.write(block)

        # vtable (deduplicated within the buffer).
        vt_pos = self._vtable_cache.get(vt_key)
        if vt_pos is None:
            w.pad_to(2)
            vt_pos = w.tell()
            w.write(vt_bytes)
            self._vtable_cache[vt_key] = vt_pos
        # soffset: vtable_pos = table_pos - soffset
        _LEN4.pack_into(w._buf, table_pos, (table_pos - vt_pos) & 0xFFFFFFFF)

        # Children after the table; patch uoffsets.  Consecutive string /
        # bytes leaves are assembled locally and appended in one write
        # (their layout is position-independent: pad + length + payload).
        pending: List[bytes] = []
        patches: List[Tuple[int, int]] = []
        cur = w.tell()
        for slot_pos, role, writer, ft, fv in ref_jobs:
            if role == _ROLE_REF_STR:
                raw = fv.encode("utf-8")
                cpad = -cur & 3
                patches.append((slot_pos, cur + cpad))
                pending.append(_PADS[cpad] + _LEN4.pack(len(raw)) + raw + b"\x00")
                cur += cpad + 5 + len(raw)
            elif role == _ROLE_REF_BYTES:
                raw = bytes(fv)
                cpad = -cur & 3
                patches.append((slot_pos, cur + cpad))
                pending.append(_PADS[cpad] + _LEN4.pack(len(raw)) + raw)
                cur += cpad + 4 + len(raw)
            else:
                if pending:
                    w.write(b"".join(pending))
                    pending.clear()
                if writer is not None:
                    child = writer(self, fv)
                else:
                    child = self.write_value(ft, fv)
                self._patch_uoffset(slot_pos, child)
                cur = w.tell()
        if pending:
            w.write(b"".join(pending))
        if patches:
            buf = w._buf
            pack_into = _LEN4.pack_into
            for slot_pos, child in patches:
                pack_into(buf, slot_pos, child - slot_pos)
        return table_pos

    def _write_union_value(self, t: Type, v: Tuple[str, Any]) -> int:
        alt_name, inner = v
        alt_type = t.alt_type(alt_name)
        if self.optimize_unions and _is_single_scalar_union_alt(alt_type):
            # svtable: bare scalar, no wrapping table, no vtable.
            if alt_type.kind == "table":
                inner_field = alt_type.fields[0]
                return self.write_bare_scalar(inner_field.type, inner[inner_field.name])
            return self.write_bare_scalar(alt_type, inner)
        if self.optimize_unions and _is_single_varlen_union_alt(alt_type):
            if alt_type.kind == "table":
                inner_field = alt_type.fields[0]
                return self.write_value(inner_field.type, inner[inner_field.name])
            return self.write_value(alt_type, inner)
        # Standard FlatBuffers: union members must be tables, so bare
        # scalar/varlen alternatives get wrapped in an implicit table —
        # exactly the metadata cost the paper's svtable removes.
        if alt_type.kind == "table":
            return self.write_table(alt_type, inner)
        wrappers = _UNION_ENC_WRAP.get(t)
        if wrappers is None:
            wrappers = _UNION_ENC_WRAP[t] = {}
        wrapper = wrappers.get(alt_name)
        if wrapper is None:
            wrapper = wrappers[alt_name] = TableType(
                "_u_" + alt_name, [Field("value", alt_type)]
            )
        return self.write_table(wrapper, {"value": inner})


class FlatTable:
    """Lazy random-access view of an encoded table (vtable navigation)."""

    __slots__ = ("r", "pos", "type")

    def __init__(self, reader: ByteReader, pos: int, type_: TableType):
        self.r = reader
        self.pos = pos
        self.type = type_

    def _vt_entry(self, slot_index: int) -> int:
        soffset = self.r.uint_at(self.pos, _SOFFSET_SIZE)
        vt_pos = (self.pos - soffset) & 0xFFFFFFFF
        vt_size = self.r.uint_at(vt_pos, 2)
        entry_pos = vt_pos + 4 + 2 * slot_index
        if entry_pos >= vt_pos + vt_size:
            return 0
        return self.r.uint_at(entry_pos, 2)

    def _slot_index(self, name: str) -> int:
        idx = 0
        for field in self.type.fields:
            if field.name == name:
                return idx
            idx += 2 if field.type.kind == "union" else 1
        raise CodecError("no field %r in table %s" % (name, self.type.name))

    def has(self, name: str) -> bool:
        return self._vt_entry(self._slot_index(name)) != 0

    def get(self, name: str) -> Any:
        """Decode one field without touching the others."""
        field = self.type.field(name)
        base_slot = self._slot_index(name)
        if field.type.kind == "union":
            type_off = self._vt_entry(base_slot)
            value_off = self._vt_entry(base_slot + 1)
            if not type_off or not value_off:
                raise CodecError("absent union field %r" % name)
            alt_idx = self.r.uint_at(self.pos + type_off, 1) - 1
            if not 0 <= alt_idx < len(field.type.alts):
                raise CodecError("corrupt union type byte for %r" % name)
            alt_name, alt_type = field.type.alts[alt_idx]
            slot_pos = self.pos + value_off
            target = slot_pos + self.r.uint_at(slot_pos, _UOFFSET_SIZE)
            codec = FlatBuffersCodec.active_for(self.r)
            return (alt_name, codec._decode_union_alt(self.r, target, alt_type))
        off = self._vt_entry(base_slot)
        if not off:
            raise CodecError("absent field %r" % name)
        codec = FlatBuffersCodec.active_for(self.r)
        return codec._decode_slot(self.r, self.pos + off, field.type)


class FlatBuffersCodec(Codec):
    """Schema-driven FlatBuffers codec (standard wire format)."""

    name = "flatbuffers"
    optimize_unions = False

    # The lazy accessor needs to know which union encoding produced the
    # buffer; stash it on the reader when decoding starts.
    @staticmethod
    def active_for(reader: ByteReader) -> "FlatBuffersCodec":
        codec = getattr(reader, "_fb_codec", None)
        if codec is None:
            raise CodecError("reader was not produced by a FlatBuffers codec")
        return codec

    def encode(self, type_: Type, value: Any) -> bytes:
        validate(value, type_)
        builder = _Builder(self.optimize_unions)
        root_slot = builder._reserve(_UOFFSET_SIZE)
        if type_.kind == "table":
            root = builder.write_table(type_, value)
        else:
            wrapper = TableType("_root", [Field("value", type_)])
            root = builder.write_table(wrapper, {"value": value})
        builder._patch_uoffset(root_slot, root)
        return builder.w.getvalue()

    def decode(self, type_: Type, data: bytes) -> Any:
        reader = self.reader(data)
        root = reader.uint_at(0, _UOFFSET_SIZE)
        if type_.kind == "table":
            return self._decode_table(reader, root, type_)
        wrapper = TableType("_root", [Field("value", type_)])
        return self._decode_table(reader, root, wrapper)["value"]

    def reader(self, data: bytes) -> ByteReader:
        reader = ByteReader(data, "little")
        reader._fb_codec = self  # type: ignore[attr-defined]
        return reader

    def view(self, type_: TableType, data: bytes) -> FlatTable:
        """Lazy accessor over the root table (random field access)."""
        if type_.kind != "table":
            raise CodecError("view requires a table root")
        reader = self.reader(data)
        return FlatTable(reader, reader.uint_at(0, _UOFFSET_SIZE), type_)

    # -- decoding ----------------------------------------------------------

    def _decode_table(self, r: ByteReader, pos: int, t: TableType) -> dict:
        plan = _decode_plan(t)
        uint_at = r.uint_at
        soffset = uint_at(pos, _SOFFSET_SIZE)
        vt_pos = (pos - soffset) & 0xFFFFFFFF
        vt_size = uint_at(vt_pos, 2)
        n_entries = (vt_size - 4) // 2
        if n_entries > 0:
            # One struct call for the whole entry array instead of one
            # bounds-checked read per slot.
            try:
                vt = _vt_unpacker(n_entries)(r.data, vt_pos + 4)
            except struct.error:
                raise CodecError("random access out of range")
        else:
            vt = ()

        out: dict = {}
        for name, ft, slot, is_union, dec in plan:
            if is_union:
                type_off = vt[slot] if slot < n_entries else 0
                value_off = vt[slot + 1] if slot + 1 < n_entries else 0
                if not type_off or not value_off:
                    continue
                alt_idx = uint_at(pos + type_off, 1) - 1
                if not 0 <= alt_idx < len(ft.alts):
                    raise CodecError("corrupt union in %s.%s" % (t.name, name))
                alt_name, alt_type = ft.alts[alt_idx]
                slot_pos = pos + value_off
                target = slot_pos + uint_at(slot_pos, _UOFFSET_SIZE)
                out[name] = (alt_name, self._decode_union_alt(r, target, alt_type))
                continue
            off = vt[slot] if slot < n_entries else 0
            if not off:
                continue
            if dec is not None:  # precompiled scalar / simple-ref decoder
                out[name] = dec(r, pos + off)
            else:
                slot_pos = pos + off
                target = slot_pos + uint_at(slot_pos, _UOFFSET_SIZE)
                out[name] = self._decode_ref(r, target, ft)
        return out

    def _decode_slot(self, r: ByteReader, slot_pos: int, t: Type) -> Any:
        if _scalar_width(t):
            return _scalar_decoder(t)(r, slot_pos)
        target = slot_pos + r.uint_at(slot_pos, _UOFFSET_SIZE)
        return self._decode_ref(r, target, t)

    def _decode_ref(self, r: ByteReader, pos: int, t: Type) -> Any:
        kind = t.kind
        if kind == "union":
            return self._decode_table(r, pos, _uelem_wrapper(t))["u"]
        if kind == "table":
            return self._decode_table(r, pos, t)
        if kind == "string":
            n = r.uint_at(pos, 4)
            return r.data[pos + 4 : pos + 4 + n].decode("utf-8")
        if kind == "bytes":
            n = r.uint_at(pos, 4)
            return r.data[pos + 4 : pos + 4 + n]
        if kind == "bitstring":
            n = r.uint_at(pos, 4)
            raw = r.data[pos + 4 : pos + 4 + n]
            return (int.from_bytes(raw, "big"), t.nbits)
        if kind == "array":
            n = r.uint_at(pos, 4)
            elem = t.element
            width = _scalar_width(elem)
            cursor = pos + 4
            if width:
                dec = _scalar_decoder(elem)
                return [dec(r, cursor + width * i) for i in range(n)]
            items = []
            for _ in range(n):
                target = cursor + r.uint_at(cursor, _UOFFSET_SIZE)
                items.append(self._decode_ref(r, target, elem))
                cursor += _UOFFSET_SIZE
            return items
        raise CodecError("cannot decode %r as reference" % kind)

    def _decode_union_alt(self, r: ByteReader, pos: int, alt_type: Type) -> Any:
        if self.optimize_unions and _is_single_scalar_union_alt(alt_type):
            if alt_type.kind == "table":
                inner = alt_type.fields[0]
                return {inner.name: _scalar_decoder(inner.type)(r, pos)}
            return _scalar_decoder(alt_type)(r, pos)
        if self.optimize_unions and _is_single_varlen_union_alt(alt_type):
            if alt_type.kind == "table":
                inner = alt_type.fields[0]
                return {inner.name: self._decode_ref(r, pos, inner.type)}
            return self._decode_ref(r, pos, alt_type)
        if alt_type.kind == "table":
            return self._decode_table(r, pos, alt_type)
        wrapper = _UNION_DEC_WRAP.get(alt_type)
        if wrapper is None:
            wrapper = _UNION_DEC_WRAP[alt_type] = TableType(
                "_u", [Field("value", alt_type)]
            )
        return self._decode_table(r, pos, wrapper)["value"]


class OptimizedFlatBuffersCodec(FlatBuffersCodec):
    """The paper's svtable-optimized variant (§4.4)."""

    name = "flatbuffers_opt"
    optimize_unions = True


register_codec("flatbuffers", FlatBuffersCodec)
register_codec("flatbuffers_opt", OptimizedFlatBuffersCodec)
