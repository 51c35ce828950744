"""Transformation log: records reductions so kernel solutions can be lifted.

Every transformation that commits solution weight or rewrites part of the
graph appends one event here.  Lifting replays the events last-to-first and
applies each event's inverse rule, turning an independent set of the final
(kernel) graph into an independent set of the original graph whose weight is
the kernel weight plus the accumulated offset.

Struction events snapshot what the inverse rule needs (the center, its
neighbor ids and each created vertex's id and provenance), because by lift
time the graph that produced them is gone; the center's weight is the
offset the event adds.
"""

import struct
from dataclasses import dataclass


class LiftError(Exception):
    pass


class NotIndependent(LiftError):
    pass


class CorruptLog(LiftError):
    pass


# -- events -----------------------------------------------------------------

@dataclass(frozen=True)
class IncludedVertex:
    """v forced into the solution; N[v] was removed; offset grows by w."""
    v: int
    w: int


@dataclass(frozen=True)
class ExcludedVertex:
    """v removed with no solution contribution (domination, zero weight)."""
    v: int


@dataclass(frozen=True)
class TwinMerge:
    """absorbed removed, its weight added onto kept."""
    kept: int
    absorbed: int


@dataclass(frozen=True)
class DegreeTwoFold:
    """{v,u,x} replaced by folded with weight w(u)+w(x)-w(v); offset grows by w."""
    v: int
    u: int
    x: int
    folded: int
    w: int


# provenance of a struction-created vertex: its members are the old vertices
# it stands for, and created vertices with different bases are adjacent
@dataclass(frozen=True)
class Pair:
    """Encodes picking both neighbors x and y (original/modified variants)."""
    x: int
    y: int
    base = property(lambda self: self.x)
    members = property(lambda self: (self.x, self.y))


@dataclass(frozen=True)
class VertexSet:
    """Encodes picking the independent neighbor set c (extended variants)."""
    c: tuple
    base = property(lambda self: self.c)
    members = property(lambda self: self.c)


@dataclass(frozen=True)
class VertexSetPlus:
    """Encodes picking y on top of c (extension vertices, extended-reduced)."""
    c: tuple
    y: int
    base = property(lambda self: self.c)
    members = property(lambda self: self.c + (self.y,))


@dataclass(frozen=True)
class Struction:
    variant: str            # original | modified | extended | extended_reduced
    center: int
    center_weight: int
    neighbors: tuple        # N(center) right before the transformation
    created: tuple          # ((id, provenance), ...)


VARIANTS = ("original", "modified", "extended", "extended_reduced")


def _offset_delta(e):
    if isinstance(e, (IncludedVertex, DegreeTwoFold)):
        return e.w
    if isinstance(e, Struction):
        return e.center_weight
    return 0


class TransformLog:
    __slots__ = ("events", "offset")

    def __init__(self):
        self.events = []
        self.offset = 0

    def record(self, e):
        self.events.append(e)
        self.offset += _offset_delta(e)

    def truncate(self, length):
        """Drop events after index length (used to roll back rejected work)."""
        while len(self.events) > length:
            self.offset -= _offset_delta(self.events.pop())

    def __len__(self):
        return len(self.events)


# -- lifting ------------------------------------------------------------------

def lift(log, kernel_solution):
    """Replay the log backwards, mapping a kernel solution to the original graph.

    The inverse rules assume the input is an independent set of the final
    graph; violations that are visible from the log alone raise
    NotIndependent, and impossible states raise CorruptLog.  Every struction
    has one inverse: a created vertex stands for its provenance's members,
    and the picks among one struction's created vertices, which must share
    a base, lift to the union of their members (see _undo_struction).
    """
    cur = set(kernel_solution)
    for e in reversed(log.events):
        if isinstance(e, IncludedVertex):
            cur.add(e.v)
        elif isinstance(e, ExcludedVertex):
            pass
        elif isinstance(e, TwinMerge):
            if e.kept in cur:
                cur.add(e.absorbed)
        elif isinstance(e, DegreeTwoFold):
            if e.folded in cur:
                cur.discard(e.folded)
                cur.add(e.u)
                cur.add(e.x)
            else:
                cur.add(e.v)
        elif isinstance(e, Struction):
            cur = _undo_struction(e, cur)
        else:
            raise CorruptLog(f"unknown event {e!r}")
    return cur


def _undo_struction(e, cur):
    """The one inverse of every struction variant.  With no created vertex
    picked, the center joins unless a neighbor stands in for its weight
    (only the pair variants keep N(v), so an extended struction always adds
    it).  Otherwise the picks must share one base, and under modified no
    neighbor but the base may be picked: the created ids give way to the
    union of the picks' members."""
    if e.variant not in VARIANTS:
        raise CorruptLog(f"unknown struction variant {e.variant!r}")
    picks = [prov for cid, prov in e.created if cid in cur]
    if not picks:
        if cur.isdisjoint(e.neighbors):
            cur.add(e.center)
        return cur
    base = picks[0].base
    if any(p.base != base for p in picks):
        raise NotIndependent("created vertices of two bases picked at "
                             f"center {e.center}")
    # v_{x,y} of modified is adjacent to every neighbor k != x
    if e.variant == "modified" and any(k in cur and k != base
                                       for k in e.neighbors):
        raise NotIndependent("pair vertex picked next to its neighbor")
    cur.difference_update(cid for cid, _p in e.created)
    for p in picks:
        cur.update(p.members)
    return cur


def first_violation(original, lifted, expected_weight):
    """Why lifted is not an independent set of original with the given
    weight, as one line naming vertices by their 1-indexed METIS ids; the
    first fault in ascending id order wins.  None when there is none."""
    inside = set(lifted)
    members = sorted(inside)
    for v in members:
        if not original.is_active(v):
            return f"vertex {v + 1} does not exist"
    for v in members:
        for u in original.neighbors(v):
            if u in inside:
                return (f"NotIndependent, edge {v + 1}-{u + 1} "
                        "inside the solution")
    actual = sum(original.weight(v) for v in members)
    if actual != expected_weight:
        return f"declared weight {expected_weight}, actual {actual}"
    return None


def verify_lift(original, lifted, expected_weight):
    """True iff lifted is an independent set of original with the given weight."""
    return first_violation(original, lifted, expected_weight) is None


# -- binary serialization -----------------------------------------------------
#
# Versioned, length-prefixed records:
#   header:  magic b"TLOG", u16 version, u64 event count
#   record:  u8 tag, u32 payload length, payload
# All integers little-endian; ids and weights are u64.

_MAGIC = b"TLOG"
_VERSION = 2
# fixed-size events: tag and the struct format of their fields, in order
_CODEC = {IncludedVertex: (1, "<QQ"), ExcludedVertex: (2, "<Q"),
          TwinMerge: (3, "<QQ"), DegreeTwoFold: (4, "<QQQQQ")}
_BY_TAG = {tag: (cls, fmt) for cls, (tag, fmt) in _CODEC.items()}
_STRUCTION_TAG = 5
_PTAGS = {Pair: 1, VertexSet: 2, VertexSetPlus: 3}
# the provenance tags each variant creates, indexed like VARIANTS
_VARIANT_PTAGS = ((1,), (1,), (2,), (2, 3))


def _pack_ids(ids):
    return struct.pack("<I", len(ids)) + struct.pack(f"<{len(ids)}Q", *ids)


def _pack_event(e):
    """The event's tag and payload."""
    if type(e) in _CODEC:
        tag, fmt = _CODEC[type(e)]
        return tag, struct.pack(fmt, *vars(e).values())
    out = [struct.pack("<BQQ", VARIANTS.index(e.variant), e.center, e.center_weight)]
    out.append(_pack_ids(e.neighbors))
    out.append(struct.pack("<I", len(e.created)))
    for cid, prov in e.created:
        out.append(struct.pack("<QB", cid, _PTAGS[type(prov)]))
        if isinstance(prov, Pair):
            out.append(struct.pack("<QQ", prov.x, prov.y))
        elif isinstance(prov, VertexSet):
            out.append(_pack_ids(prov.c))
        else:
            out.append(_pack_ids(prov.c) + struct.pack("<Q", prov.y))
    return _STRUCTION_TAG, b"".join(out)


def to_bytes(log):
    out = [_MAGIC, struct.pack("<HQ", _VERSION, len(log.events))]
    for e in log.events:
        tag, payload = _pack_event(e)
        out.append(struct.pack("<BI", tag, len(payload)))
        out.append(payload)
    return b"".join(out)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise CorruptLog("truncated log data")
        vals = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return vals

    def take_ids(self):
        (k,) = self.take("<I")
        return tuple(self.take(f"<{k}Q")) if k else ()


def _unpack_event(tag, rd):
    if tag in _BY_TAG:
        cls, fmt = _BY_TAG[tag]
        return cls(*rd.take(fmt))
    if tag != _STRUCTION_TAG:
        raise CorruptLog(f"unknown event tag {tag}")
    vi, center, cw = rd.take("<BQQ")
    if vi >= len(VARIANTS):
        raise CorruptLog(f"unknown variant code {vi}")
    neighbors = rd.take_ids()
    (ncre,) = rd.take("<I")
    created = []
    for _ in range(ncre):
        cid, ptag = rd.take("<QB")
        if ptag not in _VARIANT_PTAGS[vi]:
            raise CorruptLog(f"{VARIANTS[vi]} struction with provenance "
                             f"tag {ptag}")
        if ptag == 1:
            prov = Pair(*rd.take("<QQ"))
        elif ptag == 2:
            prov = VertexSet(rd.take_ids())
        else:
            prov = VertexSetPlus(rd.take_ids(), rd.take("<Q")[0])
        created.append((cid, prov))
    return Struction(VARIANTS[vi], center, cw, neighbors, tuple(created))


def from_bytes(data):
    rd = _Reader(data)
    if bytes(rd.take("<4s")[0]) != _MAGIC:
        raise CorruptLog("bad magic")
    version, count = rd.take("<HQ")
    if version != _VERSION:
        raise CorruptLog(f"unsupported log version {version}")
    log = TransformLog()
    for _ in range(count):
        tag, length = rd.take("<BI")
        start = rd.pos
        log.record(_unpack_event(tag, rd))
        if rd.pos - start != length:
            raise CorruptLog("record length mismatch")
    if rd.pos != len(rd.data):
        raise CorruptLog("trailing bytes after log")
    return log
