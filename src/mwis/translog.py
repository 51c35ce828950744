"""Transformation log: records reductions so kernel solutions can be lifted.

Every transformation that commits solution weight or rewrites part of the
graph appends one event here.  Lifting replays the events last-to-first and
applies each event's inverse rule, turning an independent set of the final
(kernel) graph into an independent set of the original graph whose weight is
the kernel weight plus the accumulated offset.

Struction events snapshot everything the inverse rule needs (center weight,
neighbor ids, removed vertices with weights, created vertices with their
provenance), because by lift time the graph that produced them is gone.
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


# provenance of a struction-created vertex
@dataclass(frozen=True)
class Pair:
    """Encodes picking both neighbors x and y (original/modified variants)."""
    x: int
    y: int


@dataclass(frozen=True)
class VertexSet:
    """Encodes picking the independent neighbor set c (extended variants)."""
    c: tuple


@dataclass(frozen=True)
class VertexSetPlus:
    """Encodes picking y on top of c (extension vertices, extended-reduced)."""
    c: tuple
    y: int


@dataclass(frozen=True)
class Struction:
    variant: str            # original | modified | extended | extended_reduced
    center: int
    center_weight: int
    neighbors: tuple        # N(center) right before the transformation
    removed: tuple          # ((id, weight at removal), ...)
    created: tuple          # ((id, weight, provenance), ...)


VARIANTS = ("original", "modified", "extended", "extended_reduced")


def _offset_delta(e):
    if isinstance(e, IncludedVertex):
        return e.w
    if isinstance(e, DegreeTwoFold):
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
    graph; violations that are visible from the log alone (picking two
    created vertices the construction made adjacent) raise NotIndependent,
    and impossible states raise CorruptLog.
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
    created = {cid: prov for cid, _w, prov in e.created}
    chosen = [cid for cid in created if cid in cur]
    if e.variant == "original":
        return _undo_pairs(e, cur, created, chosen, modified=False)
    if e.variant == "modified":
        return _undo_pairs(e, cur, created, chosen, modified=True)
    if e.variant == "extended":
        if len(chosen) > 1:
            raise CorruptLog(f"two encoding vertices picked at center {e.center}")
        if chosen:
            cur.discard(chosen[0])
            cur.update(created[chosen[0]].c)
        else:
            cur.add(e.center)
        return cur
    if e.variant == "extended_reduced":
        return _undo_extended_reduced(e, cur, created, chosen)
    raise CorruptLog(f"unknown struction variant {e.variant!r}")


def _undo_pairs(e, cur, created, chosen, modified):
    nbrs = set(e.neighbors)
    if chosen:
        layers = {created[cid].x for cid in chosen}
        if len(layers) > 1:
            raise NotIndependent("picked pair vertices from different layers")
        x = layers.pop()
        seconds = {created[cid].y for cid in chosen}
        if modified:
            # v_{x,y} is adjacent to y itself and to every neighbor k != x
            if cur & seconds or any(k in cur for k in nbrs if k != x):
                raise NotIndependent("pair vertex picked next to its neighbor")
        for cid in created:
            cur.discard(cid)
        cur.add(x)
        cur.update(seconds)
    elif cur & nbrs:
        pass  # some neighbor stands in for the center's weight
    else:
        cur.add(e.center)
    return cur


def _undo_extended_reduced(e, cur, created, chosen):
    core = [cid for cid in chosen if isinstance(created[cid], VertexSet)]
    ext = [cid for cid in chosen if isinstance(created[cid], VertexSetPlus)]
    if len(core) > 1:
        raise CorruptLog(f"two encoding vertices picked at center {e.center}")
    if core:
        c = created[core[0]].c
        if any(created[cid].c != c for cid in ext):
            raise NotIndependent("extension vertex picked across sets")
        cur.discard(core[0])
    elif ext:
        sets = {created[cid].c for cid in ext}
        if len(sets) > 1:
            raise NotIndependent("extension vertices picked across sets")
        c = sets.pop()
    else:
        cur.add(e.center)
        return cur
    for cid in ext:
        cur.discard(cid)
        cur.add(created[cid].y)
    cur.update(c)
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
_VERSION = 1
_TAGS = {IncludedVertex: 1, ExcludedVertex: 2, TwinMerge: 3,
         DegreeTwoFold: 4, Struction: 5}
_PTAGS = {Pair: 1, VertexSet: 2, VertexSetPlus: 3}


def _pack_ids(ids):
    return struct.pack("<I", len(ids)) + struct.pack(f"<{len(ids)}Q", *ids)


def _pack_event(e):
    if isinstance(e, IncludedVertex):
        return struct.pack("<QQ", e.v, e.w)
    if isinstance(e, ExcludedVertex):
        return struct.pack("<Q", e.v)
    if isinstance(e, TwinMerge):
        return struct.pack("<QQ", e.kept, e.absorbed)
    if isinstance(e, DegreeTwoFold):
        return struct.pack("<QQQQQ", e.v, e.u, e.x, e.folded, e.w)
    out = [struct.pack("<BQQ", VARIANTS.index(e.variant), e.center, e.center_weight)]
    out.append(_pack_ids(e.neighbors))
    out.append(struct.pack("<I", len(e.removed)))
    for vid, w in e.removed:
        out.append(struct.pack("<QQ", vid, w))
    out.append(struct.pack("<I", len(e.created)))
    for cid, w, prov in e.created:
        out.append(struct.pack("<QQB", cid, w, _PTAGS[type(prov)]))
        if isinstance(prov, Pair):
            out.append(struct.pack("<QQ", prov.x, prov.y))
        elif isinstance(prov, VertexSet):
            out.append(_pack_ids(prov.c))
        else:
            out.append(_pack_ids(prov.c) + struct.pack("<Q", prov.y))
    return b"".join(out)


def to_bytes(log):
    out = [_MAGIC, struct.pack("<HQ", _VERSION, len(log.events))]
    for e in log.events:
        payload = _pack_event(e)
        out.append(struct.pack("<BI", _TAGS[type(e)], len(payload)))
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
    if tag == 1:
        return IncludedVertex(*rd.take("<QQ"))
    if tag == 2:
        return ExcludedVertex(*rd.take("<Q"))
    if tag == 3:
        return TwinMerge(*rd.take("<QQ"))
    if tag == 4:
        return DegreeTwoFold(*rd.take("<QQQQQ"))
    if tag != 5:
        raise CorruptLog(f"unknown event tag {tag}")
    vi, center, cw = rd.take("<BQQ")
    if vi >= len(VARIANTS):
        raise CorruptLog(f"unknown variant code {vi}")
    neighbors = rd.take_ids()
    (nrem,) = rd.take("<I")
    removed = tuple(rd.take("<QQ") for _ in range(nrem))
    (ncre,) = rd.take("<I")
    created = []
    for _ in range(ncre):
        cid, w, ptag = rd.take("<QQB")
        if ptag == 1:
            prov = Pair(*rd.take("<QQ"))
        elif ptag == 2:
            prov = VertexSet(rd.take_ids())
        elif ptag == 3:
            prov = VertexSetPlus(rd.take_ids(), rd.take("<Q")[0])
        else:
            raise CorruptLog(f"unknown provenance tag {ptag}")
        created.append((cid, w, prov))
    return Struction(VARIANTS[vi], center, cw, neighbors, removed, tuple(created))


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
