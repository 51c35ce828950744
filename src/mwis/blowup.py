"""Cyclic blow-up preprocessing.

Alternates blow-up phases (one increasing struction that temporarily grows
the graph) with full reduction phases:

    K <- reduce(G)
    while K is not empty and rejected phases < X:
        K'  <- blow_up(K)           (NoCandidate: return K)
        K'' <- reduce(K') around the struction's change record
        if |V(K'')| < |V(K)|: K <- K''
        else: roll K and the log back and count the phase as rejected

Every accepted phase shrinks K, so K is always the smallest kernel seen.
One BlowupConfig drives the whole cycle: every reduce runs its rules, and
the structions of both loops share its variant and d_max.  The presets are
BlowupConfig values that differ only in X, n_max and d_max; nonincreasing
is X = 0, plain reduction.  preprocess runs a preset under a struction
variant; any other config is a dataclasses.replace of a preset, passed to
cyclic_blow_up, the one entry point that kernelizes.

Blow-up candidates are ranked by estimated net growth bound - (deg + 1),
where bound starts at L, the number of exceeding independent sets of size
at most two.  A struction attempt is capped at min(2*bound - 1, n_max); a
cap abort below n_max raises the bound to max(2*bound, 1) and retries later
(tightness check), so a centre is retried O(log n_max) times; anything else
excludes the vertex (EXCLUDED).  An attempt reads only the weighted
G[N[v]], its cap and the variant, so a bound or exclusion stands while
G[N[v]] stands, as in the reduction; under the original and modified
variants G[N[v]] can return to an earlier state and repeat a failure.
"""

import time
from dataclasses import dataclass, replace

from .reductions import RULE_ORDER, _reduce_into
from .struction import (VARIANT_OPS, Aborted, NotMinimal,
                        count_small_exceeding_sets)
from .translog import TransformLog

CHANGED = "changed"
NO_CANDIDATE = "nocandidate"
EXCLUDED = "excluded"  # bounds entry: no more attempts on this G[N[v]]

PRESET_NONINCREASING = "nonincreasing"
PRESET_CYCLIC_FAST = "cyclic-fast"
PRESET_CYCLIC_STRONG = "cyclic-strong"


@dataclass(frozen=True)
class BlowupConfig:
    X: int = 25                  # max rejected blow-up phases
    n_max: int = 512             # hard cap on vertices created by one struction
    d_max: int = 64              # max struction center degree, in both loops
    variant: str = "extended"    # struction variant, in both loops
    rules: tuple = RULE_ORDER    # the rules every reduction runs

    def __post_init__(self):
        if self.variant not in VARIANT_OPS:
            raise ValueError(f"unknown struction variant {self.variant!r}")
        for rule in self.rules:
            if rule not in RULE_ORDER:
                raise ValueError(f"unknown rule {rule!r}")
        for key in ("X", "n_max", "d_max"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")


@dataclass
class KernelResult:
    kernel: object
    log: TransformLog
    stats: dict

    @property
    def offset(self):
        return self.log.offset


PRESETS = {
    PRESET_NONINCREASING: BlowupConfig(X=0, n_max=512, d_max=64),
    PRESET_CYCLIC_FAST: BlowupConfig(X=25, n_max=512, d_max=64),
    PRESET_CYCLIC_STRONG: BlowupConfig(X=64, n_max=2048, d_max=512),
}


def make_blowup_config(mode):
    """The named preset's config (shared, hence frozen)."""
    if mode not in PRESETS:
        raise ValueError(f"unknown preset {mode!r}")
    return PRESETS[mode]


def estimate_L(g, v):
    """Exceeding independent sets of size <= 2 inside N(v): a lower bound
    on how many vertices a struction at v would create."""
    return count_small_exceeding_sets(g, v)


def blow_up(K, bounds, cfg, log):
    """Apply one increasing struction to the irreducible graph K.  Returns
    (CHANGED, center), leaving exactly the struction's change on K's
    record (cleared on entry; failed attempts write nothing), or
    (NO_CANDIDATE, None).  bounds maps a vertex to its bound on its current
    G[N[v]], or to EXCLUDED; a vertex without an entry starts at L."""
    K.take_changed()
    while True:
        best = None
        for v, nv in K._nbs.items():
            d = len(nv)
            if d > cfg.d_max:
                continue
            b = bounds.get(v)
            if b is None:
                b = bounds[v] = estimate_L(K, v)
            elif b is EXCLUDED:
                continue
            key = (b - (d + 1), v)
            if best is None or key < best[0]:
                best = (key, v, b)
        if best is None:
            return NO_CANDIDATE, None
        _key, v, b = best
        cap = min(2 * b - 1, cfg.n_max)
        try:
            out = VARIANT_OPS[cfg.variant](K, v, cap, log)
        except NotMinimal:
            bounds[v] = EXCLUDED
            continue
        if isinstance(out, Aborted):
            if out.reason == "budget" or cap == cfg.n_max:
                # the cap that failed was the global one (or the enumeration
                # gave up): shelve v until its neighborhood changes
                bounds[v] = EXCLUDED
            else:
                # tightness failure: retry later with the bound doubled; 1
                # lifts the L = 0 bound
                bounds[v] = max(2 * b, 1)
            continue
        return CHANGED, v


def cyclic_blow_up(g, cfg, deadline=None):
    """Run the full blow-up/reduce cycle on g (consumed); returns the
    smallest kernel found, with a log describing exactly that kernel.

    deadline is an optional time.monotonic() timestamp; once it passes, no
    further phases start and the kernel so far is returned (which is always
    a valid kernel, so callers can keep going with it).

    A rejected phase restores only the graph and the log.  blow_up writes
    nothing before its one struction, so its bounds fit the restored graph,
    where the centre is excluded; an accept drops those of struck vertices."""
    log = TransformLog()
    stats = {}
    _reduce_into(g, cfg, log, stats)
    K = g
    stats["initial_kernel_n"] = len(K._w)
    stats["blowup_phases"] = 0
    stats["blowup_accepts"] = 0
    stats["blowup_rejects"] = 0

    bounds = {}
    while K._w and stats["blowup_rejects"] < cfg.X:
        if deadline is not None and time.monotonic() >= deadline:
            break
        snap_graph = K.copy()
        snap_len = len(log)
        pre_n = len(K._w)

        status, center = blow_up(K, bounds, cfg, log)
        if status == NO_CANDIDATE:
            break
        stats["blowup_phases"] += 1
        struck = _reduce_into(K, cfg, log, stats, seeds=())

        if len(K._w) < pre_n:
            stats["blowup_accepts"] += 1
            for v in struck:
                bounds.pop(v, None)
        else:
            stats["blowup_rejects"] += 1
            K = snap_graph
            log.truncate(snap_len)
            bounds[center] = EXCLUDED

    stats["kernel_n"], stats["kernel_m"] = K.counts()
    return KernelResult(K, log, stats)


def preprocess(g, mode=PRESET_NONINCREASING, variant="extended"):
    """Reduce g (consumed) under the named preset and struction variant."""
    return cyclic_blow_up(g, replace(make_blowup_config(mode), variant=variant))
