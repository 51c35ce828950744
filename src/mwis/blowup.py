"""Cyclic blow-up preprocessing.

Alternates blow-up phases (one increasing struction that temporarily grows
the graph) with full reduction phases:

    K <- reduce(G)
    while K is not empty and unsuccessful < X:
        K'  <- blow_up(K)           (NoCandidate: return K)
        K'' <- reduce(K')
        if |V(K'')| < |V(K)|: K <- K''
        else: roll K, the log and the candidate bounds back and count the
              phase as unsuccessful

Every accepted phase shrinks K, so K is always the smallest kernel seen.
The presets differ only in their BlowupConfig; nonincreasing is X = 0,
plain reduction.

Blow-up candidates are ranked by estimated net growth bound - (deg + 1),
where bound starts at L, the number of exceeding independent sets of size
at most two.  A struction attempt is capped at min(ceil(beta*bound) - 1,
n_max); a cap abort below n_max doubles the bound and retries later
(tightness check), anything else excludes the vertex until its weight or
neighborhood changes.
"""

import math
import time
from dataclasses import dataclass, field

from .reductions import (KernelResult, ReduceConfig, _reduce_into,
                         _with_neighbors, neighborhood_fingerprint)
from .struction import (VARIANT_OPS, Aborted, NotMinimal,
                        count_small_exceeding_sets)
from .translog import TransformLog

CHANGED = "changed"
NO_CANDIDATE = "nocandidate"

PRESET_NONINCREASING = "nonincreasing"
PRESET_CYCLIC_FAST = "cyclic-fast"
PRESET_CYCLIC_STRONG = "cyclic-strong"


@dataclass
class BlowupConfig:
    X: int = 25                  # max unsuccessful blow-up phases
    n_max: int = 512             # hard cap on vertices created by one struction
    d_max: int = 64              # max center degree
    beta: float = 2.0            # tightness-check factor
    variant: str = "extended"

    @property
    def reduce_cfg(self):
        """The reduction every phase runs: same variant and degree cap."""
        return ReduceConfig(variant=self.variant, d_max=self.d_max)


# preset name -> BlowupConfig fields
PRESETS = {
    PRESET_NONINCREASING: {"X": 0, "n_max": 512, "d_max": 64},
    PRESET_CYCLIC_FAST: {"X": 25, "n_max": 512, "d_max": 64},
    PRESET_CYCLIC_STRONG: {"X": 64, "n_max": 2048, "d_max": 512},
}


def make_blowup_config(mode, **overrides):
    """The named preset's config; overrides that are not None replace
    individual fields."""
    if mode not in PRESETS:
        raise ValueError(f"unknown preset {mode!r}")
    fields = dict(PRESETS[mode])
    fields.update((k, v) for k, v in overrides.items() if v is not None)
    return BlowupConfig(**fields)


def estimate_L(g, v):
    """Exceeding independent sets of size <= 2 inside N(v): a lower bound
    on how many vertices a struction at v would create."""
    return count_small_exceeding_sets(g, v)


@dataclass
class BlowupState:
    bounds: dict = field(default_factory=dict)    # vertex -> current bound
    excluded: dict = field(default_factory=dict)  # vertex -> fingerprint


def blow_up(K, state, cfg, log):
    """Apply one increasing struction to the irreducible graph K.  Returns
    (CHANGED, center, seeds), where seeds is the dirty region the follow-up
    reduction must revisit, or (NO_CANDIDATE, None, None)."""
    while True:
        best = None
        for v in K.active_vertices():
            d = K.degree(v)
            if d > cfg.d_max:
                continue
            if (v in state.excluded
                    and state.excluded[v] == neighborhood_fingerprint(K, v)):
                continue
            b = state.bounds.get(v)
            if b is None:
                b = estimate_L(K, v)
                state.bounds[v] = b
            key = (b - (d + 1), v)
            if best is None or key < best[0]:
                best = (key, v, b)
        if best is None:
            return NO_CANDIDATE, None, None
        _key, v, b = best
        tight_cap = math.ceil(cfg.beta * b) - 1
        cap = min(tight_cap, cfg.n_max)
        changed = set()
        try:
            out = VARIANT_OPS[cfg.variant](K, v, cap, log, changed=changed)
        except NotMinimal:
            state.excluded[v] = neighborhood_fingerprint(K, v)
            state.bounds.pop(v, None)
            continue
        if isinstance(out, Aborted):
            if out.reason == "budget" or tight_cap >= cfg.n_max:
                # the cap that failed was the global one (or the enumeration
                # gave up): shelve v until its neighborhood changes
                state.excluded[v] = neighborhood_fingerprint(K, v)
                state.bounds.pop(v, None)
            else:
                # tightness failure: retry later with a doubled bound
                state.bounds[v] = max(math.ceil(cfg.beta * b), b + 1)
            continue
        state.bounds.pop(v, None)
        live = [x for x in changed if K.is_active(x)]
        return CHANGED, v, _with_neighbors(K, live)


def cyclic_blow_up(g, cfg=None, deadline=None):
    """Run the full blow-up/reduce cycle on g (consumed); returns the
    smallest kernel found, with a log describing exactly that kernel.

    deadline is an optional time.monotonic() timestamp; once it passes, no
    further phases start and the kernel so far is returned (which is always
    a valid kernel, so callers can keep going with it)."""
    cfg = cfg or BlowupConfig()
    reduce_cfg = cfg.reduce_cfg
    log = TransformLog()
    stats = {}
    _reduce_into(g, reduce_cfg, log, stats)
    K = g
    stats["initial_kernel_n"] = K.counts()[0]
    stats["blowup_phases"] = 0
    stats["blowup_accepts"] = 0
    stats["blowup_rejects"] = 0

    state = BlowupState()
    unsuccessful = 0
    while K.counts()[0] and unsuccessful < cfg.X:
        if deadline is not None and time.monotonic() >= deadline:
            break
        snap_graph = K.copy()
        snap_len = len(log)
        snap_bounds = dict(state.bounds)
        pre_n = K.counts()[0]

        status, center, seeds = blow_up(K, state, cfg, log)
        if status == NO_CANDIDATE:
            break
        stats["blowup_phases"] += 1
        _reduce_into(K, reduce_cfg, log, stats, seeds=seeds)

        if K.counts()[0] < pre_n:
            stats["blowup_accepts"] += 1
            state.bounds.clear()
        else:
            stats["blowup_rejects"] += 1
            K = snap_graph
            log.truncate(snap_len)
            state.bounds = snap_bounds
            state.excluded[center] = neighborhood_fingerprint(K, center)
            unsuccessful += 1

    stats["kernel_n"], stats["kernel_m"] = K.counts()
    return KernelResult(K, log.offset, log, stats)


def preprocess(g, mode=PRESET_NONINCREASING, deadline=None, **overrides):
    """Reduce g (consumed) under the named preset; overrides that are not
    None replace individual BlowupConfig fields."""
    return cyclic_blow_up(g, make_blowup_config(mode, **overrides), deadline)
