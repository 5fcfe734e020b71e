"""Deterministic, seedable fault injection for the serving + PPX stack.

The harness is built around three ideas:

* **Explicit fault points.**  Production code calls
  :func:`fault_point`/:func:`perform` at named sites (``"workers.cohort"``,
  ``"transport.send"``, ...).  When no plan is installed the call is a single
  module-global ``is None`` check — no locks, no allocation, no branching on
  configuration — so the hooks are effectively free in production.

* **A seedable plan.**  :class:`FaultPlan` holds :class:`FaultRule` entries
  (crash worker at shard N, delay every Kth cohort, drop a socket with
  probability p, ...).  All probabilistic decisions derive from
  ``sha256(seed, site, occurrence)`` rather than a stateful RNG, so a plan is
  reproducible from its seed alone and independent of thread interleaving:
  the Nth call at a given site always gets the same verdict.

* **Observable firings.**  Every fault the plan fires is recorded on the
  plan (and read from it by ``PosteriorService.stats()``), so a
  chaos test can assert that the fault it asked for actually happened.

Plans are picklable (minus ``match`` callables) so the process-backend
worker entrypoint can carry a plan into child processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "InjectedFault",
    "FaultRule",
    "FaultAction",
    "FaultPlan",
    "install",
    "clear",
    "activate",
    "active",
    "fault_point",
    "perform",
    "injected_counts",
]


class InjectedFault(RuntimeError):
    """An error raised on purpose by the fault harness.

    ``transient = True`` marks it retryable for the resilience layer: an
    injected fault stands in for a crash/disconnect that a retry may outrun.
    """

    transient = True


# The fault kinds sites know how to interpret.  ``error`` and ``delay`` are
# generic (handled by :func:`perform`); the rest are site-specific and
# returned to the caller to act on (kill a worker process, corrupt a frame,
# flip a cached value, reject an admission).
KINDS = (
    "error",        # raise InjectedFault at the site
    "delay",        # sleep rule.delay seconds (straggler)
    "crash",        # procpool: SIGKILL the worker a shard was dispatched to
    "disconnect",   # transport: close the socket mid-stream
    "garbage",      # transport: corrupt the outgoing frame
    "poison",       # cache: corrupt the stored posterior
    "reject",       # service admission: synthetic queue-full burst
)


@dataclass(frozen=True)
class FaultRule:
    """One trigger: *when* (at/every/probability) and *what* (kind) at a site.

    ``at`` fires on the Nth eligible call at the site (0-based), ``every``
    fires on every Kth call, ``probability`` fires pseudo-randomly (derived
    from the plan seed, not wall-clock randomness).  ``limit`` caps total
    firings of this rule; ``match`` optionally filters on the call context
    (not picklable — leave ``None`` for plans that cross process boundaries).
    """

    site: str
    kind: str
    at: Optional[int] = None
    every: Optional[int] = None
    probability: float = 0.0
    limit: Optional[int] = None
    delay: float = 0.0
    match: Optional[Callable[[Dict[str, Any]], bool]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {KINDS})")
        if self.at is None and self.every is None and self.probability <= 0.0:
            raise ValueError(
                f"rule for site {self.site!r} can never fire: "
                "set at=, every=, or probability="
            )


@dataclass(frozen=True)
class FaultAction:
    """The verdict handed back to a fault point when a rule fires."""

    site: str
    kind: str
    delay: float = 0.0
    rule_index: int = -1


def _chance(seed: int, site: str, occurrence: int, rule_index: int) -> float:
    """Deterministic uniform-[0,1) draw for probability rules.

    Hash-derived rather than RNG-derived so the verdict for the Nth call at a
    site is a pure function of the plan seed — independent of how threads
    interleave calls at *other* sites.
    """
    digest = hashlib.sha256(
        f"{seed}:{site}:{occurrence}:{rule_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A reproducible schedule of faults, derived entirely from ``seed``."""

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        # occurrence counter per site; firing record per rule; flat log.
        self._site_calls: Dict[str, int] = {}
        self._rule_fired: List[int] = [0] * len(self.rules)
        self._fired: List[Tuple[str, str, int]] = []  # (site, kind, occurrence)

    # -- pickling: drop the lock (re-created on load), keep counters so a
    # child process starts from the parent's schedule position only if the
    # parent pickled mid-run (normally counters are zero at worker spawn).
    def __getstate__(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rules": self.rules,
                "seed": self.seed,
                "site_calls": dict(self._site_calls),
                "rule_fired": list(self._rule_fired),
                "fired": list(self._fired),
            }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.rules = state["rules"]
        self.seed = state["seed"]
        self._lock = threading.Lock()
        self._site_calls = dict(state["site_calls"])
        self._rule_fired = list(state["rule_fired"])
        self._fired = list(state["fired"])

    def decide(self, site: str, **ctx: Any) -> Optional[FaultAction]:
        """Advance the site's occurrence counter and return a verdict."""
        with self._lock:
            occurrence = self._site_calls.get(site, 0)
            self._site_calls[site] = occurrence + 1
            for index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if rule.limit is not None and self._rule_fired[index] >= rule.limit:
                    continue
                if rule.match is not None and not rule.match(ctx):
                    continue
                hit = False
                if rule.at is not None and occurrence == rule.at:
                    hit = True
                elif rule.every is not None and rule.every > 0 and (
                    occurrence % rule.every == rule.every - 1
                ):
                    hit = True
                elif rule.probability > 0.0 and (
                    _chance(self.seed, site, occurrence, index) < rule.probability
                ):
                    hit = True
                if not hit:
                    continue
                self._rule_fired[index] += 1
                self._fired.append((site, rule.kind, occurrence))
                return FaultAction(
                    site=site, kind=rule.kind, delay=rule.delay, rule_index=index
                )
        return None

    # -- observability -----------------------------------------------------
    def fired(self) -> List[Tuple[str, str, int]]:
        with self._lock:
            return list(self._fired)

    def fired_counts(self) -> Dict[str, int]:
        """``{"site/kind": count}`` for everything this plan has injected."""
        counts: Dict[str, int] = {}
        with self._lock:
            for site, kind, _ in self._fired:
                key = f"{site}/{kind}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def total_fired(self) -> int:
        with self._lock:
            return len(self._fired)

    def site_calls(self, site: str) -> int:
        with self._lock:
            return self._site_calls.get(site, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"

    # -- randomized chaos plans -------------------------------------------
    @staticmethod
    def randomized(
        seed: int,
        *,
        crash: bool = True,
        stragglers: bool = True,
        transport: bool = False,
        rejects: bool = True,
    ) -> "FaultPlan":
        """A mixed chaos plan derived deterministically from ``seed``.

        Used by the soak test: each seed picks a different combination of
        worker crashes, straggler delays, admission-reject bursts and (when
        the workload has sockets) transport drops.  The expansion uses
        sha256, not ``random``, so the plan is a pure function of the seed.
        """

        def word(tag: str) -> int:
            digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
            return int.from_bytes(digest[:8], "big")

        rules: List[FaultRule] = []
        if crash:
            # One crash somewhere in the first few dispatches, plus a small
            # chance of a second one later.
            rules.append(
                FaultRule(
                    site="procpool.dispatch",
                    kind="crash",
                    at=word("crash-at") % 6,
                    limit=1,
                )
            )
            if word("crash-second") % 4 == 0:
                rules.append(
                    FaultRule(
                        site="procpool.dispatch",
                        kind="crash",
                        probability=0.05,
                        limit=1,
                    )
                )
        if stragglers:
            rules.append(
                FaultRule(
                    site="workers.cohort",
                    kind="delay",
                    probability=0.15 + (word("straggle-p") % 20) / 100.0,
                    delay=0.005 + (word("straggle-d") % 30) / 1000.0,
                    limit=8,
                )
            )
        if transport:
            rules.append(
                FaultRule(
                    site="transport.send",
                    kind="disconnect",
                    at=word("drop-at") % 10,
                    limit=1,
                )
            )
        if rejects:
            rules.append(
                FaultRule(
                    site="service.admit",
                    kind="reject",
                    probability=0.05 + (word("reject-p") % 10) / 100.0,
                    limit=4,
                )
            )
        return FaultPlan(rules, seed=seed)


# ---------------------------------------------------------------------------
# Module-global active plan.  ``fault_point`` reads one global; ``None``
# (the production state) short-circuits before any other work.
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process-wide active plan (``None`` disables)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Disable fault injection in this process."""
    install(None)


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


@contextlib.contextmanager
def activate(plan: FaultPlan):
    """Context manager: install ``plan`` for the block, restore on exit."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def fault_point(site: str, **ctx: Any) -> Optional[FaultAction]:
    """The hook production code calls.  Free when no plan is installed."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.decide(site, **ctx)


def perform(site: str, **ctx: Any) -> Optional[FaultAction]:
    """Like :func:`fault_point`, but handles the generic kinds in place.

    ``delay`` sleeps here; ``error`` raises :class:`InjectedFault` here.
    Site-specific kinds (``crash``, ``disconnect``, ``garbage``, ``poison``,
    ``reject``) are returned for the caller to enact.
    """
    action = fault_point(site, **ctx)
    if action is None:
        return None
    if action.delay > 0.0:
        time.sleep(action.delay)
    if action.kind == "error":
        raise InjectedFault(f"injected fault at {site}")
    if action.kind == "delay":
        return None
    return action


def injected_counts() -> Dict[str, int]:
    """Fired counts of the active plan (empty when injection is off)."""
    plan = _ACTIVE
    if plan is None:
        return {}
    return plan.fired_counts()
