"""Retry/backoff recovery between the buffer cache and the disk model.

Every disk request the cache issues now goes through a
:class:`RecoveringDevice`.  On the fast path (no fault injection, no
timeout configured) it performs exactly the same three steps the cache
used to perform inline -- compute the service time, record the transfer,
schedule the completion -- so fault-free simulations are bit-identical
to the pre-fault-layer code.

With faults active, each request becomes a chain of *attempts*:

* an attempt the injector marks SLOW completes after ``slow_factor``
  times the modelled service time (the extra busy time is charged to the
  device, like a drive stuck recalibrating);
* an attempt that would exceed ``timeout_s`` is abandoned at the
  deadline and treated as failed (the requester cannot tell a dead
  device from a glacial one);
* a failed attempt is retried after an exponential backoff with seeded
  jitter, up to ``max_retries`` retries; the backoff sequence is
  monotone non-decreasing up to ``backoff_cap_s`` (property-tested);
* when retries are exhausted the request is *reported failed* to the
  cache: failed reads abandon their frames (read-ahead abandonment),
  failed flushes re-queue their dirty blocks (see
  :meth:`repro.sim.cache.BufferCache.issue_disk_write`).

Accounting: every attempt's service time hits the disk model (the head
really moved), but only successful attempts count as disk *transfers* --
the gap between device busy time and goodput is exactly the price of
running over faulty hardware.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.registry import get_registry
from repro.sim.config import RecoveryConfig
from repro.sim.devices import DiskModel
from repro.sim.events import Engine
from repro.sim.faults import FaultInjector, FaultKind
from repro.sim.metrics import Metrics


def backoff_delay(config: RecoveryConfig, attempt: int, jitter_u: float) -> float:
    """Delay before retrying after failed attempt number ``attempt`` (0-based).

    ``min(cap, base * factor**attempt * (1 + jitter * u))`` -- monotone
    non-decreasing in ``attempt`` for any draws ``u`` in [0, 1) because
    ``jitter <= factor - 1`` (enforced by :class:`RecoveryConfig`), and
    never above ``backoff_cap_s``.  In floating point the jittered value
    can round one ulp past the next attempt's un-jittered one, so it is
    clamped to ``base * factor**(attempt + 1)`` -- the very expression
    the next attempt starts from, so rounding cannot invert the pair.
    """
    base, factor = config.backoff_base_s, config.backoff_factor
    raw = base * factor**attempt
    raw *= 1.0 + config.backoff_jitter * jitter_u
    return min(config.backoff_cap_s, raw, base * factor ** (attempt + 1))


class RecoveringDevice:
    """The retrying device the buffer cache talks to.

    ``submit`` runs one logical device request and eventually calls
    ``on_done(ok)`` exactly once: ``ok=True`` after a successful (possibly
    retried) transfer, ``ok=False`` when retries are exhausted.
    """

    def __init__(
        self,
        disk: DiskModel,
        engine: Engine,
        injector: FaultInjector,
        config: RecoveryConfig,
        metrics: Metrics,
        *,
        obs=None,
    ):
        self.disk = disk
        self.engine = engine
        self.injector = injector
        self.config = config
        self.metrics = metrics
        reg = obs if obs is not None else get_registry()
        self._h_backoff = reg.histogram("sim.recovery.backoff_s")
        self._h_latency = reg.histogram("sim.recovery.latency_s")
        #: fast path: no per-request decisions and no deadline to police
        self._passthrough = not injector.active and config.timeout_s is None

    def submit(
        self,
        file_id: int,
        offset: int,
        length: int,
        *,
        is_write: bool,
        on_done: Callable[[bool], None],
    ) -> None:
        """One logical device request; ``on_done(ok)`` fires at completion."""
        if self._passthrough:
            # Identical to the pre-fault-layer inline path: one service
            # time, one transfer record, one completion event.
            service = self.disk.service_time(file_id, offset, length)
            t0 = self.engine.now
            self.metrics.record_disk_transfer(
                is_write=is_write, t_start=t0, t_end=t0 + service, nbytes=length
            )
            self.engine.schedule(service, on_done, True)
            return
        self._attempt(file_id, offset, length, is_write, on_done, 0, self.engine.now)

    def _attempt(
        self,
        file_id: int,
        offset: int,
        length: int,
        is_write: bool,
        on_done: Callable[[bool], None],
        attempt: int,
        started: float,
    ) -> None:
        cfg = self.config
        stats = self.metrics.faults
        service = self.disk.service_time(file_id, offset, length)
        decision = self.injector.decide()

        if decision.kind is FaultKind.SLOW:
            stats.injected_slowdowns += 1
            # The modelled time already hit the disk's busy counters;
            # charge the spike's stretch as extra device busy time.
            self.disk.add_busy(file_id, service * (decision.slow_factor - 1.0))
            service *= decision.slow_factor

        failed = decision.kind is FaultKind.ERROR
        if failed:
            stats.injected_errors += 1
            latency = service  # the error surfaces after the device gave up
        elif cfg.timeout_s is not None and service > cfg.timeout_s:
            stats.timeouts += 1
            failed = True
            latency = cfg.timeout_s  # the requester abandons at the deadline

        if not failed:
            t0 = self.engine.now
            self.metrics.record_disk_transfer(
                is_write=is_write, t_start=t0, t_end=t0 + service, nbytes=length
            )
            if attempt > 0:
                stats.recovered += 1
                self._h_latency.observe(t0 + service - started)
            self._note_attempts(attempt + 1)
            self.engine.schedule(service, on_done, True)
            return

        if attempt < cfg.max_retries:
            delay = backoff_delay(cfg, attempt, self.injector.uniform())
            stats.retries += 1
            self._h_backoff.observe(delay)
            self.engine.schedule(
                latency + delay,
                self._attempt,
                file_id, offset, length, is_write, on_done, attempt + 1, started,
            )
            return

        # Retries exhausted: report the failure to the cache.
        self._note_attempts(attempt + 1)
        if is_write:
            stats.failed_writes += 1
            stats.failed_write_bytes += length
        else:
            stats.failed_reads += 1
            stats.failed_read_bytes += length
        self.engine.schedule(latency, on_done, False)

    def _note_attempts(self, n: int) -> None:
        if n > self.metrics.faults.max_attempts:
            self.metrics.faults.max_attempts = n
