"""Recorded SHA-256 pins of the bytes the section 4 collection path writes.

For each of the seven application models, generated at a small fixed
scale and seed, the fixture next to this module holds the digest of:

* ``trace``/``trace_omit_ops`` -- :func:`~repro.trace.io.write_trace_array`
  on the generated trace, with the workload's file-name comments as
  header, once with ``omit_operation_ids`` off and once on;
* ``packets`` -- :func:`~repro.trace.packets.dump_packets` on the packets
  a default :class:`~repro.trace.procstat.ProcstatCollector` emits;
* ``merged`` -- :func:`~repro.trace.io.write_trace` on
  :func:`~repro.trace.reconstruct.reconstruct_records` of a collection
  with small packets and frequent force-flushes, so the epoch merge and
  its carry-over run.

The digests were recorded once, with the per-record scalar encoder,
loader and merge, before the columnar collection path replaced them.
They pin the on-disk bytes, not one implementation: never re-record them
to make a change pass.  Check them with::

    python -m tests.harness.byte_pins
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.trace.io import write_trace, write_trace_array
from repro.trace.packets import dump_packets
from repro.trace.procstat import ProcstatCollector
from repro.trace.reconstruct import reconstruct_records
from repro.workloads.base import model_for

FIXTURE = Path(__file__).with_name("byte_pins.json")
SEED = 7

#: Per-app scales: a few thousand to ~40k records each.
SCALES = {
    "bvi": 0.01,
    "ccm": 0.05,
    "forma": 0.01,
    "gcm": 0.1,
    "les": 0.05,
    "upw": 0.1,
    "venus": 0.05,
}

#: Collector settings of the ``merged`` pin: many epochs, many packets.
MERGE_PACKET_EVENTS = 61
MERGE_FLUSH_INTERVAL = 997


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _collect(app: str, **collector_kwargs) -> list:
    packets: list = []
    model = model_for(app, scale=SCALES[app], seed=SEED)
    model.generate(collector=ProcstatCollector(packets.append, **collector_kwargs))
    return packets


def app_pins(app: str, workdir: Path) -> dict[str, str]:
    """The four digests of one application."""
    workload = model_for(app, scale=SCALES[app], seed=SEED).generate()
    header = [c.text for c in workload.comments]
    path = workdir / f"{app}.out"
    pins = {}
    for key, omit in (("trace", False), ("trace_omit_ops", True)):
        write_trace_array(
            path, workload.trace, header_comments=header, omit_operation_ids=omit
        )
        pins[key] = _sha(path)
    dump_packets(path, _collect(app))
    pins["packets"] = _sha(path)
    packets = _collect(
        app,
        max_events_per_packet=MERGE_PACKET_EVENTS,
        flush_interval=MERGE_FLUSH_INTERVAL,
    )
    write_trace(path, reconstruct_records(packets), header_comments=header)
    pins["merged"] = _sha(path)
    return pins


def all_pins() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {app: app_pins(app, Path(tmp)) for app in SCALES}


def load_fixture() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true",
        help="write the fixture (only where none exists yet)",
    )
    args = parser.parse_args(argv)
    pins = all_pins()
    if args.record:
        if FIXTURE.exists():
            print(f"{FIXTURE} exists; the pins are never re-recorded")
            return 1
        FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"recorded {sum(map(len, pins.values()))} pins to {FIXTURE}")
        return 0
    expected = load_fixture()
    bad = [
        f"{app}.{key}"
        for app in sorted(expected)
        for key in sorted(expected[app])
        if pins.get(app, {}).get(key) != expected[app][key]
    ]
    total = sum(map(len, expected.values()))
    print(f"{total - len(bad)}/{total} pins hold")
    for name in bad:
        print(f"  moved: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
