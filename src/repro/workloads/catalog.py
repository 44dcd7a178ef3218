"""Canonical paper targets: Tables 1 and 2, reconstructed.

The scanned tables contain OCR damage; DESIGN.md section 3 records how the
values below were reconstructed (cross-checking ``rate x time = total`` and
``count x avg = total`` against the prose).  These rows are the "paper"
column of every table benchmark and the calibration targets of the
workload generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import MB

#: Application names in the tables' row order.
APP_NAMES = ("bvi", "ccm", "forma", "gcm", "les", "venus", "upw")


@dataclass(frozen=True)
class PaperAppRow:
    """One application's row across Tables 1 and 2, plus narrative facts."""

    name: str
    category: str
    description: str

    # --- Table 1: Characteristics of the traced applications ---
    running_seconds: float  #: CPU time the program required
    data_size_mb: float  #: sum of sizes of all files accessed
    total_io_mb: float  #: total data read + written
    n_ios: int  #: number of read/write calls
    avg_io_mb: float  #: total_io_mb / n_ios
    mb_per_sec: float  #: total_io_mb / running_seconds
    ios_per_sec: float  #: n_ios / running_seconds

    # --- Table 2: I/O request rates and data rates (per CPU second) ---
    read_mb_per_sec: float
    write_mb_per_sec: float
    read_ios_per_sec: float
    write_ios_per_sec: float
    avg_io_kb: float
    rw_data_ratio: float  #: bytes read / bytes written

    # --- narrative facts used by the models ---
    uses_ssd: bool = False  #: bvi was "explicitly designed for use with the SSD"
    uses_async: bool = False  #: les "used asynchronous reads and writes explicitly"
    n_data_files: int = 1  #: venus interleaved "six different data files"
    compulsory_only: bool = False  #: gcm and upw "only do compulsory I/O"

    @property
    def read_fraction_bytes(self) -> float:
        """Fraction of transferred bytes that are reads."""
        return self.rw_data_ratio / (1.0 + self.rw_data_ratio)

    @property
    def total_io_bytes(self) -> int:
        return int(self.total_io_mb * MB)

    @property
    def data_size_bytes(self) -> int:
        return int(self.data_size_mb * MB)

    @property
    def avg_io_bytes(self) -> int:
        return int(self.avg_io_mb * MB)


PAPER_APPS: dict[str, PaperAppRow] = {
    "bvi": PaperAppRow(
        name="bvi",
        category="CFD",
        description=(
            "Blade-vortex interaction: helicopter-blade CFD, explicitly "
            "designed for the Cray SSD; many small I/Os"
        ),
        running_seconds=1718.0,
        data_size_mb=171.0,
        total_io_mb=30_150.0,
        n_ios=1_884_000,
        avg_io_mb=0.016,
        mb_per_sec=17.6,
        ios_per_sec=1097.0,
        read_mb_per_sec=12.3,
        write_mb_per_sec=5.34,
        read_ios_per_sec=913.0,
        write_ios_per_sec=185.0,
        avg_io_kb=16.1,
        rw_data_ratio=2.31,
        uses_ssd=True,
        n_data_files=2,
    ),
    "ccm": PaperAppRow(
        name="ccm",
        category="climate",
        description=(
            "Community Climate Model: atmosphere CFD with an intermediate "
            "in-memory array, staging the rest through the file system"
        ),
        running_seconds=205.0,
        data_size_mb=11.6,
        total_io_mb=1_812.0,
        n_ios=54_125,
        avg_io_mb=0.0335,
        mb_per_sec=8.8,
        ios_per_sec=264.0,
        read_mb_per_sec=4.25,
        write_mb_per_sec=3.96,
        read_ios_per_sec=135.0,
        write_ios_per_sec=128.0,
        avg_io_kb=31.9,
        rw_data_ratio=1.07,
        n_data_files=2,
    ),
    "forma": PaperAppRow(
        name="forma",
        category="structural",
        description=(
            "Sparse-matrix structural dynamics (Cray 1 heritage): blocked "
            "data array, empty blocks synthesized in memory; read-dominated"
        ),
        running_seconds=206.0,
        data_size_mb=30.0,
        total_io_mb=15_155.0,
        n_ios=475_826,
        avg_io_mb=0.0319,
        mb_per_sec=73.6,
        ios_per_sec=2310.0,
        read_mb_per_sec=62.2,
        write_mb_per_sec=5.68,
        read_ios_per_sec=1990.0,
        write_ios_per_sec=300.0,
        avg_io_kb=30.4,
        rw_data_ratio=11.0,
        n_data_files=2,
    ),
    "gcm": PaperAppRow(
        name="gcm",
        category="climate",
        description=(
            "Global Climate Model: primarily in-memory; only final results "
            "go through the operating system (compulsory I/O only)"
        ),
        running_seconds=1897.0,
        data_size_mb=229.0,
        total_io_mb=266.2,
        n_ios=7_953,
        avg_io_mb=0.0335,
        mb_per_sec=0.14,
        ios_per_sec=4.2,
        read_mb_per_sec=0.0107,
        write_mb_per_sec=0.12,
        read_ios_per_sec=0.34,
        write_ios_per_sec=3.85,
        avg_io_kb=31.9,
        rw_data_ratio=0.089,
        compulsory_only=True,
        n_data_files=1,
    ),
    "les": PaperAppRow(
        name="les",
        category="large eddy",
        description=(
            "Large eddy simulation (Navier-Stokes with turbulence); the only "
            "traced program using explicit asynchronous reads and writes"
        ),
        running_seconds=146.0,
        data_size_mb=224.0,
        total_io_mb=7_803.0,
        n_ios=22_384,
        avg_io_mb=0.349,
        mb_per_sec=53.4,
        ios_per_sec=153.0,
        read_mb_per_sec=24.0,
        write_mb_per_sec=25.2,
        read_ios_per_sec=74.0,
        write_ios_per_sec=81.0,
        avg_io_kb=325.0,
        rw_data_ratio=0.95,
        uses_async=True,
        n_data_files=2,
    ),
    "venus": PaperAppRow(
        name="venus",
        category="climate",
        description=(
            "Venus-atmosphere model: deliberately tiny in-memory array to "
            "reach a shorter job queue; stages six data files every cycle"
        ),
        running_seconds=379.0,
        data_size_mb=55.2,
        total_io_mb=16_712.0,
        n_ios=34_904,
        avg_io_mb=0.479,
        mb_per_sec=44.1,
        ios_per_sec=92.0,
        read_mb_per_sec=28.4,
        write_mb_per_sec=15.7,
        read_ios_per_sec=59.0,
        write_ios_per_sec=33.0,
        avg_io_kb=456.0,
        rw_data_ratio=1.80,
        n_data_files=6,
    ),
    "upw": PaperAppRow(
        name="upw",
        category="polynomial",
        description=(
            "Approximate polynomial factorization: read a small input, "
            "compute ten CPU minutes, write the answer (compulsory only)"
        ),
        running_seconds=596.0,
        data_size_mb=62.0,
        total_io_mb=61.5,
        n_ios=1_940,
        avg_io_mb=0.0317,
        mb_per_sec=0.10,
        ios_per_sec=3.1,
        read_mb_per_sec=0.011,
        write_mb_per_sec=0.092,
        read_ios_per_sec=0.037,
        write_ios_per_sec=3.05,
        avg_io_kb=32.7,
        rw_data_ratio=0.12,
        compulsory_only=True,
        n_data_files=1,
    ),
}


def paper_row(name: str) -> PaperAppRow:
    """Look up an application's canonical row (KeyError-safe message)."""
    try:
        return PAPER_APPS[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; expected one of {APP_NAMES}"
        ) from None
