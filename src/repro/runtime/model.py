"""Machine cost models for the virtual clock."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """LogGP-style postal cost model.

    - ``flop_time``: seconds per (sustained) floating-point operation
    - ``alpha``: message latency in seconds (includes both overheads)
    - ``beta``: seconds per byte of message payload
    - ``word_bytes``: bytes per array element (double precision)
    - ``o``: additional per-message CPU overhead on each endpoint (LogGP's
      *o*; 0 folds it into ``alpha``, the pre-existing behaviour)
    - ``g``: minimum gap between consecutive message injections (LogGP's
      *g*; 0 means the network pipelines back-to-back sends perfectly)
    """

    name: str
    flop_time: float
    alpha: float
    beta: float
    word_bytes: int = 8
    o: float = 0.0
    g: float = 0.0

    def __post_init__(self) -> None:
        if self.flop_time <= 0:
            raise ValueError(
                f"flop_time must be positive (seconds per flop), got {self.flop_time!r}"
            )
        if self.alpha < 0:
            raise ValueError(
                f"alpha (message latency) must be non-negative, got {self.alpha!r}"
            )
        if self.beta < 0:
            raise ValueError(
                f"beta (seconds per byte) must be non-negative, got {self.beta!r}"
            )
        if self.word_bytes <= 0:
            raise ValueError(
                f"word_bytes must be a positive element size, got {self.word_bytes!r}"
            )
        if self.o < 0:
            raise ValueError(
                f"o (per-message CPU overhead) must be non-negative, got {self.o!r}"
            )
        if self.g < 0:
            raise ValueError(
                f"g (inter-message gap) must be non-negative, got {self.g!r}"
            )

    def msg_time(self, nbytes: int) -> float:
        return self.alpha + 2 * self.o + self.beta * nbytes

    def compute_time(self, flops: float) -> float:
        return flops * self.flop_time

    def loggp_time(self, nmsgs: int, nbytes: int) -> float:
        """LogGP cost of *nmsgs* messages totalling *nbytes* payload bytes
        on one endpoint: each message pays latency plus send+recv overhead,
        consecutive injections are separated by the gap, and the payload
        streams at ``beta`` seconds/byte.  With the default ``o = g = 0``
        this degenerates to ``nmsgs * alpha + beta * nbytes`` — the postal
        model the virtual machine charges."""
        if nmsgs <= 0:
            return 0.0
        return (
            nmsgs * (self.alpha + 2 * self.o)
            + (nmsgs - 1) * self.g
            + self.beta * nbytes
        )


#: The paper's platform: IBM SP2, 120 MHz P2SC "thin" nodes, IBM user-space
#: MPI.  Peak is 480 MFLOPS/node; NAS-class codes sustain an order less.
#: flop_time is calibrated so the hand-coded 4-proc Class A SP time matches
#: the paper's 436 s (~55 sustained MFLOPS — consistent with published SP2
#: NPB numbers); alpha/beta are the usual SP2 user-space MPI figures
#: (~40 us latency, ~35 MB/s bandwidth).
IBM_SP2 = MachineModel(
    name="ibm-sp2-120MHz-p2sc",
    flop_time=1.0 / 55e6,
    alpha=40e-6,
    beta=1.0 / 35e6,
)

#: A fast abstract machine for unit tests (negligible compute cost).
TEST_MACHINE = MachineModel(name="test", flop_time=1e-9, alpha=1e-5, beta=1e-8)
