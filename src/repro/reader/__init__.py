"""Reader emulation: LLRP message layer, the simulated R420, and a client."""

from repro.reader.client import (
    LLRPClient,
    LLRPError,
    ReaderConnectionError,
    ReaderState,
)
from repro.reader.llrp import (
    AISpec,
    AISpecStopTrigger,
    C1G2Filter,
    ROSpec,
    rospec_from_xml,
    rospec_to_xml,
)
from repro.reader.reader import SimReader
from repro.reader.sessioned import SessionedReader
from repro.reader.resilience import (
    CircuitOpenError,
    ResilientLLRPClient,
    RetryPolicy,
)

__all__ = [
    "AISpec",
    "AISpecStopTrigger",
    "C1G2Filter",
    "CircuitOpenError",
    "LLRPClient",
    "LLRPError",
    "ReaderConnectionError",
    "ResilientLLRPClient",
    "RetryPolicy",
    "ROSpec",
    "ReaderState",
    "SessionedReader",
    "SimReader",
    "rospec_from_xml",
    "rospec_to_xml",
]
