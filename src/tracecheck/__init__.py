"""tracecheck: offline trace checking for cyber-physical systems.

Properties are written in a hybrid logic over trace timestamps, record
indices and signal values.  Checks run either through a direct exact
evaluator or by translation to SMT-LIB (AUFLIRA) and an external solver.
"""

__version__ = "0.1.0"

from .trace import (  # noqa: F401
    DomainError,
    Fixed,
    Rate,
    Record,
    Trace,
    TraceError,
    TraceFormatError,
    Variable,
    iota_fixed,
    iota_variable,
    load_trace,
    load_trace_file,
    serialize_trace,
    value_at,
)
