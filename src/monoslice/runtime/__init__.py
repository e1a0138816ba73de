"""Execution runtime: interpreter, transports, and the running system."""

from .interpreter import (
    ExecutionContext,
    Fault,
    FaultSignal,
    LocalContext,
    eval_expr,
    exec_statements,
)
from .system import (
    BindError,
    DEFAULT_INVOKE_TIMEOUT,
    DEFAULT_SHUTDOWN_TIMEOUT,
    RunningSystem,
    ServiceReport,
    SystemReport,
    start,
)
from .transport import TransportError, http_invoke_rr

__all__ = [
    "BindError",
    "DEFAULT_INVOKE_TIMEOUT",
    "DEFAULT_SHUTDOWN_TIMEOUT",
    "ExecutionContext",
    "Fault",
    "FaultSignal",
    "LocalContext",
    "RunningSystem",
    "ServiceReport",
    "SystemReport",
    "TransportError",
    "eval_expr",
    "exec_statements",
    "http_invoke_rr",
    "start",
]
