"""Execution runtime: interpreter, transports, and the running system."""

from .interpreter import Fault
from .system import BindError, start
from .transport import TransportError, http_invoke_rr

__all__ = ["BindError", "Fault", "TransportError", "http_invoke_rr", "start"]
