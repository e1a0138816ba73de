"""monoslice: one codebase for a whole microservice architecture.

Parse a service-definition program, check it, run it locally as if
distributed, and slice it into one deployable codebase per service.
"""

__version__ = "0.1.0"
