"""Structured decision modeling over LLM-elicited attributes.

The package factors a natural-language decision into four auditable steps:
information extraction, constraint-aware weighing and filtering, utility
aggregation, and symbolic selection with a generated rationale. A record and
replay gateway makes every run reproducible offline.
"""

__version__ = "0.1.0"
