"""Synthetic traffic patterns and the injection process."""
from .generator import TrafficGenerator
from .patterns import get_pattern

__all__ = ["TrafficGenerator", "get_pattern"]
