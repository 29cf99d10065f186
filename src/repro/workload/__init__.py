"""Workload factories: the paper's Web workload, session-based e-commerce,
and non-stationary arrival patterns (diurnal cycles, flash crowds)."""

from .ecommerce import DEFAULT_STATES, SessionProfile, SessionState, ecommerce_classes
from .patterns import (
    DiurnalPattern,
    FlashCrowd,
    pattern_factor,
    pattern_peak,
    pattern_sources,
)
from .webserver import paper_service_distribution, web_classes, web_classes_with_shares

__all__ = [
    "DiurnalPattern",
    "FlashCrowd",
    "pattern_factor",
    "pattern_peak",
    "pattern_sources",
    "paper_service_distribution",
    "web_classes",
    "web_classes_with_shares",
    "SessionState",
    "SessionProfile",
    "DEFAULT_STATES",
    "ecommerce_classes",
]
