"""Workload factories: the paper's Web workload, session-based e-commerce,
and non-stationary arrival patterns (diurnal cycles, flash crowds)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    globals(),
    {
        ".ecommerce": ("SessionState", "SessionProfile", "DEFAULT_STATES", "ecommerce_classes"),
        ".patterns": (
            "DiurnalPattern",
            "FlashCrowd",
            "pattern_factor",
            "pattern_peak",
            "pattern_sources",
        ),
        ".webserver": ("paper_service_distribution", "web_classes", "web_classes_with_shares"),
    },
)
