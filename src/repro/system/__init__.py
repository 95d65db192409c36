"""Multi-instance ProSE system model (four NVLinks, one Grace-class host)."""

from .serving import (
    CampaignReport,
    CampaignSimulator,
    DEFAULT_BUCKETS,
    format_campaign,
)
from .multi import (
    DEFAULT_INSTANCES,
    ProSESystem,
    SystemReport,
    format_scaling,
    scaling_study,
)

__all__ = [
    "CampaignReport",
    "CampaignSimulator",
    "DEFAULT_BUCKETS",
    "DEFAULT_INSTANCES",
    "format_campaign",
    "ProSESystem",
    "SystemReport",
    "format_scaling",
    "scaling_study",
]
