"""Deployment and measurement harness."""

from .adaptation import AdaptationOutcome, adapt_shield, recheck_certificate
from .batched import BatchedCampaign, as_batch_policy
from .metrics import DeploymentMetrics, EpisodeMetrics
from .monitor import MonitorRecord, MonitorReport, RuntimeMonitor
from .monitored import FleetMonitorReport, MonitoredBatchedCampaign, monitor_fleet
from .simulation import (
    EvaluationProtocol,
    ShieldComparison,
    compare_shielded,
    evaluate_policy,
    run_episode,
)

__all__ = [
    "EpisodeMetrics",
    "DeploymentMetrics",
    "EvaluationProtocol",
    "BatchedCampaign",
    "as_batch_policy",
    "run_episode",
    "evaluate_policy",
    "compare_shielded",
    "ShieldComparison",
    "MonitorRecord",
    "MonitorReport",
    "RuntimeMonitor",
    "FleetMonitorReport",
    "MonitoredBatchedCampaign",
    "monitor_fleet",
    "AdaptationOutcome",
    "adapt_shield",
    "recheck_certificate",
]
