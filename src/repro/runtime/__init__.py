"""Deployment and measurement harness."""

from .adaptation import AdaptationOutcome, adapt_shield, recheck_certificate
from .metrics import DeploymentMetrics
from .monitor import MonitorRecord, MonitorReport, RuntimeMonitor
from .monitored import FleetMonitorReport, monitor_fleet
from .simulation import (
    EvaluationProtocol,
    ShieldComparison,
    compare_shielded,
    evaluate_policy,
)

__all__ = [
    "DeploymentMetrics",
    "EvaluationProtocol",
    "evaluate_policy",
    "compare_shielded",
    "ShieldComparison",
    "MonitorRecord",
    "MonitorReport",
    "RuntimeMonitor",
    "FleetMonitorReport",
    "monitor_fleet",
    "AdaptationOutcome",
    "adapt_shield",
    "recheck_certificate",
]
