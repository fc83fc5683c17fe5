"""Live service mode: rolling windows + online localization over HTTP.

The batch pipeline replays a collection period and analyzes it after the
fact; this package runs the same simulator *continuously* — arrival round
after arrival round on one checkpointed clock — and localizes problems
while they develop, scored live against injected fault ground truth.
``repro serve`` boots it; ``repro watch`` tails it; the endpoint,
window-document, and incident-document contracts live in
docs/OBSERVABILITY.md ("Service mode").
"""

from .online import (
    INCIDENT_DOC_FIELDS,
    INCIDENT_SCHEMA,
    FaultScoreboard,
    IncidentDetector,
    expected_group,
    incident_json_line,
)
from .plane import SERVE_ENDPOINTS, ObservabilityPlane, start_plane
from .service import LiveService
from .watch import format_health_line, format_incident_line, watch
from .windows import (
    WINDOW_DOC_FIELDS,
    WINDOW_SCHEMA,
    RollingWindows,
    window_json_line,
)

__all__ = [
    "INCIDENT_DOC_FIELDS",
    "INCIDENT_SCHEMA",
    "SERVE_ENDPOINTS",
    "WINDOW_DOC_FIELDS",
    "WINDOW_SCHEMA",
    "FaultScoreboard",
    "IncidentDetector",
    "LiveService",
    "ObservabilityPlane",
    "RollingWindows",
    "expected_group",
    "format_health_line",
    "format_incident_line",
    "incident_json_line",
    "start_plane",
    "watch",
    "window_json_line",
]
