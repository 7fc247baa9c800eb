package pilot

import (
	"repro/internal/metrics"
	"repro/internal/obs"
)

// The telemetry-plane types, re-exported as the public metrics API. A
// MetricsRegistry holds labeled instruments (counters, gauges,
// histograms); a MetricsBridge derives the standard instrument set from
// a Recorder's event stream; a MetricsServer exposes the registry live
// over HTTP. See the package documentation's Observability section for
// the instrument set and label conventions.
type (
	// MetricsRegistry is a labeled-instrument registry rendering as
	// Prometheus text exposition and as a JSON snapshot.
	MetricsRegistry = metrics.Registry
	// MetricsBridge folds recorder events into a MetricsRegistry.
	MetricsBridge = obs.Bridge
	// MetricsServer is a live /metrics + /debug/pilot HTTP endpoint.
	MetricsServer = obs.MetricsServer
)

// NewMetricsRegistry creates an empty labeled-instrument registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMetricsBridge declares the standard instrument set on reg and
// returns the bridge feeding it. Hook it into a recorder with
// Recorder.OnRecord(bridge.Apply) to populate the registry live; to
// fold a finished recording, call bridge.Apply on each of its Events.
func NewMetricsBridge(reg *MetricsRegistry) *MetricsBridge { return obs.NewBridge(reg) }

// ServeMetrics starts a live exposition endpoint for reg on addr
// (":9090", "127.0.0.1:0", ...): Prometheus text at /metrics, the JSON
// snapshot at /debug/pilot. Close the returned server to release the
// port.
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.ServeMetrics(addr, reg)
}
