package pilot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Option configures a Session built by NewSession.
type Option func(*sessionConfig)

type sessionConfig struct {
	profile     BootstrapProfile
	seed        int64
	recorder    *obs.Recorder
	metricsAddr string
}

// WithProfile sets the bootstrap cost model (default: DefaultProfile).
func WithProfile(p BootstrapProfile) Option {
	return func(c *sessionConfig) { c.profile = p }
}

// WithSeed sets the session RNG seed; runs are deterministic per seed
// (default: 1).
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.seed = seed }
}

// WithRecorder attaches a flight recorder (NewRecorder) to the session:
// every manager built on it records unit/pilot/Data-Unit state
// transitions, scheduler bind decisions, autoscaler verdicts,
// hold/release edges, result-cache traffic and replica motion through
// r, and the Unit-Manager samples live gauges into r's Series on every
// scheduling event. Recording is strictly opt-in — without this option
// the instrumented paths cost one nil check.
func WithRecorder(r *Recorder) Option {
	return func(c *sessionConfig) { c.recorder = r }
}

// WithMetricsAddr starts a live telemetry endpoint for the session:
// it ensures a flight recorder (creating one when WithRecorder was not
// given), bridges its event stream into a fresh MetricsRegistry, and
// serves Prometheus text at http://<addr>/metrics plus the JSON
// snapshot at /debug/pilot until the server is closed
// (Session.MetricsServer().Close()). addr is a listen address like
// ":9090" or "127.0.0.1:0" (port 0 picks a free port; read it back
// with Session.MetricsServer().Addr()).
//
// Options cannot return errors, so a listen failure is recorded on the
// session instead: Session.Err returns it, the registry is still
// attached and fed, and Session.MetricsServer is nil. Check Err after
// NewSession, or use ServeMetrics directly for an error-returning path.
func WithMetricsAddr(addr string) Option {
	return func(c *sessionConfig) { c.metricsAddr = addr }
}

// NewSession creates a session on the engine with the given options.
//
//	session := pilot.NewSession(eng, pilot.WithProfile(prof), pilot.WithSeed(42))
func NewSession(eng *sim.Engine, opts ...Option) *Session {
	cfg := sessionConfig{profile: core.DefaultProfile(), seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := core.NewSession(eng, cfg.profile, cfg.seed)
	if cfg.metricsAddr != "" && cfg.recorder == nil {
		cfg.recorder = obs.NewRecorder(eng)
	}
	if cfg.recorder != nil {
		s.AttachRecorder(cfg.recorder)
	}
	if cfg.metricsAddr != "" {
		reg := metrics.NewRegistry()
		cfg.recorder.OnRecord(obs.NewBridge(reg).Apply)
		srv, err := obs.ServeMetrics(cfg.metricsAddr, reg)
		if err != nil {
			s.SetErr(fmt.Errorf("pilot: WithMetricsAddr: %w", err))
		}
		s.AttachMetrics(reg, srv)
	}
	return s
}
