package adaptive

import (
	"net/http"

	"repro/internal/apierr"
	"repro/internal/server"
)

// Server is the networked compression service: the System's engine and
// streaming driver behind an HTTP API shared by many tenants at once, with
// per-tenant bounded queues (typed 429 backpressure), a fixed set of
// workers that pull requests by deficit round-robin and run each as one
// engine call, token-bucket rate metering, and a load controller that
// steps error-bound budgets up under pressure and back down when it
// clears. Build one with System.NewServer, expose it with NewH2CServer,
// stop it with Close.
type Server = server.Server

// ServerConfig tunes the service; the zero value of every knob selects a
// sane default.
type ServerConfig = server.Config

// ServerAdaptConfig tunes the service's load-driven rate controller.
type ServerAdaptConfig = server.AdaptConfig

// ServerStats is the counter snapshot the service's /v1/stats endpoint
// serves.
type ServerStats = server.Stats

// NewServer builds a compression service over this System's engine and
// streaming driver (sharing their worker pool and per-tenant-field
// calibration state) and starts its workers. The System's calibration
// options (WithCalibration) govern the service's /v1/calibrate endpoint.
func (s *System) NewServer(cfg ServerConfig) (*Server, error) {
	return server.New(s.drv, s.cal, cfg)
}

// NewH2CServer wraps a handler — typically Server.Handler() — in an
// http.Server speaking HTTP/1.1 and cleartext HTTP/2 (h2c) on addr,
// stdlib-only. h2c gives each client stream multiplexing over one TCP
// connection, which is what lets thousands of concurrent simulation ranks
// share a few sockets.
func NewH2CServer(addr string, h http.Handler) *http.Server {
	return server.NewHTTPServer(addr, h)
}

// NewH2CTransport returns an http.Transport that speaks h2c to
// NewH2CServer instances — the client half, used by the load generator.
func NewH2CTransport() *http.Transport {
	return server.NewH2CTransport()
}

// MarshalFieldPayload serializes a field into the service's raw-field wire
// format (12-byte little-endian dim header + fp32 cells).
func MarshalFieldPayload(f *Field) []byte {
	return server.EncodeField(f)
}

// UnmarshalFieldPayload parses the service's raw-field wire format,
// rejecting payloads above maxCells cells (hostile-input guard; pass the
// service's configured limit, or a generous local one). Rejections wrap
// ErrBadConfig.
func UnmarshalFieldPayload(data []byte, maxCells int64) (*Field, error) {
	return server.DecodeField(data, maxCells)
}

// ServiceError reconstructs the error-taxonomy sentinel from a typed error
// response of the service, so clients keep errors.Is across the network:
// a 429 body maps back to ErrOverloaded, a 422 to ErrCorruptArchive, and
// so on. Returns nil when the body is not the service's error envelope.
func ServiceError(status int, body []byte) error {
	return apierr.ErrorFromResponse(status, body)
}
