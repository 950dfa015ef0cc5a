package apierr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// errorBody is the typed error envelope every non-2xx response of the
// fleet's HTTP services carries.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// statusCanceled is nginx's non-standard 499 "client closed request" —
// the response is usually unobservable (the client left), but the code
// keeps access logs honest about who ended the exchange.
const statusCanceled = 499

// statusOf maps the error taxonomy to HTTP statuses and stable
// machine-readable codes — the network form of errors.Is.
func statusOf(err error) (int, string) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrCorruptArchive):
		return http.StatusUnprocessableEntity, "corrupt_archive"
	case errors.Is(err, ErrCodecUnknown):
		return http.StatusBadRequest, "codec_unknown"
	case errors.Is(err, ErrDriftRecalibration):
		return http.StatusInternalServerError, "drift_recalibration"
	case errors.Is(err, ErrBadConfig):
		return http.StatusBadRequest, "bad_config"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return statusCanceled, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// WriteError renders a taxonomy error as the JSON error envelope with the
// matching HTTP status and stable machine code. Both HTTP services (the
// compression service and the archive read server) answer every failure
// through it, so the fleet speaks one error wire format and
// ErrorFromResponse reverses all of it.
func WriteError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	var body errorBody
	body.Error.Code = code
	body.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json")
	// Never-started refusals advertise when retrying is worthwhile. A 429
	// carries the refusing queue's own backlog estimate when it made one
	// (OverloadError.RetryAfterSeconds); a draining 503 says "now, but
	// elsewhere" — the shortest honest hint.
	if status == http.StatusTooManyRequests || code == "draining" {
		secs := 1
		var oe *OverloadError
		if errors.As(err, &oe) && oe.RetryAfterSeconds > 0 {
			secs = oe.RetryAfterSeconds
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// ErrorFromResponse reconstructs the taxonomy sentinel from a typed error
// response, so facade-level clients keep errors.Is across the network.
// Returns nil when the response is not an error envelope WriteError
// produced.
func ErrorFromResponse(status int, body []byte) error {
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code == "" {
		return nil
	}
	sentinel := map[string]error{
		"overloaded":          ErrOverloaded,
		"draining":            ErrDraining,
		"corrupt_archive":     ErrCorruptArchive,
		"codec_unknown":       ErrCodecUnknown,
		"bad_config":          ErrBadConfig,
		"not_found":           ErrNotFound,
		"drift_recalibration": ErrDriftRecalibration,
		"deadline_exceeded":   context.DeadlineExceeded,
		"canceled":            context.Canceled,
	}[eb.Error.Code]
	msg := strings.TrimSpace(eb.Error.Message)
	if sentinel == nil {
		return fmt.Errorf("server: HTTP %d: %s", status, msg)
	}
	return fmt.Errorf("server: HTTP %d: %w (%s)", status, sentinel, msg)
}
