package apierr

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestErrorEnvelopeRoundTrip: every sentinel WriteError renders comes back
// from ErrorFromResponse as the same sentinel, with the status and
// Retry-After the wire promises.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		err    error
		status int
		retry  string
	}{
		{&OverloadError{Tenant: "t", QueueDepth: 2, RetryAfterSeconds: 7}, 429, "7"},
		{fmt.Errorf("server: lame-duck: %w", ErrDraining), 503, "1"},
		{fmt.Errorf("x: %w", ErrCorruptArchive), 422, ""},
		{fmt.Errorf("x: %w", ErrCodecUnknown), 400, ""},
		{fmt.Errorf("x: %w", ErrBadConfig), 400, ""},
		{fmt.Errorf("x: %w", ErrNotFound), 404, ""},
		{&DriftRecalibrationError{Field: "rho", Err: errors.New("fit")}, 500, ""},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), 504, ""},
		{fmt.Errorf("x: %w", context.Canceled), statusCanceled, ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		WriteError(rec, tc.err)
		if rec.Code != tc.status || rec.Header().Get("Retry-After") != tc.retry {
			t.Errorf("%v: HTTP %d Retry-After %q, want %d %q", tc.err, rec.Code, rec.Header().Get("Retry-After"), tc.status, tc.retry)
		}
		back := ErrorFromResponse(rec.Code, rec.Body.Bytes())
		if back == nil {
			t.Errorf("%v: envelope not recognized: %s", tc.err, rec.Body.Bytes())
			continue
		}
		for _, s := range []error{ErrOverloaded, ErrDraining, ErrCorruptArchive, ErrCodecUnknown, ErrBadConfig, ErrNotFound, ErrDriftRecalibration, context.DeadlineExceeded, context.Canceled} {
			if errors.Is(tc.err, s) != errors.Is(back, s) {
				t.Errorf("%v came back as %v: errors.Is(%v) differs", tc.err, back, s)
			}
		}
	}

	// An untyped failure is a 500 "internal" that maps to no sentinel, and
	// a body that is not the envelope maps to nil.
	rec := httptest.NewRecorder()
	WriteError(rec, errors.New("boom"))
	if back := ErrorFromResponse(rec.Code, rec.Body.Bytes()); rec.Code != 500 || back == nil || errors.Is(back, ErrBadConfig) {
		t.Errorf("untyped error: HTTP %d, back %v", rec.Code, back)
	}
	if back := ErrorFromResponse(502, []byte("<html>bad gateway</html>")); back != nil {
		t.Errorf("non-envelope body mapped to %v", back)
	}
}
