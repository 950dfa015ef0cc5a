package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/archiveserve"
)

// FetchOptions selects the representation of an archived field.
type FetchOptions struct {
	// Rate asks for a spliced representation at this many bits/value
	// (0 = the stored max-rate bytes). The server quantizes the rate up
	// to its bucket and caps it at the stored rate; FetchResult.ServedRate
	// reports what was actually negotiated.
	Rate float64
	// ETag revalidates a previously fetched representation: when the
	// server still holds the same bytes the result comes back with
	// NotModified set and no body.
	ETag string
}

// FetchResult is one archive read.
type FetchResult struct {
	// Body is the representation, a v2 field archive. Empty when
	// NotModified.
	Body []byte
	// ETag validates this representation on the next fetch.
	ETag string
	// ServedRate is the rate the server actually served (ZFP fetches).
	ServedRate float64
	// NotModified reports a 304: the caller's cached copy is current.
	NotModified bool
	// CacheHit reports whether the server answered from its
	// representation cache (no splice work happened).
	CacheHit bool
}

// FetchField reads one field of one archived step. Idempotent: retried on
// transport errors and 5xx like every archive read.
func (c *Client) FetchField(ctx context.Context, stream string, step int, field string, opt FetchOptions) (*FetchResult, error) {
	path := "/v1/archive/" + url.PathEscape(stream) + "/" + strconv.Itoa(step) + "/" + url.PathEscape(field)
	q := url.Values{}
	if opt.Rate > 0 {
		q.Set("rate", strconv.FormatFloat(opt.Rate, 'g', -1, 64))
	}
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var hdr map[string]string
	if opt.ETag != "" {
		hdr = map[string]string{"If-None-Match": opt.ETag}
	}
	res, err := c.doWith(ctx, "archive", true, http.MethodGet, path, hdr, nil,
		func(status int) bool { return status == http.StatusNotModified })
	if err != nil {
		return nil, err
	}
	out := &FetchResult{
		ETag:        res.header.Get("ETag"),
		NotModified: res.status == http.StatusNotModified,
		CacheHit:    res.header.Get("X-Cache") == "HIT",
	}
	if !out.NotModified {
		out.Body = res.body
	}
	if sr := res.header.Get("X-Served-Rate"); sr != "" {
		out.ServedRate, _ = strconv.ParseFloat(sr, 64)
	}
	return out, nil
}

// FetchManifest reads a stream's manifest. Idempotent.
func (c *Client) FetchManifest(ctx context.Context, stream string) (*archiveserve.Manifest, error) {
	res, err := c.do(ctx, "archive", true, http.MethodGet,
		"/v1/archive/"+url.PathEscape(stream)+"/manifest", nil)
	if err != nil {
		return nil, err
	}
	var m archiveserve.Manifest
	if err := json.Unmarshal(res.body, &m); err != nil {
		return nil, fmt.Errorf("client: manifest: bad response body: %w", err)
	}
	return &m, nil
}

// ListArchives lists the server's streams. Idempotent.
func (c *Client) ListArchives(ctx context.Context) ([]string, error) {
	res, err := c.do(ctx, "archive", true, http.MethodGet, "/v1/archive", nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Streams []string `json:"streams"`
	}
	if err := json.Unmarshal(res.body, &out); err != nil {
		return nil, fmt.Errorf("client: archive list: bad response body: %w", err)
	}
	return out.Streams, nil
}

// ArchiveStats reads an archive server's serving counters. Idempotent.
func (c *Client) ArchiveStats(ctx context.Context) (*archiveserve.Stats, error) {
	res, err := c.do(ctx, "archive-stats", true, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var st archiveserve.Stats
	if err := json.Unmarshal(res.body, &st); err != nil {
		return nil, fmt.Errorf("client: archive stats: bad response body: %w", err)
	}
	return &st, nil
}
