// Package archiveserve is the progressive multi-resolution archive
// server: a read-only HTTP service over v3 archive streams that stores
// each snapshot once, at maximum rate, and synthesizes any lower-rate
// representation on demand by bit-prefix splicing — never by
// recompression. ZFP's embedded per-block coding makes a rate-R stream a
// strict bit prefix of the rate-max stream, so one stored artifact serves
// the whole quality ladder: low rates for browsing, intermediate rates for
// interactive analysis, the full stream for archival reads. SZ fields are
// served as stored.
//
// Synthesized representations are cached in a byte-budgeted LRU keyed by
// (stream, step, field, variant) and validated by strong ETags derived
// from the stream's footer checksum, so CDNs and clients revalidate with
// If-None-Match and resume with Range over stable bytes.
package archiveserve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
)

// Config configures an archive server.
type Config struct {
	// Dir is the store directory holding *.acs streams.
	Dir string
	// CacheBytes bounds the representation cache (default 256 MiB).
	CacheBytes int64
	// Registry resolves codec frames (default codec.Default).
	Registry *codec.Registry
}

// Tier names requests by the quality rung they land on; /v1/stats reports
// one counter row per tier.
const (
	TierBrowse   = "browse"   // spliced rate ≤ 8 bits/value
	TierAnalysis = "analysis" // spliced rate > 8 bits/value
	TierFull     = "full"     // stored max-rate bytes
)

// browseRateCeiling splits spliced requests into browse vs analysis.
const browseRateCeiling = 8

// TierStats is one tier's counter row.
type TierStats struct {
	Requests    uint64 `json:"requests"`
	NotModified uint64 `json:"not_modified"`
	CacheHits   uint64 `json:"cache_hits"`
	BytesServed uint64 `json:"bytes_served"`
}

// Stats is the /v1/stats document.
type Stats struct {
	Cache CacheStats            `json:"cache"`
	Tiers map[string]*TierStats `json:"tiers"`
	// Splices counts actual synthesis work — a cache-hot fetch does not
	// increment it, which is the serving path's whole point.
	Splices         uint64 `json:"splices"`
	SidecarRebuilds uint64 `json:"sidecar_rebuilds"`
}

// Server serves archive streams over HTTP.
type Server struct {
	store *Store
	cache *blockCache
	mux   *http.ServeMux

	mu      sync.Mutex
	tiers   map[string]*TierStats
	splices uint64
}

// New opens the store and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	store, err := OpenStore(cfg.Dir, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Server{
		store: store,
		cache: newBlockCache(cfg.CacheBytes),
		mux:   http.NewServeMux(),
		tiers: map[string]*TierStats{
			TierBrowse: {}, TierAnalysis: {}, TierFull: {},
		},
	}
	s.mux.HandleFunc("GET /v1/archive", s.handleList)
	s.mux.HandleFunc("GET /v1/archive/{stream}/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /v1/archive/{stream}/{step}/{field}", s.handleField)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// Handler returns the HTTP handler (mount under NewHTTPServer for h2c).
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the store's stream handles.
func (s *Server) Close() error { return s.store.Close() }

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	tiers := make(map[string]*TierStats, len(s.tiers))
	for name, t := range s.tiers {
		cp := *t
		tiers[name] = &cp
	}
	st := Stats{
		Cache:   s.cache.stats(),
		Tiers:   tiers,
		Splices: s.splices,
	}
	s.mu.Unlock()
	s.store.mu.Lock()
	st.SidecarRebuilds = s.store.sidecarRebuilds
	s.store.mu.Unlock()
	return st
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names, err := s.store.List()
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	if names == nil {
		names = []string{}
	}
	writeJSON(w, map[string]any{"streams": names})
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	str, err := s.store.Stream(r.PathValue("stream"))
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	m, err := str.Manifest()
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	etag := fmt.Sprintf("\"%s-manifest\"", m.ETag)
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, m)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// variant is one resolved representation choice for a field request.
type variant struct {
	tier  string
	token string  // ETag/cache-key token ("full", "r4", ...)
	rate  float64 // the rate actually served (ZFP fields; 0 for stored sz)
	build func() ([]byte, error)
}

func (s *Server) handleField(w http.ResponseWriter, r *http.Request) {
	str, err := s.store.Stream(r.PathValue("stream"))
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	step, err := strconv.Atoi(r.PathValue("step"))
	if err != nil {
		apierr.WriteError(w, fmt.Errorf("archiveserve: %w: step %q is not an integer", apierr.ErrBadConfig, r.PathValue("step")))
		return
	}
	field := r.PathValue("field")
	fl, err := str.fieldLayout(step, field)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	v, err := s.resolveVariant(r, str, step, fl)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}

	etag := fieldETag(str.footerCRC, step, field, v.token)
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=31536000, immutable")
	h.Set("Accept-Ranges", "bytes")
	if v.rate > 0 {
		h.Set("X-Served-Rate", strconv.FormatFloat(v.rate, 'g', -1, 64))
	}
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.count(v.tier, func(t *TierStats) { t.Requests++; t.NotModified++ })
		w.WriteHeader(http.StatusNotModified)
		return
	}

	key := str.name + "\x00" + strconv.Itoa(step) + "\x00" + field + "\x00" + v.token
	body, hit, err := s.cache.getOrBuild(key, v.build)
	if err != nil {
		apierr.WriteError(w, err)
		return
	}
	s.count(v.tier, func(t *TierStats) {
		t.Requests++
		if hit {
			t.CacheHits++
		}
	})
	if hit {
		h.Set("X-Cache", "HIT")
	} else {
		h.Set("X-Cache", "MISS")
	}
	h.Set("Content-Type", "application/octet-stream")

	size := int64(len(body))
	off, n, ranged, rerr := parseRange(r.Header.Get("Range"), size)
	if rerr != nil {
		h.Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
		return
	}
	status := http.StatusOK
	if ranged {
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, size))
		body = body[off : off+n]
		status = http.StatusPartialContent
	}
	h.Set("Content-Length", strconv.FormatInt(int64(len(body)), 10))
	w.WriteHeader(status)
	if r.Method != http.MethodHead {
		n, _ := w.Write(body)
		s.count(v.tier, func(t *TierStats) { t.BytesServed += uint64(n) })
	}
}

// resolveVariant negotiates the representation: ?rate=R (zfp fields,
// quantized up to the quarter-bit bucket, capped at the stored rate) or
// nothing (the stored bytes verbatim). Any other query key is refused, so
// a client asking for a representation the server does not make never
// receives the stored bytes in its place.
func (s *Server) resolveVariant(r *http.Request, str *stream, step int, fl *core.FieldLayout) (*variant, error) {
	q := r.URL.Query()
	for key := range q {
		if key != "rate" {
			return nil, fmt.Errorf("archiveserve: %w: unknown query parameter %q (only rate is served)", apierr.ErrBadConfig, key)
		}
	}
	rateStr, hasRate := q.Get("rate"), q.Has("rate")
	full := &variant{
		tier:  TierFull,
		token: "full",
		build: func() ([]byte, error) { return str.readRange(fl.ArchiveOffset, fl.ArchiveLength) },
	}
	if !hasRate {
		return full, nil
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return nil, fmt.Errorf("archiveserve: %w: rate %q, need a positive finite bits/value", apierr.ErrBadConfig, rateStr)
	}
	maxRate, err := str.fieldMaxRate(fl.Name)
	if err != nil {
		return nil, err
	}
	if maxRate == 0 {
		return nil, fmt.Errorf("archiveserve: %w: field %q is %s, rate slicing is a zfp property",
			apierr.ErrBadConfig, fl.Name, fl.Partitions[0].Codec)
	}
	bucket := quantizeRate(rate)
	if bucket >= maxRate {
		// The stored stream already is the best answer ≥ the ask.
		full.rate = maxRate
		return full, nil
	}
	return &variant{
		tier:  tierOfRate(bucket),
		token: rateToken(bucket),
		rate:  bucket,
		build: func() ([]byte, error) {
			s.mu.Lock()
			s.splices++
			s.mu.Unlock()
			return str.splice(step, fl, bucket)
		},
	}, nil
}

func tierOfRate(rate float64) string {
	if rate <= browseRateCeiling {
		return TierBrowse
	}
	return TierAnalysis
}

func (s *Server) count(tier string, f func(*TierStats)) {
	s.mu.Lock()
	if t, ok := s.tiers[tier]; ok {
		f(t)
	}
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
