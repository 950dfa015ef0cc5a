// Command archived serves archived simulation streams progressively: one
// max-rate v3 stream per snapshot on disk, any lower rate synthesized per
// request by bit-prefix splicing (never recompression), with a
// byte-budgeted representation cache, strong ETags for CDN revalidation,
// and HTTP Range support. SZ fields written by other tools are served as
// stored.
//
// Usage:
//
//	archived -dir store/ [-addr :8324] [-cache-mb 256]
//
//	archived -gen -dir store/ -stream demo [-steps 3] [-dim 32] \
//	         [-rate 16] [-fields 2] [-seed 7]
//	    Generate a synthetic Nyx-like stream into the store.
//
//	archived -splice archive.bin -rate 2 [-o out.bin]
//	    Locally derive the rate-R form of a stored v2 field archive —
//	    byte-identical to what a server responds for ?rate=R, so it is
//	    the reference half of the CI byte-identity gate.
//
// API:
//
//	GET /v1/archive                               stream listing
//	GET /v1/archive/{stream}/manifest             steps, fields, rate rungs
//	GET /v1/archive/{stream}/{step}/{field}       stored bytes (v2 archive)
//	    ?rate=R                                   spliced to R bits/value
//	GET /v1/stats                                 cache + per-tier counters
//
// On SIGTERM/SIGINT the listener stops accepting, in-flight responses
// finish, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/adaptive"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("archived: ")
	var (
		dir     = flag.String("dir", "", "store directory of *.acs streams")
		addr    = flag.String("addr", ":8324", "listen address")
		cacheMB = flag.Int64("cache-mb", 256, "representation cache budget in MiB")

		gen     = flag.Bool("gen", false, "generate a synthetic stream into -dir instead of serving")
		stream  = flag.String("stream", "demo", "stream name (with -gen)")
		steps   = flag.Int("steps", 3, "steps to generate (with -gen)")
		dim     = flag.Int("dim", 32, "field edge length (with -gen)")
		rate    = flag.Float64("rate", 16, "stored ZFP rate with -gen; target rate with -splice")
		nFields = flag.Int("fields", 2, "ZFP fields per step (with -gen, max 6)")
		seed    = flag.Uint64("seed", 7, "synthetic universe seed (with -gen)")

		splice = flag.String("splice", "", "splice this stored v2 archive file locally and exit")
		out    = flag.String("o", "", "output path for -splice (default stdout)")
	)
	flag.Parse()

	switch {
	case *splice != "":
		if err := runSplice(*splice, *rate, *out); err != nil {
			log.Fatal(err)
		}
	case *gen:
		if err := runGen(*dir, *stream, *steps, *dim, *rate, *nFields, *seed); err != nil {
			log.Fatal(err)
		}
	default:
		if err := runServe(*dir, *addr, *cacheMB<<20); err != nil {
			log.Fatal(err)
		}
	}
}

func runSplice(path string, rate float64, out string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spliced, err := adaptive.SpliceArchiveField(data, rate)
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(spliced)
		return err
	}
	log.Printf("spliced %s to rate %g: %d -> %d bytes", path, rate, len(data), len(spliced))
	return os.WriteFile(out, spliced, 0o644)
}

func runGen(dir, stream string, steps, dim int, rate float64, nFields int, seed uint64) error {
	if dir == "" {
		return errors.New("-gen requires -dir")
	}
	names := adaptive.FieldNames()
	if nFields < 1 || nFields > len(names) {
		return fmt.Errorf("-fields must be 1..%d", len(names))
	}
	names = names[:nFields]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	src, err := adaptive.NewSynthStream(adaptive.SynthStreamParams{
		Base:  adaptive.SynthParams{N: dim, Seed: seed},
		Steps: steps,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, stream+adaptive.ArchiveStreamSuffix)
	w, err := adaptive.NewArchiveWriter(path, adaptive.ArchiveWriterOptions{Rate: rate})
	if err != nil {
		return err
	}
	for {
		fields, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		step := make(map[string]adaptive.ArchiveFieldSpec, len(names))
		for _, name := range names {
			step[name] = adaptive.ArchiveFieldSpec{Field: fields[name]}
		}
		if err := w.WriteStep(step); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	log.Printf("generated %s: %d steps of %d³, stored rate %g, %d bytes (+ sidecar)",
		path, steps, dim, rate, fi.Size())
	return nil
}

func runServe(dir, addr string, cacheBytes int64) error {
	if dir == "" {
		return errors.New("serving requires -dir")
	}
	srv, err := adaptive.NewArchiveServer(adaptive.ArchiveServerConfig{Dir: dir, CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	defer srv.Close()
	hs := adaptive.NewH2CServer(addr, srv.Handler())

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	log.Printf("serving %s on %s (cache %d MiB)", dir, addr, cacheBytes>>20)

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("%s: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		st := srv.Stats()
		log.Printf("served: cache %d hits / %d misses / %d evictions, %d splices",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Splices)
		return nil
	}
}
