// Command adaptived serves the adaptive compressor over the network: a
// long-running HTTP/1.1 + h2c service that compresses, decompresses, and
// calibrates fields for many concurrent tenants, with per-tenant bounded
// queues (typed 429 backpressure), deficit-round-robin fair scheduling
// over a fixed set of workers (one engine run per request), token-bucket
// rate metering, and — with -adapt — a load controller that
// steps error-bound budgets up under pressure and back down when it
// clears.
//
// Usage:
//
//	adaptived -addr :8323 [-codec sz] [-partition 16] [-rel-eb 0.1] \
//	          [-queue 64] [-token-rate 0] [-inflight 0] \
//	          [-adapt] [-slo 250ms] [-max-level 4] [-eb-step 2] \
//	          [-archive stream.acs] [-checkpoint 4] [-fsync] \
//	          [-floor tenant-03=1 -floor tenant-04=2]
//
// -inflight sets the number of workers, i.e. how many requests execute at
// once (0 = GOMAXPROCS). With -archive, every compressed request is
// appended to the named file as one step of a crash-recoverable v3 stream: -checkpoint N snapshots the
// footer every N steps (so a kill -9 loses at most N steps; streamrecover
// salvages the rest), and -fsync bounds that loss against power failure
// too. -floor caps a tenant's budget scale so load-driven stepping never
// degrades that tenant past its contract.
//
// On SIGTERM/SIGINT the server enters lame-duck mode: new requests get a
// typed 503 ("draining", safe to retry against a replacement) while queued
// and in-flight work runs to completion, then the process exits 0.
//
// API (tenancy via the X-Tenant header; bodies are the raw-field wire
// format, 12-byte little-endian dim header + fp32 cells):
//
//	POST /v1/compress/{field}   raw field in  → archive v2 out
//	POST /v1/decompress         archive v2 in → raw field out
//	POST /v1/calibrate/{field}  raw field in  → calibration JSON out
//	GET  /v1/stats              counters and controller state
//	GET  /healthz               liveness (503 while draining)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/adaptive"
)

// floorsFlag accumulates repeated -floor tenant=scale pairs.
type floorsFlag map[string]float64

func (f floorsFlag) String() string {
	var parts []string
	for k, v := range f {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	return strings.Join(parts, ",")
}

func (f floorsFlag) Set(s string) error {
	tenant, val, ok := strings.Cut(s, "=")
	if !ok || tenant == "" {
		return fmt.Errorf("want tenant=scale, got %q", s)
	}
	scale, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("scale in %q: %w", s, err)
	}
	f[tenant] = scale
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptived: ")
	floors := make(floorsFlag)
	var (
		addr      = flag.String("addr", ":8323", "listen address")
		codecName = flag.String("codec", "sz", "compression backend")
		partition = flag.Int("partition", 16, "partition brick dimension")
		relEB     = flag.Float64("rel-eb", 0.1, "quality budget relative to each field's mean |value|")
		queue     = flag.Int("queue", 64, "per-tenant admission queue depth")
		tokenRate = flag.Float64("token-rate", 0, "per-tenant rate limit in cells/sec (0 = unmetered)")
		inflight  = flag.Int("inflight", 0, "workers, i.e. max concurrently executing requests (0 = GOMAXPROCS)")
		adapt     = flag.Bool("adapt", false, "enable load-driven rate stepping")
		slo       = flag.Duration("slo", 250*time.Millisecond, "p99 latency SLO for the load controller")
		maxLevel  = flag.Int("max-level", 4, "load controller's max step level")
		ebStep    = flag.Float64("eb-step", 2, "per-level budget multiplier")
		archive   = flag.String("archive", "", "append each compressed request as one step to this crash-recoverable v3 stream file")
		chkpt     = flag.Int("checkpoint", 4, "steps between archive footer checkpoints (with -archive)")
		fsync     = flag.Bool("fsync", false, "fsync the archive after each checkpoint (with -archive)")
		drainFor  = flag.Duration("drain-timeout", 10*time.Second, "max time to finish in-flight work on shutdown")
	)
	flag.Var(floors, "floor", "cap a tenant's budget scale, tenant=scale (repeatable)")
	flag.Parse()

	sys, err := adaptive.New(
		adaptive.WithCodec(*codecName),
		adaptive.WithPartitionDim(*partition),
		adaptive.WithRelAvgEB(*relEB),
	)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := sys.NewServer(adaptive.ServerConfig{
		QueueDepth:    *queue,
		TokenRate:     *tokenRate,
		MaxInflight:   *inflight,
		QualityFloors: floors,
		Adapt: adaptive.ServerAdaptConfig{
			Enabled:    *adapt,
			LatencySLO: *slo,
			MaxLevel:   *maxLevel,
			EBStep:     *ebStep,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	var archFile *os.File
	var archWriter *adaptive.StreamWriter
	if *archive != "" {
		archFile, err = os.Create(*archive)
		if err != nil {
			log.Fatal(err)
		}
		archWriter, err = adaptive.NewCheckpointedStreamWriter(archFile, adaptive.CheckpointOptions{
			Interval: *chkpt,
			Sync:     *fsync,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.AttachArchive(archWriter)
		log.Printf("archiving compressed requests to %s (checkpoint every %d steps, fsync %v)", *archive, *chkpt, *fsync)
	}

	hs := adaptive.NewH2CServer(*addr, srv.Handler())
	go func() {
		log.Printf("serving on %s (codec %s, partition %d, adapt %v)", *addr, sys.Codec(), sys.PartitionDim(), *adapt)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("draining: refusing new work, finishing in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("service close: %v", err)
	}
	if archWriter != nil {
		if err := archWriter.Close(); err != nil {
			log.Printf("archive close: %v", err)
		}
		if err := archFile.Close(); err != nil {
			log.Printf("archive file close: %v", err)
		}
	}
	st := srv.Stats()
	log.Printf("served %d requests (%d rejected, %d failed) in %d engine runs", st.Served, st.Rejected, st.Failed, st.Batches)
}
