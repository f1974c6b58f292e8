// Command vfocusd serves the VFocus ranking pipeline as a long-running
// HTTP/JSON daemon: submit a (golden, buggy-candidate-pool) job, stream
// ranked clusters back as NDJSON, cancel mid-flight by ID. SIGINT/SIGTERM
// shut down gracefully — intake stops, in-flight jobs drain under the
// drain deadline, stragglers are force-cancelled.
//
// Usage:
//
//	vfocusd -addr :8080 -workers 4 -queue-cap 16
//
// See the README's "Running vfocusd" section for the API.
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
	"syscall"
	"time"

	"repro/cmd/internal/llmflags"
	"repro/cmd/internal/storeflags"
	"repro/internal/serve"
	"repro/internal/serve/faultinject"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "vfocusd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vfocusd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 2, "concurrent ranking jobs")
		queueCap    = fs.Int("queue-cap", 16, "max queued jobs before 429")
		jobTimeout  = fs.Duration("job-timeout", 5*time.Minute, "per-job run deadline (0 = none)")
		drain       = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline")
		rankWorkers = fs.Int("rank-workers", 4, "simulation workers per job")
		model       = fs.String("model", "deepseek-r1", "default simulated-LLM profile for generated pools")
	)
	storef := storeflags.Register(fs)
	llmf := llmflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	storeDesc, storeClose, err := storef.Install(log.Printf)
	if err != nil {
		return err
	}
	defer storeClose()

	// Test-only throttle for black-box harnesses (scripts/smoke_vfocusd.sh):
	// sleep this many milliseconds at every rank batch, so an external
	// driver can reliably land a cancel or an overload while a job is
	// mid-compute. Off (and zero-cost) unless the variable is set.
	if ms := os.Getenv("VFOCUSD_SLOW_BATCH_MS"); ms != "" {
		d, err := strconv.Atoi(ms)
		if err != nil || d < 0 {
			return fmt.Errorf("bad VFOCUSD_SLOW_BATCH_MS %q", ms)
		}
		faultinject.ArmFrom(faultinject.PointRankBatch, "", 1, func() {
			time.Sleep(time.Duration(d) * time.Millisecond)
		})
	}

	newClient, llmStats, llmClose, err := llmf.Factory()
	if err != nil {
		return err
	}
	defer llmClose()
	if llmStats != nil {
		log.Printf("llm backend: %s", llmf.Desc())
	}

	scfg := serve.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		JobTimeout:  *jobTimeout,
		RankWorkers: *rankWorkers,
		Model:       *model,
		StoreDesc:   storeDesc,
		NewClient:   newClient,
		LLMDesc:     llmf.Desc(),
	}
	if llmStats != nil {
		scfg.LLMStats = func() map[string]int64 { return llmStats().Map() }
	}
	srv := serve.New(scfg)
	httpSrv := srv.HTTPServer(*addr)

	errc := make(chan error, 1)
	go func() {
		log.Printf("vfocusd listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("received %s, draining (deadline %s)", sig, *drain)
	}

	// Stop accepting connections first, then drain the job scheduler.
	// Streaming connections of still-running jobs get the drain window to
	// finish; after it, jobs are force-cancelled and their streams see the
	// terminal cancelled event.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	srv.Shutdown(*drain)
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("vfocusd: drained cleanly")
	return nil
}
