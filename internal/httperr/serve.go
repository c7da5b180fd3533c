package httperr

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve is the process shell of both binaries: it serves h on addr until
// SIGINT or SIGTERM, then shuts down gracefully — in-flight requests get
// grace to finish — and returns. A non-empty debugAddr also serves
// net/http/pprof. A listener failure is fatal. name prefixes every log
// line; detail follows the listen address in the startup line.
func Serve(name, addr, debugAddr string, h http.Handler, grace time.Duration, detail string) {
	if debugAddr != "" {
		go serveDebug(name, debugAddr)
	}
	srv := &http.Server{
		Addr:    addr,
		Handler: h,
		// Bound slow/idle clients so they cannot pin connections forever;
		// WriteTimeout stays 0 because batch responses stream for as long
		// as the solves take.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("%s: listening on %s%s", name, addr, detail)

	select {
	case err := <-errc:
		log.Fatalf("%s: %v", name, err)
	case <-ctx.Done():
	}

	log.Printf("%s: shutting down", name)
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("%s: shutdown: %v", name, err)
	}
}

// serveDebug exposes net/http/pprof on its own listener — deliberately a
// separate address from the serving port, so profiling endpoints are never
// reachable through whatever exposes the service itself.
func serveDebug(name, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("%s: pprof on %s", name, addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("%s: debug listener: %v", name, err)
	}
}
