package role

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Server is the listener half of a role: an http.Server with the shared
// header timeout, whose Serve treats a clean Shutdown as success.
type Server struct{ srv *http.Server }

// NewServer serves h.
func NewServer(h http.Handler) *Server {
	return &Server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
}

// Serve accepts connections on l until Shutdown. A clean shutdown
// returns nil rather than http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	if err := s.srv.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown refuses new connections and drains in-flight requests,
// waiting at most deadline.
func (s *Server) Shutdown(deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Flags are the flags every role binary shares.
type Flags struct {
	Addr        string        // -addr: listen address
	Drain       time.Duration // -drain: graceful-shutdown deadline
	Timeout     time.Duration // -timeout: the role's request deadline
	MaxBody     int64         // -max-body: request body size limit
	TraceSample float64       // -trace-sample: edge head-sampling rate
}

// Define registers the shared flags on fs. The role gives its defaults
// for -addr, -timeout and -max-body and says what its -timeout bounds;
// -drain (10s) and -trace-sample (1) default alike everywhere.
func Define(fs *flag.FlagSet, addr string, timeout time.Duration, timeoutUsage string, maxBody int64) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", addr, "listen address (port 0 picks a free port)")
	fs.DurationVar(&f.Drain, "drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	fs.DurationVar(&f.Timeout, "timeout", timeout, timeoutUsage)
	fs.Int64Var(&f.MaxBody, "max-body", maxBody, "request body size limit in bytes")
	fs.Float64Var(&f.TraceSample, "trace-sample", 1, "fraction of edge requests that record a distributed trace into /tracez (0 disables; requests carrying a traceparent follow the caller's decision)")
	return f
}

// SampleRate maps -trace-sample onto the role options, where zero
// means "default to 1": a flag value of 0 disables tracing, so it
// becomes the negative sentinel.
func (f *Flags) SampleRate() float64 {
	if f.TraceSample <= 0 {
		return -1
	}
	return f.TraceSample
}

// Role is what Run drives.
type Role interface {
	Serve(net.Listener) error
	Shutdown(deadline time.Duration) error
}

// Run listens on f.Addr and serves r until SIGINT or SIGTERM, then
// drains it within f.Drain. The resolved address goes to stdout as
// "<name>: listening on <addr>", so scripts using port 0 can find it; a
// clean drain logs "shut down cleanly". Any failure is fatal.
func Run(name string, f *Flags, r Role) {
	l, err := net.Listen("tcp", f.Addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: listening on %s\n", name, l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- r.Serve(l) }()
	select {
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining (deadline %s)", f.Drain)
		if err := r.Shutdown(f.Drain); err != nil {
			log.Fatalf("drain failed: %v", err)
		}
		<-serveErr
		log.Print("shut down cleanly")
	}
}
