// Command proust-serve exposes a Proustian STM instance over TCP: clients
// submit pipelined, length-prefixed batches of map/queue/priority-queue
// operations and each batch executes as one atomic transaction (see
// DESIGN.md §15 for the wire format and the batch-compilation semantics).
//
// Typical use:
//
//	proust-serve -addr :7654 -backend mvcc -metrics-addr :9100
//	proust-bench -experiment serve -addr 127.0.0.1:7654 -pipeline 1,32
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"proust/internal/obs"
	"proust/internal/server"
	"proust/internal/stm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "proust-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("proust-serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":7654", "TCP listen address")
		backend     = fs.String("backend", "", "STM backend (see -list-backends; default ccstm)")
		listBk      = fs.Bool("list-backends", false, "list registered STM backends and exit")
		maps        = fs.String("maps", "predication", "namespace map implementation: predication | boosted")
		inflight    = fs.Int("inflight", 0, "max concurrently executing batches (0 = 4x GOMAXPROCS)")
		shedWait    = fs.Duration("shed-wait", 0, "how long a batch waits for an execution slot before being shed (0 = 2ms)")
		deadline    = fs.Duration("deadline", 0, "per-batch transaction deadline (0 = none)")
		drain       = fs.Duration("drain", 0, "graceful-shutdown drain window (0 = 5s)")
		maxFrame    = fs.Int("max-frame", 0, "largest accepted request frame in bytes (0 = 1MiB)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listBk {
		fmt.Println("Registered STM backends:")
		for _, bf := range stm.Backends() {
			fmt.Printf("  %-8s %-22s %s\n", bf.Name, "("+bf.Policy.String()+")", bf.Doc)
		}
		return nil
	}
	if *backend != "" {
		if _, ok := stm.BackendByName(*backend); !ok {
			return fmt.Errorf("unknown backend %q (valid backends: %s)",
				*backend, strings.Join(stm.BackendNames(), ", "))
		}
	}

	var opts []stm.Option
	if *backend != "" {
		opts = append(opts, stm.WithBackend(*backend))
	}
	sys := stm.New(opts...)
	defer sys.Close()

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		maddr, stopMetrics, err := obs.Serve(*metricsAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stopMetrics()
		fmt.Printf("# observability: http://%s/metrics (also /metrics.json, /debug/pprof)\n", maddr)
	}

	srv, err := server.New(server.Config{
		System:       sys,
		Maps:         *maps,
		MaxFrame:     *maxFrame,
		Inflight:     *inflight,
		ShedWait:     *shedWait,
		TxnDeadline:  *deadline,
		DrainTimeout: *drain,
		Registry:     reg,
	})
	if err != nil {
		return err
	}

	ln, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	bkName := *backend
	if bkName == "" {
		bkName = "ccstm"
	}
	fmt.Printf("# proust-serve: listening on %s (backend=%s maps=%s GOMAXPROCS=%d)\n",
		ln.Addr(), bkName, *maps, runtime.GOMAXPROCS(0))

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, answer buffered
	// frames with StatusClosed, drain in-flight batches within the window.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Printf("# proust-serve: %v — draining\n", sig)
		if err := srv.Close(); err != nil {
			return err
		}
		<-done
		return nil
	case err := <-done:
		return err
	}
}
