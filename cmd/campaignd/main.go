// Command campaignd is the distributed-campaign coordinator: it queues
// fault-injection campaigns submitted over a REST API, parcels each
// campaign's experiment index space out to `repro campaign -worker`
// processes as leased shards, ingests the per-shard journals, and merges
// them into a journal byte-identical to a single-process run
// (internal/dist).
//
// Worker failures are handled by lease expiry: a worker that dies or
// stalls stops renewing, its shard returns to the pending pool, and the
// next polling worker picks it up — no operator intervention, no effect on
// the merged bytes.
//
// Usage:
//
//	campaignd -addr 127.0.0.1:8080 -data /var/lib/campaignd
//	repro campaign -worker http://127.0.0.1:8080 -worker-drain   # on each machine
//	curl -X POST http://127.0.0.1:8080/campaigns \
//	     -d '{"workload":"resnet","experiments":5000,"seed":1,"shard_size":100}'
//	curl http://127.0.0.1:8080/status
//	curl http://127.0.0.1:8080/campaigns/c0001/journal > run.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 binds a free port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening (useful with port 0)")
		dataDir   = flag.String("data", "campaignd-data", "directory for per-shard and merged campaign journals")
		leaseTTL  = flag.Duration("lease-ttl", 15*time.Second, "shard lease time-to-live: a worker silent for this long forfeits its shard to reassignment")
		shardSize = flag.Int("shard-size", 25, "default owner-range width per lease, for campaign specs that omit shard_size")
	)
	flag.Parse()

	c, err := dist.NewCoordinator(dist.Options{
		DataDir:          *dataDir,
		LeaseTTL:         *leaseTTL,
		DefaultShardSize: *shardSize,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("campaignd: serving on http://%s (data %s, lease TTL %s)\n", bound, *dataDir, *leaseTTL)

	// SIGINT/SIGTERM shut the server down gracefully: in-flight requests
	// finish, then the lease sweeper stops. Campaign state is on disk as
	// shard journals; nothing in flight is lost beyond unmerged leases.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: c}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("campaignd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignd:", err)
	os.Exit(1)
}
