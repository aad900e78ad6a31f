// Command lvf2d is the concurrent timing-query daemon: it loads Liberty
// libraries (LVF and LVF²) once and serves per-arc distribution, speed
// binning, yield and path-level SSTA queries over HTTP, with an LRU model
// cache, singleflight request coalescing and Prometheus metrics. See
// the README "Serving" section for the endpoint table.
//
// Usage:
//
//	lvf2d -addr :8080 -lib synth.lib
//	lvf2d -lib fast=fast.lib -lib slow=slow.lib -pprof
//	lvf2d -lib synth.lib -peer-id a -peers 'b=http://host2:8080,c=http://host3:8080'
//	curl 'localhost:8080/v1/arc/binning?lib=synth&cell=INV&slew=0.02&load=0.004'
//
// With -peer-id/-peers the daemon serves as one replica of a fleet: the
// model cache is sharded over a consistent-hash ring, non-owned queries
// forward to their owner (falling back to a local compute if the owner
// is down), and a restarting replica warm-seeds its owned keys from its
// peers. -peers is shorthand for the epoch-0 membership document of this
// replica plus the listed ones (-membership names a document instead);
// the document is validated before the listener starts, and every
// replica boots through the same join sequence.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lvf2/internal/modelcache"
	"lvf2/internal/server"
)

func main() {
	var libs libFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		maxInFlight = flag.Int("max-inflight", 64, "max concurrently served API requests")
		fitSamples  = flag.Int("fit-samples", 2048, "quantile samples per refit query")
		cacheModels = flag.Int("cache-models", 65536, "max cached fitted models")
		cacheLibs   = flag.Int("cache-libs", 8, "max cached parsed libraries")
		cacheBytes  = flag.Int64("cache-bytes", 256<<20, "cache memory budget, bytes")
		maxLibs     = flag.Int("max-libraries", 32, "max registered library sources")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		snapshot    = flag.String("snapshot", "", "model-cache snapshot file: restored on boot, saved periodically and on drain")
		snapEvery   = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence (with -snapshot)")
		yieldMax    = flag.Int("yield-max-samples", 1<<22, "sample budget cap per /v1/yield estimator run")
		yieldBatch  = flag.Int("yield-batch", 4096, "estimator batch size between CI-contract checks")
		peerID      = flag.String("peer-id", "", "this replica's id in the fleet (requires -peers or -membership)")
		selfURL     = flag.String("self-url", "", "this replica's own base URL as peers reach it (embedded in membership documents)")
		membership  = flag.String("membership", "", "epoch-versioned fleet membership JSON file; watched for changes and updated on adopted epochs")
		memberPoll  = flag.Duration("membership-poll", 2*time.Second, "membership file poll cadence (with -membership)")
		aeEvery     = flag.Duration("antientropy-interval", 30*time.Second, "anti-entropy digest-exchange cadence in a fleet")
		vnodes      = flag.Int("ring-vnodes", 0, "virtual nodes per replica on the consistent-hash ring (0 = default)")
	)
	var peerSpecs peerFlags
	flag.Var(&libs, "lib", "Liberty library to preload: path or name=path (repeatable)")
	flag.Var(&peerSpecs, "peers", "fleet peers as comma-separated id=url entries (repeatable, requires -peer-id)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: lvf2d [flags]\n\nServe LVF/LVF² timing queries over HTTP.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lvf2d: unexpected arguments: %s\n\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	// Fleet membership is validated before anything listens: a typo in
	// -peers or the membership file must be an exit-2 usage error, not a
	// replica that silently serves standalone.
	boot, err := fleetMembership(*peerID, *selfURL, *membership, peerSpecs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvf2d: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Cache: modelcache.Options{
			MaxLibraries: *cacheLibs,
			MaxModels:    *cacheModels,
			MaxBytes:     *cacheBytes,
		},
		RequestTimeout:       *timeout,
		MaxInFlight:          *maxInFlight,
		FitSamples:           *fitSamples,
		MaxUploadedLibraries: *maxLibs,
		EnablePprof:          *enablePprof,
		SnapshotPath:         *snapshot,
		SnapshotInterval:     *snapEvery,
		YieldMaxSamples:      *yieldMax,
		YieldBatch:           *yieldBatch,
		Replication: server.ReplicationOptions{
			SelfID:                 *peerID,
			SelfURL:                *selfURL,
			Membership:             boot,
			MembershipPath:         *membership,
			MembershipPollInterval: *memberPoll,
			AntiEntropyInterval:    *aeEvery,
			VirtualNodes:           *vnodes,
		},
	})
	for _, l := range libs {
		name := l.name
		if name == "" {
			// Predictable reference for curl: -lib synth.lib → lib=synth.
			name = strings.TrimSuffix(filepath.Base(l.path), ".lib")
		}
		hash, err := srv.AddLibraryFile(name, l.path)
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", l.path, err))
		}
		fmt.Fprintf(os.Stderr, "lvf2d: loaded %s as %q (hash %.12s…)\n", l.path, name, hash)
	}

	// Restore the snapshot (if any) and flip /readyz to ready. A corrupt
	// or version-skewed snapshot is logged and counted but never fatal.
	srv.Bootstrap()

	// In a fleet, run the graceful-join sequence before listening:
	// announce the boot document to the other members (an epoch-0
	// document from -peers cannot advance any peer's epoch), then pull
	// this replica's owned slice of the model cache back from whichever
	// peers absorbed it. Best effort: dead peers contribute nothing.
	if boot != nil {
		wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n := srv.JoinFleet(wctx)
		cancel()
		fmt.Fprintf(os.Stderr, "lvf2d: replica %q joined a %d-replica fleet at epoch %d, warm-seeded %d models\n",
			*peerID, len(boot.Members), boot.Epoch, n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "lvf2d: serving on %s (%d libraries)\n", *addr, len(libs))
	if err := srv.Run(ctx, *addr, *drain); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "lvf2d: drained, bye")
}

// libFlags collects repeated -lib values of the form path or name=path.
type libFlags []struct{ name, path string }

func (l *libFlags) String() string {
	parts := make([]string, len(*l))
	for i, e := range *l {
		parts[i] = e.path
	}
	return strings.Join(parts, ",")
}

func (l *libFlags) Set(v string) error {
	name, path := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, path = v[:i], v[i+1:]
	}
	if path == "" {
		return fmt.Errorf("empty library path")
	}
	*l = append(*l, struct{ name, path string }{name, path})
	return nil
}

// peerFlags collects repeated -peers values; each value is itself a
// comma-separated list of id=url entries, so one flag or many both work.
type peerFlags []string

func (p *peerFlags) String() string { return strings.Join(*p, ",") }

func (p *peerFlags) Set(v string) error {
	if strings.TrimSpace(v) == "" {
		return fmt.Errorf("empty -peers value")
	}
	*p = append(*p, v)
	return nil
}

// fleetMembership turns the fleet flags into the boot membership
// document, or nil for a standalone daemon. -membership names the
// document; -peers is shorthand for the epoch-0 document of this
// replica (-peer-id, -self-url) plus the listed peers. Either way the
// document's own Validate is the fleet check.
func fleetMembership(peerID, selfURL, membershipPath string, peerSpecs []string) (*server.Membership, error) {
	if membershipPath != "" {
		if len(peerSpecs) > 0 {
			return nil, fmt.Errorf("-membership and -peers are mutually exclusive")
		}
		m, err := server.LoadMembershipFile(membershipPath)
		if err != nil {
			return nil, err
		}
		if !m.Has(peerID) {
			return nil, fmt.Errorf("membership file %s does not list -peer-id %q", membershipPath, peerID)
		}
		return &m, nil
	}
	if len(peerSpecs) == 0 {
		if peerID != "" {
			return nil, fmt.Errorf("-peer-id %q given without -peers or -membership", peerID)
		}
		return nil, nil
	}
	m := server.Membership{Members: []server.Peer{{ID: peerID, URL: strings.TrimRight(selfURL, "/")}}}
	for _, spec := range peerSpecs {
		for _, entry := range strings.Split(spec, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			id, u, ok := strings.Cut(entry, "=")
			if !ok {
				return nil, fmt.Errorf("-peers entry %q: want id=url", entry)
			}
			m.Members = append(m.Members, server.Peer{ID: id, URL: strings.TrimRight(u, "/")})
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lvf2d: %v\n", err)
	os.Exit(1)
}
